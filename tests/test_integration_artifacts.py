"""Integration: every paper artifact regenerates and is well-formed."""

import pytest

from repro.report.experiments import PAPER_SCHEMES, Artifact, PaperExperiments


@pytest.fixture(scope="module")
def experiments():
    return PaperExperiments(length=20_000)


def test_table1_is_the_paper_timing(experiments):
    artifact = experiments.table1()
    assert artifact.data["Invalidate"] == 1
    assert artifact.data["Wait for Memory"] == 2
    assert "Table 1" in artifact.text


def test_table2_has_both_buses(experiments):
    artifact = experiments.table2()
    assert artifact.data["pipelined"]["memory access"] == 5
    assert artifact.data["non-pipelined"]["memory access"] == 7


def test_table3_reports_three_traces(experiments):
    artifact = experiments.table3()
    assert [stats.name for stats in artifact.data] == ["pops", "thor", "pero"]
    assert all(stats.total_refs == 20_000 for stats in artifact.data)
    assert "POPS" in artifact.text


def test_table4_shape(experiments):
    artifact = experiments.table4()
    frequencies = artifact.data
    assert set(frequencies) == set(PAPER_SCHEMES)
    # Scheme-inapplicable cells render as dashes, like the paper.
    wh_distrib_row = next(
        line for line in artifact.text.splitlines() if "wh-distrib" in line
    )
    assert wh_distrib_row.count("-") >= 3


def test_table5_cumulative_row(experiments):
    artifact = experiments.table5()
    assert "cumulative" in artifact.text
    table = artifact.data
    for scheme in PAPER_SCHEMES:
        assert sum(table[scheme].values()) >= 0


def test_figure1_single_invalidation_dominates(experiments):
    artifact = experiments.figure1()
    assert artifact.data.single_or_none_fraction > 0.7
    assert "%" in artifact.text


def test_figure2_ranges_ordered(experiments):
    ranges = experiments.figure2().data
    for low, high in ranges.values():
        assert 0 <= low <= high


def test_figure3_per_trace(experiments):
    data = experiments.figure3().data
    assert set(data) == {"pops", "thor", "pero"}


def test_figure4_fractions(experiments):
    fractions = experiments.figure4().data
    for row in fractions.values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-6)


def test_figure5_transaction_costs(experiments):
    costs = experiments.figure5().data
    assert costs["dir1nb"] > costs["dragon"]


def test_section51_models(experiments):
    data = experiments.section51().data
    assert data["dragon"].slope > data["dir0b"].slope * 0.5
    assert data["berkeley"] <= data["dir0b"].base


def test_section52_spin_impact(experiments):
    impacts = experiments.section52().data
    by_scheme = {impact.scheme: impact for impact in impacts}
    assert by_scheme["dir1nb"].relative_drop > by_scheme["dir0b"].relative_drop


def test_section6_artifacts(experiments):
    sequential = experiments.section6_sequential().data
    assert sequential["dirnnb"] == pytest.approx(sequential["dir0b"], rel=0.15)
    model = experiments.section6_dir1b().data
    assert model.cycles(10) > model.cycles(1)
    sweep = experiments.section6_sweep(pointer_counts=(1, 2)).data
    assert len(sweep) == 4
    storage = experiments.section6_storage().data
    assert storage[1024]["full-map"] == 1025


def test_section5_system_bound(experiments):
    bounds = experiments.section5_system().data
    assert bounds["dragon"].max_processors > bounds["dir1nb"].max_processors


def test_all_artifacts_regenerate(experiments):
    artifacts = experiments.all_artifacts()
    assert len(artifacts) == 19
    for artifact in artifacts:
        assert isinstance(artifact, Artifact)
        assert artifact.text.strip()
        assert str(artifact) == artifact.text


def test_all_artifacts_read_the_traces_as_columns():
    """No artifact builds records from the paper traces."""
    small = PaperExperiments(length=2000)
    small.all_artifacts()
    assert all(trace.columns is not None for trace in small.traces)
