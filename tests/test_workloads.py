"""Synthetic workload generators: layout, locks, patterns, and traces."""

import pytest

from repro.errors import ConfigurationError, UnknownSchemeError
from repro.memory.address import BlockMapper
from repro.trace.stats import compute_statistics
from repro.workloads.base import SyntheticWorkload, WorkloadConfig
from repro.workloads.layout import MAX_PROCESSES, AddressSpaceLayout
from repro.workloads.locks import Lock, LockTable
from repro.workloads.patterns import LocalityPicker, ProducerConsumerBuffers
from repro.workloads.registry import (
    available_workloads,
    make_trace,
    standard_traces,
    workload_config,
)


class TestLayout:
    def test_regions_are_disjoint(self):
        layout = AddressSpaceLayout()
        mapper = BlockMapper()
        blocks = set()
        regions = []
        for pid in range(4):
            regions.append([layout.private_address(pid, i) for i in range(layout.private_blocks)])
            regions.append([layout.kernel_private_address(pid, i) for i in range(layout.kernel_private_blocks)])
        regions.append([layout.shared_read_address(i) for i in range(layout.shared_read_blocks)])
        regions.append([layout.migratory_address(i) for i in range(layout.migratory_blocks)])
        regions.append([layout.buffer_address(i) for i in range(layout.buffer_blocks)])
        regions.append([layout.lock_address(i) for i in range(8)])
        regions.append([layout.protected_address(i, j) for i in range(8) for j in range(layout.protected_blocks_per_lock)])
        regions.append([layout.kernel_shared_address(i) for i in range(layout.kernel_shared_blocks)])
        for region in regions:
            for address in region:
                block = mapper.block_of(address)
                assert block not in blocks, f"address {address:#x} collides"
                blocks.add(block)

    def test_highest_allowed_pid_stays_disjoint(self):
        layout = AddressSpaceLayout()
        mapper = BlockMapper()
        top = MAX_PROCESSES - 1
        per_process = {
            "code": [layout.instr_address(top, w) for w in range(0, 2048, 4)],
            "private": [layout.private_address(top, i) for i in range(layout.private_blocks)],
            "kernel-private": [
                layout.kernel_private_address(top, i)
                for i in range(layout.kernel_private_blocks)
            ],
        }
        others = {
            "code 0": [layout.instr_address(0, w) for w in range(0, 2048, 4)],
            "private 0": [layout.private_address(0, i) for i in range(layout.private_blocks)],
            "kernel-private 0": [
                layout.kernel_private_address(0, i)
                for i in range(layout.kernel_private_blocks)
            ],
            "shared": [layout.shared_read_address(i) for i in range(layout.shared_read_blocks)],
            "migratory": [layout.migratory_address(i) for i in range(layout.migratory_blocks)],
            "buffers": [layout.buffer_address(i) for i in range(layout.buffer_blocks)],
            "locks": [layout.lock_address(i) for i in range(8)],
            "protected": [
                layout.protected_address(i, j)
                for i in range(8)
                for j in range(layout.protected_blocks_per_lock)
            ],
            "kernel-text": [layout.kernel_text_address(w) for w in range(0, 4096, 4)],
            "kernel-shared": [
                layout.kernel_shared_address(i) for i in range(layout.kernel_shared_blocks)
            ],
        }
        regions = {**{f"{name} {top}": v for name, v in per_process.items()}, **others}
        owner = {}
        for name, addresses in regions.items():
            for block in {mapper.block_of(address) for address in addresses}:
                assert block not in owner, f"{name} overlaps {owner.get(block)}"
                owner[block] = name
        assert max(map(max, regions.values())) < 1 << 32
        with pytest.raises(ValueError):
            layout.instr_address(MAX_PROCESSES, 0)

    def test_old_alias_point_is_out_of_range(self):
        # With a 1 MB per-process stride, pid 496's code would start at
        # process 0's private data.
        layout = AddressSpaceLayout()
        assert MAX_PROCESSES == 496
        assert layout.instr_address(0, 0) + MAX_PROCESSES * 0x10_0000 == (
            layout.private_address(0, 0)
        )

    def test_indices_wrap_around(self):
        layout = AddressSpaceLayout()
        assert layout.private_address(0, 0) == layout.private_address(
            0, layout.private_blocks
        )
        assert layout.shared_read_address(0) == layout.shared_read_address(
            layout.shared_read_blocks
        )

    def test_instr_addresses_differ_per_process(self):
        layout = AddressSpaceLayout()
        assert layout.instr_address(0, 0) != layout.instr_address(1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AddressSpaceLayout(private_blocks=0)
        layout = AddressSpaceLayout()
        with pytest.raises(ValueError):
            layout.lock_address(-1)


class TestLocks:
    def test_acquire_release_cycle(self):
        table = LockTable(2, AddressSpaceLayout())
        lock = table[0]
        assert not lock.held
        lock.acquire(3)
        assert lock.held and lock.holder == 3
        assert table.held_by(3) == [lock]
        lock.release(3)
        assert not lock.held

    def test_double_acquire_rejected(self):
        lock = Lock(index=0, address=0x7000_0000)
        lock.acquire(1)
        with pytest.raises(ValueError):
            lock.acquire(2)

    def test_release_by_non_holder_rejected(self):
        lock = Lock(index=0, address=0x7000_0000)
        lock.acquire(1)
        with pytest.raises(ValueError):
            lock.release(2)

    def test_waiters_cleared_on_acquire(self):
        lock = Lock(index=0, address=0x7000_0000)
        lock.waiters.add(5)
        lock.acquire(5)
        assert 5 not in lock.waiters


class TestPatterns:
    def test_locality_picker_bounds(self):
        import random

        picker = LocalityPicker(32, hot_fraction=0.25, p_hot=0.9)
        rng = random.Random(1)
        picks = [picker.pick(rng) for _ in range(1000)]
        assert all(0 <= pick < 32 for pick in picks)
        hot = sum(1 for pick in picks if pick < 8)
        assert hot > 800  # ~92.5% expected in the hot set

    def test_locality_picker_validation(self):
        with pytest.raises(ValueError):
            LocalityPicker(0)
        with pytest.raises(ValueError):
            LocalityPicker(8, hot_fraction=0.0)
        with pytest.raises(ValueError):
            LocalityPicker(8, p_hot=1.5)

    def test_buffer_producer_assignment(self):
        buffers = ProducerConsumerBuffers(4, 8, 4)
        assert buffers.producer_of(0) == 0
        assert buffers.producer_of(3) == 3
        assert buffers.buffers_produced_by(1) == [1]
        assert buffers.block_index(2, 3) == 19
        assert buffers.block_index(2, 11) == 19  # slot wraps


class TestWorkloadConfig:
    def test_defaults_validate(self):
        WorkloadConfig()

    def test_action_mass_bounded(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(p_shared_read=0.9, p_buffer=0.2)

    def test_lock_attempts_require_locks(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(p_lock_attempt=0.1, num_locks=0)

    def test_process_count_limited_by_the_layout(self):
        trace = SyntheticWorkload(
            WorkloadConfig(num_processes=MAX_PROCESSES, length=50_000)
        ).build()
        assert trace.pids[-1] == MAX_PROCESSES - 1
        with pytest.raises(ConfigurationError, match="address regions overlap"):
            WorkloadConfig(num_processes=MAX_PROCESSES + 1)

    def test_scaled_to(self):
        config = WorkloadConfig(length=1000).scaled_to(5000)
        assert config.length == 5000

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(instr_fraction=1.0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(spin_reads_per_step=0)


class TestGeneration:
    def test_trace_has_requested_length(self):
        trace = SyntheticWorkload(WorkloadConfig(length=5000)).build()
        assert len(trace) == 5000

    def test_deterministic_for_same_seed(self):
        config = WorkloadConfig(length=3000, seed=7)
        a = SyntheticWorkload(config).build()
        b = SyntheticWorkload(config).build()
        assert a.records == b.records

    def test_different_seeds_differ(self):
        a = SyntheticWorkload(WorkloadConfig(length=3000, seed=1)).build()
        b = SyntheticWorkload(WorkloadConfig(length=3000, seed=2)).build()
        assert a.records != b.records

    def test_process_count_respected(self):
        trace = SyntheticWorkload(WorkloadConfig(length=4000, num_processes=3)).build()
        assert trace.pids == [0, 1, 2]

    def test_spin_reads_only_from_lock_region(self):
        layout = AddressSpaceLayout()
        mapper = BlockMapper()
        trace = SyntheticWorkload(WorkloadConfig(length=20_000)).build()
        lock_blocks = {mapper.block_of(layout.lock_address(i)) for i in range(8)}
        for record in trace:
            if record.spin:
                assert mapper.block_of(record.address) in lock_blocks

    def test_instr_fraction_near_target(self):
        trace = SyntheticWorkload(WorkloadConfig(length=40_000, instr_fraction=0.45)).build()
        stats = compute_statistics(trace.records, "t")
        assert abs(stats.instr_fraction - 0.45) < 0.05


class TestRegistry:
    def test_available_workloads(self):
        assert available_workloads() == ["pero", "pops", "thor"]

    def test_unknown_workload(self):
        with pytest.raises(UnknownSchemeError):
            make_trace("spec2006")
        with pytest.raises(UnknownSchemeError):
            workload_config("linpack")

    def test_make_trace_length(self):
        trace = make_trace("pero", length=2000)
        assert len(trace) == 2000 and trace.name == "pero"

    def test_standard_traces_cached(self):
        first = standard_traces(5000)
        second = standard_traces(5000)
        assert [t.name for t in first] == ["pops", "thor", "pero"]
        assert first[0] is second[0]  # cache hit

    def test_config_knobs_forwarded(self):
        config = workload_config("pops", length=1234, seed=99)
        assert config.length == 1234 and config.seed == 99


class TestMigration:
    def test_migration_changes_cpu_assignments(self):
        config = WorkloadConfig(
            length=20_000, p_migrate=1.0, migration_interval=1_000, seed=5
        )
        trace = SyntheticWorkload(config).build()
        # Some pid must appear on more than one cpu.
        cpus_per_pid = {}
        for record in trace:
            cpus_per_pid.setdefault(record.pid, set()).add(record.cpu)
        assert any(len(cpus) > 1 for cpus in cpus_per_pid.values())

    def test_no_migration_keeps_assignments(self):
        config = WorkloadConfig(length=10_000, p_migrate=0.0, seed=5)
        trace = SyntheticWorkload(config).build()
        cpus_per_pid = {}
        for record in trace:
            cpus_per_pid.setdefault(record.pid, set()).add(record.cpu)
        assert all(len(cpus) == 1 for cpus in cpus_per_pid.values())

    def test_migration_only_affects_processor_sharing_view(self):
        from repro.core.simulator import simulate

        config = WorkloadConfig(
            length=20_000, p_migrate=1.0, migration_interval=1_000, seed=5
        )
        trace = SyntheticWorkload(config).build()
        by_pid = simulate(trace, "dir0b", sharer_key="pid")
        by_cpu = simulate(trace, "dir0b", sharer_key="cpu")
        from repro.cost.bus import PAPER_PIPELINED

        # Migration-induced sharing can only add coherence traffic.
        assert by_cpu.bus_cycles_per_reference(
            PAPER_PIPELINED
        ) >= by_pid.bus_cycles_per_reference(PAPER_PIPELINED)
