# Convenience targets for the reproduction. Everything is plain pytest
# underneath; see README.md.

.PHONY: install lint test bench bigtrace verify fuzz chaos docs report ci all

install:
	pip install -e . --no-build-isolation

# Correctness lint (config in pyproject.toml; requires `pip install ruff`).
lint:
	ruff check .

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Bounded-memory acceptance for the chunked trace store: a ~650 MB
# .ctrc simulated serial/pooled/resumed under a 64 MB RSS ceiling with
# bit-identical digests (docs/TRACESTORE.md).
bigtrace:
	PYTHONPATH=src python tools/bigtrace_smoke.py

# Exhaustive single-block model checking of every protocol.
verify:
	PYTHONPATH=src python -m repro verify

# Seeded conformance fuzz campaign + golden corpus replay + mutation
# testing (docs/VERIFICATION.md). Deterministic for a fixed seed.
fuzz:
	PYTHONPATH=src python -m repro verify --fuzz 100 --seed 1 --jobs 4
	PYTHONPATH=src python -m repro verify --corpus tests/corpus --mutation

# Durable-fleet crash-recovery drill: SIGKILL a real worker mid-cell,
# assert bit-identical recovery (docs/SERVICE.md "Durable fleet").
chaos:
	PYTHONPATH=src python -m repro chaos --workers 3 --seed 0

# Every coherence scheme, for the checkpointed and pooled roster steps of ci.
ROSTER = adaptive berkeley coarse-vector dir0b dir1nb dirib dirinb dirnnb dragon illinois write-once wti yenfu

# Finite geometries the checkpointed sweep of ci adds to the roster.
FINITE_CHECKS = dragon@256x2 adaptive@256x2 dir0b@1024x4

# What CI runs (.github/workflows/ci.yml): the tier-1 suite (failing on
# a leaked shared-memory segment: the resource tracker's warning, which
# pytest's default fd capture would swallow, or a new /dev/shm name), the
# end-to-end benchmark's smoke tests, a streamed .ctrc generation
# re-hashed against its stored fingerprint (4096-record chunks split
# scheduling rounds), the streaming example end to end (its windowed
# checkpoint run must match the streamed run), a checkpointed sweep of
# every scheme plus three finite geometries that must print the plain
# sweep's table, as must the same sweep over a text copy of the trace
# and over the binary file packed to .ctrc, a roster sweep of all 13 schemes pooled (--jobs 2, narrow columns through shared memory) that
# must print the serial sweep's table, exhaustive protocol
# verification, and the
# conformance fuzz with mutation testing on infinite caches and on the
# finite-parity job's evicting 4x2 geometry (fuzz cells re-run on the
# fast path, so the transition tables see adversarial traces in both
# cache models), and a regenerated RESULTS.md and docs/PROTOCOLS.md
# that must equal the committed ones, without needing an install.
ci:
	PYTHONPATH=src python tools/check_shm_leaks.py python -m pytest -x -q --capture=sys
	PYTHONPATH=src python -m pytest benchmarks/e2e -q
	mkdir -p build
	PYTHONPATH=src python -m repro trace gen thor build/ci-thor.ctrc --length 50000 --chunk-records 4096
	PYTHONPATH=src python -m repro trace info build/ci-thor.ctrc --verify
	PYTHONPATH=src python examples/stream_billion.py 20000
	PYTHONPATH=src python -m repro generate pops build/ci-pops.bin --length 50000 --format binary
	PYTHONPATH=src python -m repro run --trace-files build/ci-pops.bin --schemes $(ROSTER) $(FINITE_CHECKS) > build/ci-plain.txt
	rm -rf build/ci-ckpt
	PYTHONPATH=src python -m repro run --trace-files build/ci-pops.bin --schemes $(ROSTER) $(FINITE_CHECKS) --checkpoint build/ci-ckpt --checkpoint-every 7000 > build/ci-ckpt.txt
	cmp build/ci-plain.txt build/ci-ckpt.txt
	PYTHONPATH=src python -m repro generate pops build/ci-pops.trace --length 50000
	PYTHONPATH=src python -m repro trace pack build/ci-pops.bin build/ci-pops.ctrc
	PYTHONPATH=src python -m repro run --trace-files build/ci-pops.trace --schemes $(ROSTER) $(FINITE_CHECKS) > build/ci-text.txt
	PYTHONPATH=src python -m repro run --trace-files build/ci-pops.ctrc --schemes $(ROSTER) $(FINITE_CHECKS) > build/ci-ctrc.txt
	cmp build/ci-plain.txt build/ci-text.txt
	cmp build/ci-plain.txt build/ci-ctrc.txt
	PYTHONPATH=src python -m repro run --workloads pops thor --length 50000 --schemes $(ROSTER) --jobs 1 > build/ci-roster-serial.txt
	PYTHONPATH=src python -m repro run --workloads pops thor --length 50000 --schemes $(ROSTER) --jobs 2 > build/ci-roster-pooled.txt
	cmp build/ci-roster-serial.txt build/ci-roster-pooled.txt
	PYTHONPATH=src python -m repro verify
	PYTHONPATH=src python -m repro verify --corpus tests/corpus
	PYTHONPATH=src python -m repro verify --fuzz 25 --seed 1 --mutation
	PYTHONPATH=src python -m repro verify --fuzz 15 --seed 2 --finite-geometry 4x2 --mutation
	$(MAKE) report
	git diff --exit-code RESULTS.md
	$(MAKE) docs
	git diff --exit-code docs/PROTOCOLS.md

# Regenerate the machine-derived protocol reference.
docs:
	PYTHONPATH=src python tools/gen_protocol_docs.py

# Regenerate the committed full-length evaluation report.
report:
	PYTHONPATH=src python -m repro report RESULTS.md --length 200000

all: install test bench verify docs report
