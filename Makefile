# AN2 reproduction -- convenience targets.

PYTHON ?= python

.PHONY: install test bench bench-speed speed-smoke e2e-smoke reach examples all clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

# The reproduction record: every experiment bench (E1-E14, A1-A6)
# asserts its paper claim; exit non-zero when one no longer holds.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Wall-clock regression gate: fails if any frozen speed workload runs
# >25% slower than the committed BENCH_speed.json baseline, or if the
# baseline is missing.
bench-speed:
	$(PYTHON) tools/run_speed_bench.py --compare BENCH_speed.json --tolerance 25

# The CI smoke subset: quick workloads only, wider tolerance.
speed-smoke:
	$(PYTHON) tools/run_speed_bench.py --compare BENCH_speed.json --quick --tolerance 60 --repeats 2

# End-to-end benchmark smoke (BENCHMARK.json, benchmarks/e2e): every
# whole-Network workload at 1/10 duration, one round, traced pass
# included (< 60 s).  Exits non-zero when a correctness gate or a
# whole-Network run breaks; timings are not compared.
e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke

# Reachability gate: runs the claim-producing slice (benches, e2e smoke,
# examples, chaos scenarios + trace reports, conformance) under a
# profile hook; fails when a function in src/repro that no run reaches
# is missing from tools/reach_allowlist.txt, or an entry is stale.
reach:
	$(PYTHON) tools/reach.py

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

all: test bench examples

clean:
	find . -type d -name __pycache__ -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .benchmarks build *.egg-info
