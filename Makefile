# Convenience targets for the MROM/HADAS reproduction.
#
# Every target imports `repro` from src/, so a fresh checkout needs no
# `make install` first. A caller's PYTHONPATH is kept after src.
#
# A single test suite is one marker away: `pytest -m <marker> tests/`
# with a marker from pyproject.toml (chaos, analysis, telemetry,
# fastpath, load, recovery, cluster, compile, fuzz).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test bench-smoke chaos lint load-smoke recover-smoke cluster-smoke bench bench-e2e bench-compare bench-pairs seeded-outputs examples series check all trace-smoke analyze sanitize-smoke

install:
	$(PYTHON) setup.py develop || pip install -e .

# `make test` runs everything, chaos tests included; `make chaos` runs
# only the seeded fault-injection suite (marker: chaos).
test:
	$(PYTHON) -m pytest tests/

chaos:
	$(PYTHON) -m pytest -m chaos tests/

# End-to-end smoke: every BENCHMARK.json workload at 1% size with its
# correctness gate, and every tracer PATCHES row installed. `tests/`
# does not run it, so a rename of a patched name fails only here.
bench-smoke:
	$(PYTHON) -m pytest -q benchmarks/e2e/test_smoke.py

# Static analysis: lint the MPL corpus (standalone .mpl files and MPL
# programs embedded in python hosts) with warnings promoted to errors.
lint:
	$(PYTHON) -m repro lint examples/ src/repro/apps/ --strict

# Interprocedural analysis: races, wait cycles, migration safety — over
# the examples and the apps tier, gated against the committed baseline
# (only findings the baseline has never seen fail the build).
analyze:
	$(PYTHON) -m repro analyze examples/ src/repro/apps/ --strict --baseline ANALYZE_BASELINE.json

# Differential acceptance: a sanitizer-instrumented soak must observe at
# least one dynamic race, and every observed race/cycle must match a
# static diagnostic from the same effect summaries.
sanitize-smoke:
	$(PYTHON) -m repro analyze --sanitize-smoke

# Telemetry acceptance: run the traced scenario, validate the JSON-lines
# export against the span schema and the cross-wire trace invariants.
trace-smoke:
	$(PYTHON) -m repro trace --smoke

# The paper's figure and PERF-1..8 series (EXPERIMENTS.md); each writes
# its table under benchmarks/out/.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Load acceptance: the sustain + overload pair (>= 10k requests through
# >= 4 sites, zero unresolved, >= 500 ok-ops/s simulated, p99 <= 50 ms;
# constrained window sheds structured OverloadErrors while non-shed
# requests all complete).
load-smoke:
	$(PYTHON) -m repro load --smoke

# Durability acceptance: the crash-and-restart soak (>= 3 whole-site
# kill/restart cycles under fault injection; closed-form accounting and
# exactly-once ownership must hold across them, and no recovery may
# take over 1 s).
recover-smoke:
	$(PYTHON) -m repro recover --selftest

# Cluster acceptance: the sustain + soak pair over the sharded
# directory (closed-form accounting, single-owner, convergence; under
# faults the only admissible terminal failure is a typed StaleLeaseError).
cluster-smoke:
	$(PYTHON) -m repro cluster --smoke

# The end-to-end benchmark (BENCHMARK.json): every workload for seeds
# SEED .. SEED+N-1, one report file per run under OUT.
N ?= 10
SEED ?= 1
OUT ?= .bench/e2e
bench-e2e:
	$(PYTHON) -m benchmarks.e2e run --seconds 15 --seed $(SEED) --repeat $(N) --out-dir $(OUT)

# Judge result set B against result set A (directories of report
# files written by bench-e2e): medians, spreads, better/worse verdicts.
bench-compare:
	$(PYTHON) -m benchmarks.e2e compare $(A) $(B)

# Alternating A/B pairs against a base ref: BASE is exported with `git
# archive` under .bench/, and for each seed SEED .. SEED+N-1 the
# BENCHMARK.json command measures every workload in WORKLOAD on the base
# and on the working tree, base first on odd seeds and second on even
# ones. The two sets are judged with one `compare` at the end, e.g.
# `make bench-pairs BASE=HEAD~1 WORKLOAD="migrate_sim cluster_sim" N=5 SEED=1`.
WORKLOAD ?= rmi_sim
PAIRS := .bench/pairs
bench-pairs:
	@test -n "$(BASE)" || { echo 'usage: make bench-pairs BASE=<ref> [WORKLOAD="name ..." N=n SEED=s]'; exit 2; }
	rm -rf $(PAIRS)
	mkdir -p $(PAIRS)/tree
	git archive $(BASE) | tar -x -C $(PAIRS)/tree
	for seed in $$(seq $(SEED) $$(($(SEED) + $(N) - 1))); do \
		if [ $$((seed % 2)) -eq 1 ]; then sides="base head"; else sides="head base"; fi; \
		for workload in $(WORKLOAD); do \
			for side in $$sides; do \
				if [ $$side = base ]; then tree=$(PAIRS)/tree; else tree=.; fi; \
				(cd $$tree && $(PYTHON) benchmarks/e2e/run.py run --workload $$workload \
					--seed $$seed --seconds 15 --trace 0 --out-dir $(CURDIR)/$(PAIRS)/$$side) || exit 1; \
			done; \
		done; \
	done
	rm -rf $(PAIRS)/tree
	$(PYTHON) -m benchmarks.e2e compare $(PAIRS)/base $(PAIRS)/head

# Every pinned seeded output, one file each under OUT (default
# .bench/seeded): the chaos/load/cluster reports, their load and cluster
# soak variants, the recover selftest, the sanitize smoke, the corpus
# analyzer's JSON report (all seed 1;
# tests/integration/test_seeded_reports.py) and the telemetry capture
# (traced scenario seeds 0 and 1 plus a traced soak, wall-clock fields
# dropped; tests/telemetry/test_capture_golden.py). Both tests compare
# against tests/golden/seeded/; after a deliberate change, re-record
# with `make seeded-outputs OUT=tests/golden/seeded`.
seeded-outputs: OUT = .bench/seeded
seeded-outputs:
	mkdir -p $(OUT)
	for cmd in chaos load cluster; do \
		$(PYTHON) -m repro $$cmd --seed 1 > $(OUT)/$$cmd.txt || exit 1; \
	done
	$(PYTHON) -m repro load --soak --seed 1 > $(OUT)/load-soak.txt
	$(PYTHON) -m repro cluster --soak --seed 1 > $(OUT)/cluster-soak.txt
	$(PYTHON) -m repro recover --selftest --seed 1 > $(OUT)/recover-selftest.txt
	$(PYTHON) -m repro analyze --sanitize-smoke --seed 1 > $(OUT)/sanitize-smoke.txt
	$(PYTHON) -m repro analyze examples/ src/repro/apps/ --json --seed 1 > $(OUT)/analyze.txt
	$(PYTHON) tests/telemetry/capture.py > $(OUT)/telemetry-capture.txt

series: bench
	@echo; for f in benchmarks/out/*.txt; do echo "--- $$f"; cat $$f; echo; done

examples:
	@for ex in examples/*.py; do echo "=== $$ex ==="; $(PYTHON) $$ex || exit 1; echo; done

check: test bench-smoke lint analyze sanitize-smoke trace-smoke load-smoke recover-smoke cluster-smoke bench

all: install check examples
