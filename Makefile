.PHONY: all build test check check-par check-cache check-coverage check-report bench bench-diff clean

all: build

build:
	dune build

test:
	dune runtest

# Full gate: build (including the bench executable), unit tests, the
# parallel sweep, an adcheck dataflow smoke run on the small corpus
# (exercises generator -> parser -> CFG -> fixpoint -> report), a
# bench-diff self-compare of a freshly exported adcheck-metrics/1
# record (a record that fails to self-compare means the exporter or
# the gate's schema reader regressed), and regression gates of the
# METRICS_5, BENCH_5, BENCH_6 and BENCH_7-shaped records, each run
# three times, against the committed records: work-tier counters must
# match exactly in every run and each latency (attributed-timing sum or
# experiment wall time), taken as its median over the three runs, may
# regress at most 50% (wall time on a shared CI box is noisy; the
# median drops one slow run, the threshold catches step changes, not
# jitter — see `adcheck bench-diff --help` for the floor that also
# ignores sub-millisecond drift).  The
# check-report leg locks the audit report and journal bytes.  The
# paper-figure and extension experiments of bench/main.exe run once
# each; with the overhead, compile and incremental legs below, every
# experiment the harness keeps (and the Taxonomy and Chart code only
# they read) runs in the gate.
check: build test check-par check-cache check-coverage check-report
	dune build bench/main.exe
	dune exec bench/main.exe -- --scale small table1 table2 table3 fig1 \
	  fig2 fig3 fig4 fig5 fig6 fig7 fig8a fig8b observations testgen \
	  traceability > _build/check-experiments.out
	dune exec bin/adcheck.exe -- dataflow --scale small \
	  --metrics _build/check-metrics.json
	dune exec bin/adcheck.exe -- bench-diff \
	  _build/check-metrics.json _build/check-metrics.json
	for i in 1 2 3; do \
	  dune exec bench/main.exe -- --scale small --out _build/check-bench5-$$i.json \
	    --metrics _build/check-metrics5-$$i.json overhead table1 || exit 1; \
	done
	dune exec bin/adcheck.exe -- bench-diff METRICS_5.json \
	  _build/check-metrics5-1.json _build/check-metrics5-2.json \
	  _build/check-metrics5-3.json --fail-on-regress 50
	dune exec bin/adcheck.exe -- bench-diff BENCH_5.json \
	  _build/check-bench5-1.json _build/check-bench5-2.json \
	  _build/check-bench5-3.json --fail-on-regress 50
	for i in 1 2 3; do \
	  dune exec bench/main.exe -- --scale small --jobs 1,4 \
	    --out _build/check-bench6-$$i.json compile || exit 1; \
	done
	dune exec bin/adcheck.exe -- bench-diff BENCH_6.json \
	  _build/check-bench6-1.json _build/check-bench6-2.json \
	  _build/check-bench6-3.json --fail-on-regress 50
	for i in 1 2 3; do \
	  dune exec bench/main.exe -- --scale small \
	    --out _build/check-bench7-$$i.json incremental || exit 1; \
	done
	dune exec bin/adcheck.exe -- bench-diff BENCH_7.json \
	  _build/check-bench7-1.json _build/check-bench7-2.json \
	  _build/check-bench7-3.json --fail-on-regress 50

# Cache differential gate, end-to-end through the CLI: the same audit
# four ways — no cache (the jobs=1 oracle), cold against an empty
# store, then warm from the store the cold run just populated, at
# jobs 1 and at jobs 8 — must produce byte-identical reports and
# adcheck-evidence/1 journals.  The warm runs must also leave the
# store's file listing as the cold run left it: a warm audit writes
# nothing, neither a new path list nor a stray temp file.  The listing
# carries inode numbers, so an artifact rewritten under its old name
# (a new file renamed over it) also shows.
# test_cache_diff locks the same contract in-process (plus incremental
# edits, corrupt stores and QCheck edit sequences); this target locks
# the shipped binary's --cache threading.
check-cache: build
	rm -rf _build/check-cache-store
	dune exec bin/adcheck.exe -- audit --scale small --seed 7 --jobs 1 \
	  --evidence _build/cc-oracle.jsonl > _build/cc-oracle.out
	dune exec bin/adcheck.exe -- audit --scale small --seed 7 --jobs 1 \
	  --cache _build/check-cache-store \
	  --evidence _build/cc-cold.jsonl > _build/cc-cold.out
	ls -i _build/check-cache-store > _build/cc-cold.ls
	dune exec bin/adcheck.exe -- audit --scale small --seed 7 --jobs 1 \
	  --cache _build/check-cache-store \
	  --evidence _build/cc-warm.jsonl > _build/cc-warm.out
	ls -i _build/check-cache-store > _build/cc-warm.ls
	cmp _build/cc-cold.ls _build/cc-warm.ls
	dune exec bin/adcheck.exe -- audit --scale small --seed 7 --jobs 8 \
	  --cache _build/check-cache-store \
	  --evidence _build/cc-warm8.jsonl > _build/cc-warm8.out
	ls -i _build/check-cache-store > _build/cc-warm8.ls
	cmp _build/cc-cold.ls _build/cc-warm8.ls
	cmp _build/cc-oracle.out _build/cc-cold.out
	cmp _build/cc-oracle.out _build/cc-warm.out
	cmp _build/cc-oracle.out _build/cc-warm8.out
	cmp _build/cc-oracle.jsonl _build/cc-cold.jsonl
	cmp _build/cc-oracle.jsonl _build/cc-warm.jsonl
	cmp _build/cc-oracle.jsonl _build/cc-warm8.jsonl

# CLI coverage goldens: `adcheck coverage` for the Figure 5 (yolo) and
# Figure 6 (stencil) subjects, printed output and coverage tables.  The
# goldens were first captured from the tree-walking evaluator that is
# now the test oracle (test/oracle); the CLI runs the bytecode engine,
# the only one it has, and must reproduce them byte for byte.
check-coverage: build
	for s in yolo stencil; do \
	  dune exec bin/adcheck.exe -- coverage --subject $$s \
	    > _build/check-coverage-$$s.out || exit 1; \
	  diff test/golden/coverage-$$s.txt _build/check-coverage-$$s.out || exit 1; \
	done

# Report goldens: the small-profile audit at seeds 7 and 2019 must print
# test/golden/audit-small-{7,2019}.txt byte for byte, and its
# adcheck-evidence/1 journal (about 5.5 MB each, so only a digest is
# committed) must match test/golden/audit-small-evidence.sha256.  The
# paper-scale audit (--scale full) is locked the same way at two seeds,
# so finding ids and journal order are pinned on two paper-scale
# journals: seed 2019 by test/golden/audit-full-2019.txt and
# audit-full-evidence.sha256, seed 7 by audit-full-7.txt and
# audit-full-7-evidence.sha256 (each journal is about 68 MB); the two
# add roughly 15 s.  A change that means to alter the report
# regenerates the goldens and says why.  The context-less path is
# locked too: `adcheck misra --scale small --seed 7` must print
# test/golden/misra-small-7.txt, and its journal's findings must be the
# seed-7 audit journal's findings without the coverage and metric ones
# (both get their rule context from the same producer).
check-report: build
	for s in 7 2019; do \
	  dune exec bin/adcheck.exe -- audit --scale small --seed $$s \
	    --evidence _build/check-report-evidence-$$s.jsonl \
	    > _build/check-report-$$s.out || exit 1; \
	  diff test/golden/audit-small-$$s.txt _build/check-report-$$s.out || exit 1; \
	done
	sha256sum -c test/golden/audit-small-evidence.sha256
	dune exec bin/adcheck.exe -- misra --scale small --seed 7 \
	  --evidence _build/check-report-misra-7.jsonl \
	  > _build/check-report-misra-7.out
	diff test/golden/misra-small-7.txt _build/check-report-misra-7.out
	tail -n +2 _build/check-report-evidence-7.jsonl \
	  | grep -v -E '^\{"id":"[^"]*","kind":"(coverage|metric)"' \
	  > _build/check-report-audit-7.findings
	tail -n +2 _build/check-report-misra-7.jsonl > _build/check-report-misra-7.findings
	cmp _build/check-report-audit-7.findings _build/check-report-misra-7.findings
	dune exec bin/adcheck.exe -- audit --scale full --seed 2019 \
	  --evidence _build/check-report-evidence-full-2019.jsonl \
	  > _build/check-report-full-2019.out
	diff test/golden/audit-full-2019.txt _build/check-report-full-2019.out
	sha256sum -c test/golden/audit-full-evidence.sha256
	dune exec bin/adcheck.exe -- audit --scale full --seed 7 \
	  --evidence _build/check-report-evidence-full-7.jsonl \
	  > _build/check-report-full-7.out
	diff test/golden/audit-full-7.txt _build/check-report-full-7.out
	sha256sum -c test/golden/audit-full-7-evidence.sha256

# Run the whole suite under 1, 2 and 8 worker domains.  ADCHECK_JOBS=1
# is the sequential oracle; any divergence at 2 or 8 is a determinism
# bug in the pool fan-out or the counter merge.  The suite includes the
# coverage differential (test_parallel_determinism): the full scenario
# set replayed in-process at jobs=1/2/4 with byte-identical merged
# collector fingerprints, and the flight-recorder differential
# (test_flight_recorder): the work-tier adcheck-metrics/1 record —
# counters AND attributed-timing histogram buckets — byte-identical at
# jobs=1/2/8 under the tick clock.  Every ADCHECK_JOBS value below
# re-checks both merges.  --force because dune does not track
# environment variables as dependencies.  The CLI legs then run the
# audit with no cache at jobs 2 and 8 — the cold fan-out end to end,
# jobs 2 being the one-worker pool — and with --cache at jobs 1, 2
# and 8; every stdout (and every no-cache evidence journal) must equal
# the jobs-1 no-cache oracle byte for byte.
check-par:
	for j in 1 2 8; do \
	  echo "== dune runtest (ADCHECK_JOBS=$$j) =="; \
	  ADCHECK_JOBS=$$j dune runtest --force || exit 1; \
	done
	rm -rf _build/check-par-store
	dune build bin/adcheck.exe
	dune exec bin/adcheck.exe -- audit --scale small --seed 7 --jobs 1 \
	  --evidence _build/cp-oracle.jsonl > _build/cp-oracle.out
	for j in 2 8; do \
	  echo "== adcheck audit, no cache (jobs=$$j) =="; \
	  dune exec bin/adcheck.exe -- audit --scale small --seed 7 --jobs $$j \
	    --evidence _build/cp-nocache-$$j.jsonl > _build/cp-nocache-$$j.out \
	    || exit 1; \
	  cmp _build/cp-oracle.out _build/cp-nocache-$$j.out || exit 1; \
	  cmp _build/cp-oracle.jsonl _build/cp-nocache-$$j.jsonl || exit 1; \
	done
	for j in 1 2 8; do \
	  echo "== adcheck audit --cache (jobs=$$j) =="; \
	  dune exec bin/adcheck.exe -- audit --scale small --seed 7 --jobs $$j \
	    --cache _build/check-par-store > _build/cp-cache-$$j.out || exit 1; \
	  cmp _build/cp-oracle.out _build/cp-cache-$$j.out || exit 1; \
	done

# Machine-readable performance records: per-experiment wall time plus
# telemetry counter snapshots on the small corpus.
# BENCH_5.json measures the flight recorder itself: the overhead
# experiment runs the audit with the recorder off and on and records
# the wall-time ratio in its gauges; METRICS_5.json is the
# adcheck-metrics/1 record of the same process (counters, attributed
# timing histograms, GC/pool runtime telemetry) — the committed example
# of what `adcheck --metrics` and `adcheck bench-diff` consume.
# BENCH_6.json sweeps the two coverage engines (tree-walking oracle vs
# compiled bytecode) over the full scenario set; the per-engine
# coverage.engine.*.steps counters are the work-tier record (exact
# across the jobs sweep — `make check` gates a fresh run against it)
# and the bench.compile.*_ms gauges hold the wall times.
# BENCH_7.json measures the incremental audit cache: the same audit
# cold (empty store), warm (same tree) and after a one-file edit; the
# cache.{hit,miss,store} counters are the work-tier record and
# the bench.incremental.{cold,warm,edit}_ms / *_misses gauges hold the
# per-pass wall times and recompute counts.  The edit pass must
# recompute measurably fewer artifacts than the cold pass.  `make check`
# gates three fresh runs of each record against the committed one.
bench:
	dune build bench/main.exe
	dune exec bench/main.exe -- --scale small --out BENCH_5.json \
	  --metrics METRICS_5.json overhead table1
	dune exec bench/main.exe -- --scale small --jobs 1,4 --out BENCH_6.json \
	  compile
	dune exec bench/main.exe -- --scale small --out BENCH_7.json \
	  incremental

# Regression gate self-check over the committed records: a record must
# always be identical to itself, for both schemas the gate reads
# (adcheck-bench/1 and adcheck-metrics/1).  Run after `make bench` to
# gate a new record against the committed one, e.g.:
#   dune exec bin/adcheck.exe -- bench-diff OLD.json NEW.json --fail-on-regress 10
bench-diff:
	dune build bin/adcheck.exe
	dune exec bin/adcheck.exe -- bench-diff BENCH_5.json BENCH_5.json
	dune exec bin/adcheck.exe -- bench-diff METRICS_5.json METRICS_5.json

clean:
	dune clean
