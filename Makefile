# Developer entry points. `make check` is the tier-1 gate (build + tests);
# `make race` adds the data-race check on the parallel sample runner,
# the detection service's loopback differential and detector reuse; `make cover` enforces
# the coverage floor; `make bench-smoke` runs each hot-path
# microbenchmark once as a compile-and-run sanity check (use `make
# bench` for real numbers); `make fuzz-smoke` gives the wire decoder's
# and the journal segment scanner's fuzzers a short budget.

GO ?= go
COVER_MIN ?= 70
FUZZ_TIME ?= 30s

.PHONY: all build test race vet check cover bench-smoke bench-smoke-mp bench bench-guard bench-baseline bench-profile hotpath fuzz-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -run 'TestRunMany|TestArenaDifferential|TestInterestDifferential|TestReaderIndexDifferential|TestRunBatchedMatchesUnbatched|TestColumnarDifferential|TestBatchChopping|TestWitness|TestExamineDeterministic|TestRunDeterministic|TestMergeSamplesClones|TestMergeSamplesOrderInsensitive|TestLoopback|TestEngineMatchesInProcess|TestShedPolicy|TestShutdownDrains|TestSnapshotDuringIngest|TestShedVisibleInSnapshot|TestCluster|TestHistory|TestDigest|TestReportMerged|TestReset|TestShardReusesDetectors|TestSprayedStreamNotRetained|TestReusedStoreGauges|TestHostileScaleRefused|TestClearKeepsPagesZeroed|TestWindowMatchesReference|TestVerdictGolden|TestColumnarContradictoryFlags|TestInterestDifferentialRegistry|TestCloneCarriesInterest|TestDecodeBoundsAddresses' ./internal/report/ ./internal/svd/ ./internal/frd/ ./internal/obs/ ./internal/server/ ./internal/cluster/ ./internal/blockstore/ ./internal/wire/

vet:
	$(GO) vet ./...

check: build vet test

# Per-package statement coverage with a repo-wide floor. The floor is a
# ratchet: raise COVER_MIN when coverage grows, never lower it to admit a
# regression.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' || \
	{ echo "coverage $$total% is below the $(COVER_MIN)% floor" >&2; exit 1; }

bench-smoke:
	$(GO) test -run NONE -bench 'BenchmarkHotPath' -benchtime 1x .

# Multi-core smoke: the shard sweep and the columnar ingest hop under
# GOMAXPROCS=4, one iteration each. CI machines are the only multi-core
# hardware this repo reliably sees, so this is where cross-shard
# interleavings (ring handoff, pool recycling under real parallelism)
# get exercised at all — it is a compile-and-run sanity check, not a
# measurement.
bench-smoke-mp:
	GOMAXPROCS=4 $(GO) test -run NONE -bench 'BenchmarkServerIngest|BenchmarkWireDecodeColumns' -benchtime 1x -benchmem .

bench:
	$(GO) test -run NONE -bench 'BenchmarkHotPath|BenchmarkOverhead|BenchmarkDetectorStep' -benchmem .

# Fail if the detectors' hot path regressed beyond tolerance over the
# recorded baseline (BENCH_BASELINE.json): 10% by default, with noisier
# entries (the multi-thread sweeps, the service benchmarks) carrying
# their own per-entry tolerance in the baseline file. Refresh with
# `make bench-baseline` after a deliberate perf change — it preserves
# per-entry tolerances and allocation ceilings. The service benchmarks
# run as separate invocations because their op is a whole execution
# replay, not a single detector step, so they need their own -benchtime.
# Every invocation passes -benchmem: several baseline entries carry an
# allocs/op ceiling (zero for the steady-state ingest hop and the
# detector step benchmarks), and benchguard fails a ceiling it cannot
# check. BenchmarkHotPathSVDStep additionally carries a max_ns ceiling
# in the baseline — the paper-facing 25 ns/instr budget — so a drift
# inside the percentage tolerance still fails once it crosses the
# absolute line.
# 8M ops ≈ two full passes over the 4.2M-event recorded stream: the
# first pass faults in block tables and CU arena pages, the second
# runs warm, so the guarded number reflects the steady state the
# ns/instr claims are about rather than first-touch allocation.
BENCH_GUARD = $(GO) test -run NONE -bench 'BenchmarkHotPath(SVD|FRD)Step(Threads|Witness|Zipf)?$$' -benchtime 8000000x -count 3 -benchmem .
# The served step on the contended path: StepColumns over the forensic
# benchmark's witness-on queue-fixed recordings. One op is a ~510-event
# batch, so it runs as its own invocation: at BENCH_GUARD's op count it
# would take minutes. 20000 batches is about 1.3 passes over the eight
# recorded streams.
BENCH_GUARD_CONTENDED = $(GO) test -run NONE -bench 'BenchmarkHotPathSVDColumnsContended$$' -benchtime 20000x -count 3 -benchmem .
BENCH_GUARD_WIRE = $(GO) test -run NONE -bench 'BenchmarkWire(Encode|DecodeColumns)$$' -benchtime 200x -count 3 -benchmem .
BENCH_GUARD_INGEST = $(GO) test -run NONE -bench 'BenchmarkServerIngest$$' -benchtime 5x -count 3 -benchmem .
# The steady group runs TWICE: Journaled and Telemetry are bounded
# RELATIVE to Steady, the guard compares per-benchmark minima, and with
# -count all repeats of one benchmark run as a single consecutive block
# — so machine-load drift between blocks skews the ratio. Two passes
# give every benchmark samples from two time windows, and min-picking
# pairs each benchmark's quietest window against the others'.
BENCH_GUARD_STEADY = $(GO) test -run NONE -bench 'BenchmarkServerIngest(Steady|Telemetry|Locality|Journaled)$$' -benchtime 50x -count 3 -benchmem .
# One op is a whole short stream (open, replay, close) on a warm engine:
# its allocs/op ceiling guards per-stream setup and teardown garbage.
BENCH_GUARD_STREAM = $(GO) test -run NONE -bench 'BenchmarkServerStream$$' -benchtime 20x -count 3 -benchmem .

# Up to three attempts: benchguard's calibration probe absorbs
# SUSTAINED host slowness (a slow runner scales the absolute and
# relative budgets), but a transient co-tenant burst that lands inside
# one bench window and is gone by probe time is indistinguishable from
# a real regression within a single attempt. A genuine regression fails
# all three attempts; a burst passes on a quieter retry.
bench-guard:
	@for i in 1 2 3; do \
		if { $(BENCH_GUARD); $(BENCH_GUARD_CONTENDED); $(BENCH_GUARD_WIRE); $(BENCH_GUARD_INGEST); $(BENCH_GUARD_STEADY); $(BENCH_GUARD_STEADY); $(BENCH_GUARD_STREAM); } | $(GO) run ./cmd/benchguard -baseline BENCH_BASELINE.json; then \
			exit 0; \
		fi; \
		echo "bench-guard: attempt $$i failed"; \
	done; echo "bench-guard: regression persisted across 3 attempts"; exit 1

bench-baseline:
	{ $(BENCH_GUARD); $(BENCH_GUARD_CONTENDED); $(BENCH_GUARD_WIRE); $(BENCH_GUARD_INGEST); $(BENCH_GUARD_STEADY); $(BENCH_GUARD_STEADY); $(BENCH_GUARD_STREAM); } | $(GO) run ./cmd/benchguard -record -baseline BENCH_BASELINE.json

# CPU profile of the single-thread SVD hot path, at the same op count
# the guard uses. CI runs this next to bench-guard and uploads the
# profile, so a regression the guard catches arrives with the evidence
# needed to read it (`go tool pprof BENCH_cpu.pprof`) instead of a
# reproduce-locally round trip.
bench-profile:
	$(GO) test -run NONE -bench 'BenchmarkHotPathSVDStep$$' -benchtime 2000000x -benchmem -cpuprofile BENCH_cpu.pprof .

# Machine-readable hot-path snapshot (ns/instr, allocs, Minstr/s).
hotpath:
	$(GO) run ./cmd/svdbench -hotpath -scale 2 -json BENCH_hotpath.json

# Short-budget fuzz of the wire decoder and the journal segment scanner:
# untrusted bytes must map to the protocol's error taxonomy (or, for a
# segment, a torn tail), never a panic. The wire seed corpus covers
# truncations, bad magic, version skew, length abuse, the cluster
# frames, and each column-section malformation of the Events payload.
# Every target gets the budget: FuzzDeframeColumns drives the served
# decode path, FuzzDeframe the control-frame reader (the Hello decoder),
# and FuzzJournalSegment the segment scanner, which indexes every
# journal segment on every open and every read.
fuzz-smoke:
	$(GO) test -run NONE -fuzz 'FuzzDeframeColumns$$' -fuzztime $(FUZZ_TIME) ./internal/wire/
	$(GO) test -run NONE -fuzz 'FuzzDeframe$$' -fuzztime $(FUZZ_TIME) ./internal/wire/
	$(GO) test -run NONE -fuzz 'FuzzJournalSegment$$' -fuzztime $(FUZZ_TIME) ./internal/journal/
