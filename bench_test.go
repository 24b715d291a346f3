// Benchmarks regenerating the paper's evaluation (§6-7). Each benchmark
// corresponds to a row of Table 2, a claim of §7.1/§7.3, the BER scenario
// of §1.1, or an ablation of a §4.2-4.3 design choice; DESIGN.md maps
// experiment ids to benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// The interesting outputs are the custom metrics (violations/M,
// races/M, staticFP, ns/instr, rollbacks, ...), not the wall-clock time of
// the benchmark loop itself.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ber"
	"repro/internal/frd"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/svd"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// benchSample runs one workload sample under both detectors and reports
// Table 2's per-row metrics.
func benchSample(b *testing.B, w *workloads.Workload) {
	b.Helper()
	var last *report.Sample
	for i := 0; i < b.N; i++ {
		s, err := report.Run(w, uint64(i), report.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	m := float64(last.Instructions) / 1e6
	b.ReportMetric(m, "Minstrs")
	b.ReportMetric(float64(last.SVD.DynamicFalse)/m, "svd-dFP/M")
	b.ReportMetric(float64(last.FRD.DynamicFalse)/m, "frd-dFP/M")
	b.ReportMetric(float64(len(last.SVD.FalseSites)), "svd-sFP")
	b.ReportMetric(float64(len(last.FRD.FalseSites)), "frd-sFP")
	b.ReportMetric(float64(last.LogEntries), "aposteriori")
	b.ReportMetric(float64(last.CUs)/m, "CUs/M")
	b.ReportMetric(b2f(last.SVD.FoundBug || last.LogFoundBug), "svd-found-bug")
	b.ReportMetric(b2f(last.FRD.FoundBug), "frd-found-bug")
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// --- Table 2, rows 1-2: Apache (erroneous and bug-free executions) ---

func BenchmarkTable2ApacheBuggy(b *testing.B) {
	benchSample(b, workloads.ApacheLog(workloads.ApacheConfig{
		Threads: 4, Requests: 128, Buggy: true, Seed: 1,
	}))
}

func BenchmarkTable2ApacheFixed(b *testing.B) {
	benchSample(b, workloads.ApacheLog(workloads.ApacheConfig{
		Threads: 4, Requests: 128, Buggy: false, Seed: 1,
	}))
}

// --- Table 2, rows 3-4: MySQL (the prepared-query bug; benign races) ---

func BenchmarkTable2MySQLPreparedBuggy(b *testing.B) {
	benchSample(b, workloads.MySQLPrepared(workloads.MySQLPreparedConfig{
		Threads: 4, Queries: 96, Buggy: true, Seed: 1,
	}))
}

func BenchmarkTable2MySQLTables(b *testing.B) {
	benchSample(b, workloads.MySQLTables(workloads.MySQLTablesConfig{
		Lockers: 3, Ops: 160,
	}))
}

// --- Table 2, row 5: PgSQL (race-free; the SVD/FRD inversion) ---

func BenchmarkTable2PgSQL(b *testing.B) {
	benchSample(b, workloads.PgSQLOLTP(workloads.PgSQLConfig{
		Warehouses: 4, Terminals: 4, Txns: 256, Seed: 1,
	}))
}

// --- §7.3 overhead: the detectors' slowdown over bare execution ---

func benchOverhead(b *testing.B, attach func(w *workloads.Workload, m *vm.VM)) {
	w := workloads.ApacheLog(workloads.ApacheConfig{Threads: 4, Requests: 64, Seed: 1})
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := w.NewVM(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if attach != nil {
			attach(w, m)
		}
		n, err := m.Run(1 << 26)
		if err != nil {
			b.Fatal(err)
		}
		instrs += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

func BenchmarkOverheadBare(b *testing.B) { benchOverhead(b, nil) }

func BenchmarkOverheadSVD(b *testing.B) {
	benchOverhead(b, func(w *workloads.Workload, m *vm.VM) {
		m.AttachColumns(svd.New(w.Prog, w.NumThreads, svd.Options{}))
	})
}

func BenchmarkOverheadFRD(b *testing.B) {
	benchOverhead(b, func(w *workloads.Workload, m *vm.VM) {
		m.AttachColumns(frd.New(w.Prog, w.NumThreads, frd.Options{}))
	})
}

// --- §7.3 scaling: execution length vs static and dynamic FPs ---

func BenchmarkScalingLength(b *testing.B) {
	for _, factor := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("factor-%d", factor), func(b *testing.B) {
			var pt report.ScalingPoint
			for i := 0; i < b.N; i++ {
				pts, err := report.ScalingSweep([]int{factor}, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				pt = pts[len(pts)-1] // the pgsql point
			}
			b.ReportMetric(pt.MInsts, "Minstrs")
			b.ReportMetric(float64(pt.StaticFP), "staticFP")
			b.ReportMetric(float64(pt.DynFP), "dynFP")
		})
	}
}

// --- Ablations of the §4.2-4.3 design choices ---

// ablationRun runs the PgSQL and buggy-Apache workloads under the given
// SVD options, reporting false positives (pgsql) and bug detection
// (apache).
func ablationRun(b *testing.B, opts svd.Options) {
	b.Helper()
	var fp, fpInsts, detect, truePos, trueSites uint64
	for i := 0; i < b.N; i++ {
		pg := workloads.PgSQLOLTP(workloads.PgSQLConfig{Warehouses: 4, Terminals: 4, Txns: 192, Seed: uint64(i)})
		s, err := report.Run(pg, uint64(i), report.Options{SVD: opts})
		if err != nil {
			b.Fatal(err)
		}
		fp += s.SVD.DynamicFalse
		fpInsts += s.Instructions

		ap := workloads.ApacheLog(workloads.ApacheConfig{Threads: 4, Requests: 64, Buggy: true, Seed: uint64(i)})
		s, err = report.Run(ap, uint64(i), report.Options{SVD: opts})
		if err != nil {
			b.Fatal(err)
		}
		if s.Erroneous && (s.SVD.FoundBug || s.LogFoundBug) {
			detect++
		}
		truePos += s.SVD.DynamicTrue
		trueSites += uint64(len(s.SVD.TrueSites))
	}
	n := float64(b.N)
	b.ReportMetric(float64(fp)/(float64(fpInsts)/1e6), "pgsql-dFP/M")
	b.ReportMetric(float64(detect)/n, "apache-detect-rate")
	b.ReportMetric(float64(truePos)/n, "apache-dTP")
	b.ReportMetric(float64(trueSites)/n, "apache-true-sites")
}

// BenchmarkAblationBaseline is the paper's published configuration.
func BenchmarkAblationBaseline(b *testing.B) { ablationRun(b, svd.Options{}) }

// BenchmarkAblationCheckAllBlocks widens the strict-2PL check from input
// blocks to whole CU footprints (§4.3 argues input-only reduces FPs).
func BenchmarkAblationCheckAllBlocks(b *testing.B) {
	ablationRun(b, svd.Options{CheckAllBlocks: true})
}

// BenchmarkAblationNoAddressDeps drops address dependences (§4.3's
// vector/pointer handling).
func BenchmarkAblationNoAddressDeps(b *testing.B) {
	ablationRun(b, svd.Options{NoAddressDeps: true})
}

// BenchmarkAblationNoControlDeps drops the Skipper control stack (§4.2).
func BenchmarkAblationNoControlDeps(b *testing.B) {
	ablationRun(b, svd.Options{NoControlDeps: true})
}

// BenchmarkAblationBlockSize evaluates larger detection blocks (§6.2 used
// word-size blocks to avoid false sharing).
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, shift := range []uint{0, 2, 4} {
		b.Run(fmt.Sprintf("words-%d", 1<<shift), func(b *testing.B) {
			ablationRun(b, svd.Options{BlockShift: shift})
		})
	}
}

// --- §1.1 BER: rollback cost vs checkpoint interval ---

func BenchmarkBERInterval(b *testing.B) {
	for _, interval := range []uint64{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("interval-%d", interval), func(b *testing.B) {
			w := workloads.ApacheLog(workloads.ApacheConfig{Threads: 4, Requests: 48, Buggy: true, Seed: 1})
			var rollbacks, wasted, total uint64
			avoided := 0
			for i := 0; i < b.N; i++ {
				m, err := w.NewVM(uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				det := svd.New(w.Prog, w.NumThreads, svd.Options{})
				m.Attach(det)
				st, err := ber.Run(m, det, ber.Config{CheckpointInterval: interval})
				if err != nil {
					b.Fatal(err)
				}
				if bad, _ := w.Check(m); !bad {
					avoided++
				}
				rollbacks += uint64(st.Rollbacks)
				wasted += st.WastedInstructions
				total += st.TotalInstructions
			}
			b.ReportMetric(float64(rollbacks)/float64(b.N), "rollbacks")
			b.ReportMetric(float64(wasted)/float64(total)*100, "wasted-%")
			b.ReportMetric(float64(avoided)/float64(b.N), "avoid-rate")
		})
	}
}

// --- Substrate microbenchmarks: VM and detector throughput ---

func BenchmarkVMThroughput(b *testing.B) {
	w := workloads.PgSQLOLTP(workloads.PgSQLConfig{Warehouses: 4, Terminals: 4, Txns: 64, Seed: 1})
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m, err := w.NewVM(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		n, err := m.Run(1 << 26)
		if err != nil {
			b.Fatal(err)
		}
		instrs += n
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkDetectorStep(b *testing.B) {
	// Raw per-event detector cost on a synthetic event stream.
	w := workloads.MySQLTables(workloads.MySQLTablesConfig{Lockers: 3, Ops: 40})
	det := svd.New(w.Prog, w.NumThreads, svd.Options{})
	m, err := w.NewVM(1)
	if err != nil {
		b.Fatal(err)
	}
	var evs []vm.Event
	m.Attach(vm.ObserverFunc(func(ev *vm.Event) { evs = append(evs, *ev) }))
	if _, err := m.Run(1 << 20); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i++ {
		det.Step(&evs[k])
		// Index wrap, not i%len(evs): a 64-bit divide per iteration is
		// ~2ns of harness overhead on the CI host, charged to the
		// detector it is supposed to measure.
		if k++; k == len(evs) {
			k = 0
		}
	}
}

// --- Detector hot path: per-instruction cost and allocation rate ---
//
// The tentpole metrics for the flat block store, CU arena, and parallel
// runner: ns/instr and allocs (via -benchmem) of the detectors' Step loops
// and of whole sample runs.

// recordEvents replays a workload once and captures its event stream.
func recordEvents(b *testing.B, w *workloads.Workload, maxSteps uint64) []vm.Event {
	b.Helper()
	m, err := w.NewVM(1)
	if err != nil {
		b.Fatal(err)
	}
	var evs []vm.Event
	m.Attach(vm.ObserverFunc(func(ev *vm.Event) { evs = append(evs, *ev) }))
	if _, err := m.Run(maxSteps); err != nil {
		b.Fatal(err)
	}
	return evs
}

// BenchmarkHotPathSVDStep measures SVD's cost per observed instruction on
// the PgSQL stream (the largest bug-free Table 2 row).
func BenchmarkHotPathSVDStep(b *testing.B) {
	w := workloads.PgSQLOLTP(workloads.PgSQLConfig{Warehouses: 4, Terminals: 4, Txns: 64, Seed: 1})
	evs := recordEvents(b, w, 1<<22)
	det := svd.New(w.Prog, w.NumThreads, svd.Options{})
	// One untimed pass faults in the block tables and CU arena pages, so
	// the timed region measures the steady-state step the ns/instr claim
	// (and the max_ns ceiling in BENCH_BASELINE.json) is about, even at
	// the guard's fixed op count.
	for i := range evs {
		det.Step(&evs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i++ {
		det.Step(&evs[k])
		// Index wrap, not i%len(evs): a 64-bit divide per iteration is
		// ~2ns of harness overhead on the CI host, charged to the
		// detector it is supposed to measure.
		if k++; k == len(evs) {
			k = 0
		}
	}
	b.StopTimer()
	st := det.Stats()
	if st.CUsCreated > 0 {
		b.ReportMetric(float64(st.CUsReused)/float64(st.CUsCreated), "cu-reuse-rate")
	}
}

// zipfProgram is the tiny fixed program under the synthetic Zipf
// streams: one load site, one store site, so every event is a memory
// access and the measured cost is pure detector hot path.
func zipfProgram() *isa.Program {
	code := []isa.Instr{
		isa.Load(isa.Reg(8), isa.RegZero, 0),
		isa.Store(isa.Reg(8), isa.RegZero, 0),
		isa.Halt(),
	}
	return &isa.Program{Name: "zipf-locality", Code: code}
}

// zipfEvents builds a synthetic stream whose addresses follow a Zipf law
// over a 64Ki-word key space: a handful of hot words hammered in long
// same-thread runs (the best case for the MRU block cache, the fanout
// quiet cache, and sub-run coalescing) against a heavy cold tail that
// misses every locality cache. Each run is 1..16 loads of one address by
// one thread, closed by a store — the read-modify-write shape the
// detectors exist to watch. flags stay opcode-consistent throughout, the
// invariant the wire decoder enforces on served streams.
func zipfEvents(threads, n int, seed int64) []vm.Event {
	prog := zipfProgram()
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<16)
	evs := make([]vm.Event, 0, n)
	var seq uint64
	for len(evs) < n {
		cpu := rng.Intn(threads)
		addr := int64(zipf.Uint64())
		run := 1 + rng.Intn(16)
		for i := 0; i <= run && len(evs) < n; i++ {
			seq++
			ev := vm.Event{Seq: seq, CPU: cpu, Addr: addr}
			if i < run {
				ev.PC, ev.Instr = 0, prog.Code[0]
				ev.IsLoad, ev.Loaded = true, addr+1
			} else {
				ev.PC, ev.Instr = 1, prog.Code[1]
				ev.IsStore, ev.Stored = true, addr+2
			}
			evs = append(evs, ev)
		}
	}
	return evs
}

// BenchmarkHotPathSVDStepZipf measures Step on the synthetic Zipf
// stream: the skew concentrates work on a few contended blocks (deep
// quiet-cache reuse, real fan-out on the stores) while the tail churns
// the 2-entry caches. Together with BenchmarkHotPathSVDStep (the PgSQL
// mix, mostly thread-private) this brackets the locality machinery from
// both ends; the skips/instr metric reports how much fan-out the quiet
// cache retires.
func BenchmarkHotPathSVDStepZipf(b *testing.B) {
	const threads = 8
	evs := zipfEvents(threads, 1<<20, 1)
	// The contended stream reports real violations; cap retention and
	// saturate the cap during warmup so the timed region measures
	// stepping, not record growth (same rationale as the server ingest
	// benchmarks).
	det := svd.New(zipfProgram(), threads, svd.Options{MaxViolations: 256})
	for i := range evs {
		det.Step(&evs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i++ {
		det.Step(&evs[k])
		// Index wrap, not i%len(evs): a 64-bit divide per iteration is
		// ~2ns of harness overhead on the CI host, charged to the
		// detector it is supposed to measure.
		if k++; k == len(evs) {
			k = 0
		}
	}
	b.StopTimer()
	st := det.Stats()
	if st.Instructions > 0 {
		b.ReportMetric(float64(st.RemoteSkipped)/float64(st.Instructions), "skips/instr")
	}
}

// BenchmarkHotPathSVDStepTelemetry measures the same stream with a
// metrics-only recorder attached — the cost of live counters and
// histograms without event tracing. Compare against BenchmarkHotPathSVDStep
// to see the telemetry layer's enabled overhead; the disabled overhead is
// BenchmarkHotPathSVDStep itself (one nil pointer check per hook).
func BenchmarkHotPathSVDStepTelemetry(b *testing.B) {
	w := workloads.PgSQLOLTP(workloads.PgSQLConfig{Warehouses: 4, Terminals: 4, Txns: 64, Seed: 1})
	evs := recordEvents(b, w, 1<<22)
	sink := obs.NewSink(obs.SinkOptions{})
	det := svd.New(w.Prog, w.NumThreads, svd.Options{Recorder: sink.NewRecorder("bench")})
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i++ {
		det.Step(&evs[k])
		// Index wrap, not i%len(evs): a 64-bit divide per iteration is
		// ~2ns of harness overhead on the CI host, charged to the
		// detector it is supposed to measure.
		if k++; k == len(evs) {
			k = 0
		}
	}
	b.StopTimer()
	st := det.Stats()
	if st.CUsCreated > 0 {
		b.ReportMetric(float64(st.CUsReused)/float64(st.CUsCreated), "cu-reuse-rate")
	}
}

// BenchmarkHotPathSVDStepWitness measures the same stream with the
// violation flight recorder on: every load/store also enters the
// per-thread access ring, and each violation folds into its site-pair
// group. Compare against BenchmarkHotPathSVDStep for the recorder's
// enabled cost; disabled the only difference is one nil check per
// access, so the plain benchmark doubles as the disabled baseline.
func BenchmarkHotPathSVDStepWitness(b *testing.B) {
	w := workloads.PgSQLOLTP(workloads.PgSQLConfig{Warehouses: 4, Terminals: 4, Txns: 64, Seed: 1})
	evs := recordEvents(b, w, 1<<22)
	det := svd.New(w.Prog, w.NumThreads, svd.Options{Witness: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i++ {
		det.Step(&evs[k])
		// Index wrap, not i%len(evs): a 64-bit divide per iteration is
		// ~2ns of harness overhead on the CI host, charged to the
		// detector it is supposed to measure.
		if k++; k == len(evs) {
			k = 0
		}
	}
	b.StopTimer()
	st := det.Stats()
	gs := det.WitnessGroups()
	var sum uint64
	for _, g := range gs {
		sum += uint64(g.Count)
	}
	if st.Witnesses != uint64(len(gs)) || sum != st.Violations {
		b.Fatalf("witnesses = %d for %d groups, group counts sum to %d for %d violations",
			st.Witnesses, len(gs), sum, st.Violations)
	}
}

// BenchmarkHotPathFRDStep measures FRD's cost per observed instruction on
// the same stream.
func BenchmarkHotPathFRDStep(b *testing.B) {
	w := workloads.PgSQLOLTP(workloads.PgSQLConfig{Warehouses: 4, Terminals: 4, Txns: 64, Seed: 1})
	evs := recordEvents(b, w, 1<<22)
	det := frd.New(w.Prog, w.NumThreads, frd.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i++ {
		det.Step(&evs[k])
		// Index wrap, not i%len(evs): a 64-bit divide per iteration is
		// ~2ns of harness overhead on the CI host, charged to the
		// detector it is supposed to measure.
		if k++; k == len(evs) {
			k = 0
		}
	}
}

// benchStepThreads measures per-instruction detector cost as the thread
// count grows, with per-thread work held constant. The full fan-out is
// O(threads) per memory instruction; the interest index should keep the
// curve near-flat (thread-private blocks dominate the PgSQL mix).
func benchStepThreads(b *testing.B, step func(w *workloads.Workload, evs []vm.Event, n int)) {
	for _, threads := range []int{4, 8, 16} {
		// benchstat-style key=value naming: a trailing "-N" would be
		// indistinguishable from the GOMAXPROCS suffix for baseline tools.
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			w := workloads.PgSQLOLTP(workloads.PgSQLConfig{
				Warehouses: 4, Terminals: threads, Txns: 12 * threads, Seed: 1,
			})
			evs := recordEvents(b, w, 1<<22)
			b.ReportAllocs()
			b.ResetTimer()
			step(w, evs, b.N)
		})
	}
}

// BenchmarkHotPathSVDStepThreads is the scaling tentpole: sublinear growth
// in NumCPUs. Compare against BenchmarkHotPathSVDStepThreadsNoIndex for
// the fan-out baseline.
func BenchmarkHotPathSVDStepThreads(b *testing.B) {
	benchStepThreads(b, func(w *workloads.Workload, evs []vm.Event, n int) {
		det := svd.New(w.Prog, w.NumThreads, svd.Options{})
		for i, k := 0, 0; i < n; i++ {
			det.Step(&evs[k])
			if k++; k == len(evs) {
				k = 0
			}
		}
	})
}

// BenchmarkHotPathSVDStepThreadsNoIndex is the O(NumCPUs) fan-out the
// index replaces, kept runnable for before/after curves (EXPERIMENTS.md).
func BenchmarkHotPathSVDStepThreadsNoIndex(b *testing.B) {
	benchStepThreads(b, func(w *workloads.Workload, evs []vm.Event, n int) {
		det := svd.New(w.Prog, w.NumThreads, svd.Options{NoInterestIndex: true})
		for i, k := 0, 0; i < n; i++ {
			det.Step(&evs[k])
			if k++; k == len(evs) {
				k = 0
			}
		}
	})
}

// BenchmarkHotPathFRDStepThreads: the same scaling curve for FRD's
// write-time read-epoch scan.
func BenchmarkHotPathFRDStepThreads(b *testing.B) {
	benchStepThreads(b, func(w *workloads.Workload, evs []vm.Event, n int) {
		det := frd.New(w.Prog, w.NumThreads, frd.Options{})
		for i, k := 0, 0; i < n; i++ {
			det.Step(&evs[k])
			if k++; k == len(evs) {
				k = 0
			}
		}
	})
}

// BenchmarkHotPathFRDStepThreadsNoIndex is FRD's full-scan baseline.
func BenchmarkHotPathFRDStepThreadsNoIndex(b *testing.B) {
	benchStepThreads(b, func(w *workloads.Workload, evs []vm.Event, n int) {
		det := frd.New(w.Prog, w.NumThreads, frd.Options{NoInterestIndex: true})
		for i, k := 0, 0; i < n; i++ {
			det.Step(&evs[k])
			if k++; k == len(evs) {
				k = 0
			}
		}
	})
}

// BenchmarkHotPathSVDSample measures a whole SVD-attached sample,
// normalized to ns and allocs per simulated instruction.
func BenchmarkHotPathSVDSample(b *testing.B) {
	w := workloads.PgSQLOLTP(workloads.PgSQLConfig{Warehouses: 4, Terminals: 4, Txns: 64, Seed: 1})
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := w.NewVM(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		det := svd.New(w.Prog, w.NumThreads, svd.Options{})
		m.AttachColumns(det)
		n, err := m.Run(1 << 26)
		if err != nil {
			b.Fatal(err)
		}
		instrs += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkHotPathRunMany measures the parallel sample runner end to end
// (both detectors, classification) in Minstr/s at GOMAXPROCS workers.
func BenchmarkHotPathRunMany(b *testing.B) {
	w := workloads.PgSQLOLTP(workloads.PgSQLConfig{Warehouses: 4, Terminals: 4, Txns: 64, Seed: 1})
	seeds := report.Seeds(1, 4)
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sams, err := report.RunMany(w, seeds, report.Options{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range sams {
			instrs += s.Instructions
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
