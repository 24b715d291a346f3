// Command svdbench regenerates the paper's evaluation (§6–7):
//
//	svdbench -table2 [-scale N] [-samples N]   Table 2
//	svdbench -fn                               §7.1 apparent false negatives
//	svdbench -scaling                          §7.3 execution-length sweep
//	svdbench -overhead                         §7.3 detector overhead
//	svdbench -hotpath                          detector hot-path microbenchmark
//	svdbench -ber                              §1.1 BER avoidance scenario
//	svdbench -baselines                        §8 detector families, head to head
//
// Sample-running modes (-table2, -fn) fan independent samples across
// -parallel workers (default GOMAXPROCS) with bit-identical results.
// -json FILE writes machine-readable output: the -hotpath measurements,
// or for -table2 the rows plus the merged detector stats across every
// sample.
//
// Observability (DESIGN.md §7, §9):
//
//	-trace out.json   record detector activity (CU lifecycle, violations,
//	                  witnesses, log triples, races, harness phases) as
//	                  Chrome trace-event JSON, loadable in Perfetto
//	-http :6060       serve OpenMetrics (/metrics), expvar (/debug/vars),
//	                  and net/http/pprof (/debug/pprof) during the run;
//	                  with no run mode, serve until interrupted; shuts
//	                  down cleanly on SIGINT
//	-witness          enable the violation flight recorder; -json output
//	                  then carries the witness digest
//	-metrics-format   print the aggregated telemetry to stdout after the
//	                  run, as "json" (snapshot) or "openmetrics" (text
//	                  exposition)
//
// Operational messages (server lifecycle, files written) go to stderr via
// log/slog; -log-level and -log-json tune them.
//
// Absolute numbers differ from the paper's (the substrate is this
// repository's VM, not Simics on SPARC hardware); the shapes — who wins,
// by what rough factor, and the PgSQL inversion — are the reproduction
// targets. See EXPERIMENTS.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/ber"
	"repro/internal/buildinfo"
	"repro/internal/frd"
	"repro/internal/lockset"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stale"
	"repro/internal/svd"
	"repro/internal/workloads"
)

func main() {
	var (
		table2    = flag.Bool("table2", false, "reproduce Table 2")
		fn        = flag.Bool("fn", false, "reproduce the §7.1 apparent-false-negative analysis")
		scaling   = flag.Bool("scaling", false, "reproduce the §7.3 execution-length sweep")
		overhead  = flag.Bool("overhead", false, "measure detector time overhead (§7.3)")
		berMode   = flag.Bool("ber", false, "demonstrate BER-based bug avoidance (§1.1)")
		baselines = flag.Bool("baselines", false, "compare the §8 detector families on all workloads")
		hotpath   = flag.Bool("hotpath", false, "microbenchmark the detector hot path")
		scale     = flag.Int("scale", 2, "workload size multiplier")
		samples   = flag.Int("samples", 4, "samples per bug-free Table 2 row")
		seed      = flag.Uint64("seed", 0, "base scheduler seed")
		parallel  = flag.Int("parallel", 0, "sample-runner workers; <=0 means GOMAXPROCS")
		jsonPath  = flag.String("json", "", "write machine-readable results (-hotpath or -table2) to this file as JSON")
		tracePath = flag.String("trace", "", "write detector activity as Chrome trace-event JSON to this file")
		httpAddr  = flag.String("http", "", "serve OpenMetrics, expvar, and pprof on this address (e.g. :6060)")
		witness   = flag.Bool("witness", false, "enable the violation flight recorder (witnesses ride in -json and -trace output)")
		metricsFm = flag.String("metrics-format", "", "print aggregated telemetry to stdout after the run: json or openmetrics")
		logLevel  = flag.String("log-level", "info", "operational log level: debug, info, warn, error")
		logJSON   = flag.Bool("log-json", false, "emit operational log records as JSON")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("svdbench"))
		return
	}

	logger := obs.InitSlog(*logLevel, *logJSON)
	if *metricsFm != "" && *metricsFm != "json" && *metricsFm != "openmetrics" {
		fatal(fmt.Errorf("unknown -metrics-format %q (want json or openmetrics)", *metricsFm))
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	var sink *obs.Sink
	if *tracePath != "" || *httpAddr != "" || *metricsFm != "" {
		sink = obs.NewSink(obs.SinkOptions{Tracing: *tracePath != ""})
		sink.PublishExpvar("svd")
	}
	var srv *obs.Server
	if *httpAddr != "" {
		var err error
		srv, err = obs.StartServer(*httpAddr, sink, "svd")
		if err != nil {
			fatal(err)
		}
		logger.Info("metrics server started",
			"addr", srv.Addr(), "metrics", "/metrics", "expvar", "/debug/vars", "pprof", "/debug/pprof")
	}

	ran := false
	if *table2 {
		ran = true
		runTable2(*scale, *samples, *seed, *parallel, *jsonPath, sink, *witness)
	}
	if *fn {
		ran = true
		runFN(*scale, *seed, *parallel, sink, *witness)
	}
	if *scaling {
		ran = true
		runScaling(*seed)
	}
	if *overhead {
		ran = true
		runOverhead(*scale, *seed)
	}
	if *berMode {
		ran = true
		runBER(*scale, *seed)
	}
	if *baselines {
		ran = true
		runBaselines(*scale, *seed)
	}
	if *hotpath {
		ran = true
		runHotpath(*scale, *seed, *parallel, *jsonPath)
	}
	if !ran && *httpAddr != "" {
		// Pure serving mode: keep the endpoint up until SIGINT, then shut
		// down cleanly instead of dying mid-request.
		logger.Info("no run mode given; serving until interrupted")
		<-ctx.Done()
	} else if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(sctx); err != nil {
			logger.Warn("metrics server shutdown", "err", err)
		}
		cancel()
		logger.Info("metrics server stopped")
	}
	if *tracePath != "" {
		if err := sink.WriteTraceFile(*tracePath); err != nil {
			fatal(err)
		}
		logger.Info("trace written", "path", *tracePath, "events", sink.Trace().Len())
	}
	if *metricsFm != "" && sink != nil {
		switch *metricsFm {
		case "json":
			data, err := json.MarshalIndent(sink.Snapshot(), "", "  ")
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(data))
		case "openmetrics":
			if err := sink.WriteOpenMetrics(os.Stdout, "svd"); err != nil {
				fatal(err)
			}
		}
	}
}

// runBaselines compares SVD with the related-work detector families (§8):
// happens-before, lockset, and stale-value, all given the synchronization
// annotations they require (SVD uses none).
func runBaselines(scale int, seed uint64) {
	fmt.Println("== §8 detector families: dynamic reports per million instructions ==")
	fmt.Printf("%-22s %7s %12s %12s %12s %12s %9s\n",
		"workload", "MInsts", "svd", "happens-bef", "lockset", "stale-value", "erroneous")
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name, scale, seed)
		if err != nil {
			fatal(err)
		}
		m, err := w.NewVM(seed)
		if err != nil {
			fatal(err)
		}
		sd := svd.New(w.Prog, w.NumThreads, svd.Options{})
		fd := frd.New(w.Prog, w.NumThreads, frd.Options{})
		ld := lockset.New(w.NumThreads, lockset.Options{})
		td := stale.New(w.NumThreads, stale.Options{})
		m.AttachColumns(sd)
		m.AttachColumns(fd)
		m.Attach(ld)
		m.Attach(td)
		if _, err := m.Run(1 << 26); err != nil {
			fatal(err)
		}
		mi := float64(sd.Stats().Instructions) / 1e6
		bad := false
		if w.Check != nil {
			bad, _ = w.Check(m)
		}
		fmt.Printf("%-22s %7.2f %12.2f %12.2f %12.2f %12.2f %9v\n",
			name, mi,
			float64(sd.Stats().Violations)/mi,
			float64(fd.Stats().Races)/mi,
			float64(ld.Stats().Reports)/mi,
			float64(td.Stats().Reports)/mi,
			bad)
	}
	fmt.Println("note: SVD reports actual serializability violations; the others report races or")
	fmt.Println("patterns, need lock annotations (auto-derived from CAS here), and fire on correct runs.")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "svdbench:", err)
	os.Exit(1)
}

func runTable2(scale, samples int, seed uint64, parallel int, jsonPath string, sink *obs.Sink, witness bool) {
	fmt.Printf("== Table 2 (scale %d, %d samples per bug-free row) ==\n", scale, samples)
	rows, merged, err := report.Table2(report.Table2Config{
		Scale: scale, Samples: samples, Seed: seed, Parallelism: parallel, Obs: sink, Witness: witness,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Print(report.RenderTable(rows))
	fmt.Println()
	for _, r := range rows {
		fmt.Print(report.Summary(r))
	}
	if jsonPath != "" {
		if err := writeTable2JSON(jsonPath, rows, merged, sink); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Table 2 rows and merged stats to %s\n", jsonPath)
	}
}

// writeTable2JSON dumps the rows plus the merged detector counters (and,
// when telemetry is on, the sink's histogram snapshot) for downstream
// tooling.
func writeTable2JSON(path string, rows []report.Row, merged report.MergedStats, sink *obs.Sink) error {
	out := struct {
		Rows      []report.Row       `json:"rows"`
		Stats     report.MergedStats `json:"stats"`
		Telemetry *obs.Snapshot      `json:"telemetry,omitempty"`
	}{Rows: rows, Stats: merged}
	if sink != nil {
		snap := sink.Snapshot()
		out.Telemetry = &snap
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runFN(scale int, seed uint64, parallel int, sink *obs.Sink, witness bool) {
	fmt.Println("== §7.1 apparent false negatives ==")
	for _, name := range []string{"apache-buggy", "mysql-prepared-buggy"} {
		w, err := workloads.ByName(name, scale, seed)
		if err != nil {
			fatal(err)
		}
		sams, err := report.RunMany(w, report.Seeds(seed, 6), report.Options{Obs: sink, Witness: witness}, parallel)
		if err != nil {
			fatal(err)
		}
		row := report.Aggregate(name, sams)
		fmt.Print(report.Summary(row))
	}
}

func runScaling(seed uint64) {
	fmt.Println("== §7.3 execution-length sweep ==")
	pts, err := report.ScalingSweep([]int{1, 2, 4, 8, 16}, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-14s %6s %10s %10s %10s\n", "workload", "factor", "MInsts", "staticFP", "dynFP")
	for _, p := range pts {
		fmt.Printf("%-14s %6d %10.2f %10d %10d\n", p.Workload, p.Factor, p.MInsts, p.StaticFP, p.DynFP)
	}
	fmt.Println("expected shape: staticFP ~flat (tracks exercised code), dynFP ~linear in length")
}

func runOverhead(scale int, seed uint64) {
	fmt.Println("== §7.3 detector overhead ==")
	fmt.Printf("%-22s %12s %12s %12s %10s %10s\n",
		"workload", "bare ns/ins", "svd ns/ins", "frd ns/ins", "svd x", "frd x")
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name, scale, seed)
		if err != nil {
			fatal(err)
		}
		bare := timeRun(w, seed, "none")
		withSVD := timeRun(w, seed, "svd")
		withFRD := timeRun(w, seed, "frd")
		fmt.Printf("%-22s %12.1f %12.1f %12.1f %9.1fx %9.1fx\n",
			name, bare, withSVD, withFRD, withSVD/bare, withFRD/bare)
	}
}

func timeRun(w *workloads.Workload, seed uint64, det string) float64 {
	m, err := w.NewVM(seed)
	if err != nil {
		fatal(err)
	}
	switch det {
	case "svd":
		m.AttachColumns(svd.New(w.Prog, w.NumThreads, svd.Options{}))
	case "frd":
		m.AttachColumns(frd.New(w.Prog, w.NumThreads, frd.Options{}))
	}
	start := time.Now()
	n, err := m.Run(1 << 26)
	if err != nil {
		// Faults are a workload outcome (the buggy variants crash); the
		// timing up to the fault still stands.
		_ = err
	}
	if n == 0 {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func runBER(scale int, seed uint64) {
	fmt.Println("== §1.1 BER-based avoidance of the Apache bug ==")
	w, err := workloads.ByName("apache-buggy", scale, seed)
	if err != nil {
		fatal(err)
	}
	for s := seed; s < seed+4; s++ {
		m, err := w.NewVM(s)
		if err != nil {
			fatal(err)
		}
		if _, err := m.Run(1 << 24); err != nil {
			fatal(err)
		}
		bad, detail := w.Check(m)
		fmt.Printf("seed %d without BER: erroneous=%v (%s)\n", s, bad, detail)

		m, err = w.NewVM(s)
		if err != nil {
			fatal(err)
		}
		det := svd.New(w.Prog, w.NumThreads, svd.Options{})
		m.Attach(det)
		st, err := ber.Run(m, det, ber.Config{CheckpointInterval: 2048})
		if err != nil {
			fatal(err)
		}
		bad, detail = w.Check(m)
		fmt.Printf("seed %d with    BER: erroneous=%v (%s); %d rollbacks, %d wasted, %d serialized of %d total\n",
			s, bad, detail, st.Rollbacks, st.WastedInstructions, st.SerialInstructions, st.TotalInstructions)
	}
}
