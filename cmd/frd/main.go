// Command frd runs a workload (or a compiled SVL program) under the
// Frontier Race Detector baseline and prints data races. With -frontier it
// also records a trace and prints the frontier races and the automatically
// discovered synchronization blocks — the paper's first FRD pass.
//
// Usage:
//
//	frd -workload mysql-tables -seed 3
//	frd -src program.svl -frontier
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/frd"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "", "registered workload to run (see -list)")
		srcPath   = flag.String("src", "", "SVL source file to compile and run instead")
		list      = flag.Bool("list", false, "list registered workloads")
		seed      = flag.Uint64("seed", 0, "scheduler seed")
		scale     = flag.Int("scale", 1, "workload size multiplier")
		cpus      = flag.Int("cpus", 0, "CPU count for -src programs")
		maxSteps  = flag.Uint64("max-steps", 1<<24, "instruction budget")
		maxShow   = flag.Int("show", 10, "max races to print")
		frontier  = flag.Bool("frontier", false, "also record a trace and print frontier races")
		tracePath = flag.String("trace", "", "write race events as Chrome trace-event JSON to this file")
		witness   = flag.Bool("witness", false, "enable the race flight recorder and print the forensic report")
		logLevel  = flag.String("log-level", "info", "operational log level: debug, info, warn, error")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("frd"))
		return
	}

	obs.InitSlog(*logLevel, false)
	if *list {
		for _, name := range workloads.Names() {
			fmt.Println(name)
		}
		return
	}
	if err := run(*workload, *srcPath, *seed, *scale, *cpus, *maxSteps, *maxShow, *frontier, *witness, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "frd:", err)
		os.Exit(1)
	}
}

func run(workload, srcPath string, seed uint64, scale, cpus int, maxSteps uint64, maxShow int, wantFrontier, witness bool, tracePath string) error {
	m, w, err := buildMachine(workload, srcPath, seed, scale, cpus)
	if err != nil {
		return err
	}
	var sink *obs.Sink
	opts := frd.Options{Witness: witness}
	if tracePath != "" {
		sink = obs.NewSink(obs.SinkOptions{Tracing: true})
		opts.Recorder = sink.NewRecorder(fmt.Sprintf("frd seed %d", seed))
	}
	prog := m.Program()
	det := frd.New(prog, m.NumCPUs(), opts)
	m.SetColumnBlockShift(opts.BlockShift)
	m.AttachColumns(det)

	var rec *trace.Recorder
	if wantFrontier {
		rec, err = trace.NewRecorder(prog, m.NumCPUs(), 1<<21)
		if err != nil {
			return err
		}
		m.Attach(rec)
	}

	if _, err := m.Run(maxSteps); err != nil {
		fmt.Printf("execution faulted: %v\n", err)
	} else if !m.Done() {
		fmt.Printf("stopped after %d instructions (budget)\n", maxSteps)
	}
	if sink != nil {
		det.FlushObs()
		opts.Recorder.Flush()
		if err := sink.WriteTraceFile(tracePath); err != nil {
			return err
		}
		slog.Info("trace written", "path", tracePath, "events", sink.Trace().Len())
	}

	st := det.Stats()
	fmt.Printf("program: %s  cpus: %d  seed: %d\n", prog.Name, m.NumCPUs(), seed)
	fmt.Printf("instructions: %d  data accesses: %d loads / %d stores  sync ops: %d\n",
		st.Instructions, st.Loads, st.Stores, st.SyncOps)
	fmt.Printf("data races: %d dynamic, %d static sites\n", st.Races, len(det.Sites()))
	for i, site := range det.Sites() {
		if i >= maxShow {
			fmt.Printf("  ... %d more sites\n", len(det.Sites())-maxShow)
			break
		}
		marker := ""
		if w != nil && (w.BugPCs[site.PCLow] || w.BugPCs[site.PCHigh]) {
			marker = "  <- injected bug"
		}
		fmt.Printf("  [%6d dynamic] %s vs %s on %s%s\n",
			site.Count, locOf(prog, site.PCLow), locOf(prog, site.PCHigh),
			symOf(prog, site.First.Block), marker)
	}

	if witness {
		fmt.Println()
		fmt.Print(obs.RenderForensicReport(det.Witnesses(), obs.ForensicOptions{
			Loc:       prog.LocationOf,
			Sym:       func(b int64) string { return prog.SymbolFor(b << opts.BlockShift) },
			MaxGroups: maxShow,
		}))
	}

	if rec != nil {
		tr := rec.Trace()
		accs := tr.Accesses()
		races := frd.Frontier(accs)
		sync := frd.DiscoverSync(accs)
		fmt.Printf("frontier pass: %d memory accesses, %d frontier races, sync blocks %v\n",
			len(accs), len(races), sync)
		for i, r := range races {
			if i >= maxShow {
				fmt.Printf("  ... %d more frontier races\n", len(races)-maxShow)
				break
			}
			fmt.Printf("  frontier: %s vs %s on %s\n",
				locOf(prog, r.FirstPC), locOf(prog, r.SecondPC), symOf(prog, r.Block))
		}
	}

	if w != nil && w.Check != nil {
		bad, detail := w.Check(m)
		fmt.Printf("outcome: erroneous=%v (%s)\n", bad, detail)
	}
	return nil
}

func buildMachine(workload, srcPath string, seed uint64, scale, cpus int) (*vm.VM, *workloads.Workload, error) {
	switch {
	case workload != "" && srcPath != "":
		return nil, nil, fmt.Errorf("pass -workload or -src, not both")
	case workload != "":
		w, err := workloads.ByName(workload, scale, seed)
		if err != nil {
			return nil, nil, err
		}
		m, err := w.NewVM(seed)
		return m, w, err
	case srcPath != "":
		src, err := os.ReadFile(srcPath)
		if err != nil {
			return nil, nil, err
		}
		prog, err := lang.Compile(string(src), lang.Options{Name: srcPath})
		if err != nil {
			return nil, nil, err
		}
		if cpus <= 0 {
			cpus = len(prog.Entries)
		}
		m, err := vm.New(prog, vm.Config{
			NumCPUs: cpus, MemWords: 1 << 18, StackWords: 1 << 10,
			Seed: seed, MaxQuantum: 8,
		})
		return m, nil, err
	default:
		return nil, nil, fmt.Errorf("pass -workload <name> (see -list) or -src <file.svl>")
	}
}

func locOf(prog interface{ LocationOf(int64) string }, pc int64) string {
	if loc := prog.LocationOf(pc); loc != "" {
		return loc
	}
	return fmt.Sprintf("pc %d", pc)
}

func symOf(prog interface{ SymbolFor(int64) string }, addr int64) string {
	if s := prog.SymbolFor(addr); s != "" {
		return s
	}
	return fmt.Sprintf("word %d", addr)
}
