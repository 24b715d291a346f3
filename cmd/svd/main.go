// Command svd runs a workload (or a compiled SVL program) under the online
// Serializability Violation Detector and prints its findings: dynamic
// violations, static violation sites, and the a posteriori examination log.
//
// Usage:
//
//	svd -workload apache-buggy -seed 3 -scale 2
//	svd -src program.svl -cpus 4 -seed 1
//	svd -workload apache-buggy -trace out.json   # Chrome trace of CU lifecycle
//	svd -workload apache-buggy -witness          # forensic report per site pair
//	svd -workload apache-buggy -witness-json w.json
//	svd -list
//
// -witness turns on the violation flight recorder (DESIGN.md §9):
// violations fold into site-pair groups, each with a count and the causal
// witness of its first violation, and the findings section ends with a
// forensic report — per site pair, the victim unit's footprint, the stale
// input, and the two-thread schedule that closed the cycle, folded with
// the matching a posteriori examination finding. -witness-json dumps the
// witness groups as JSON for tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/isa"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/svd"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "", "registered workload to run (see -list)")
		srcPath   = flag.String("src", "", "SVL source file to compile and run instead")
		list      = flag.Bool("list", false, "list registered workloads")
		seed      = flag.Uint64("seed", 0, "scheduler seed (same seed replays the same execution)")
		scale     = flag.Int("scale", 1, "workload size multiplier")
		cpus      = flag.Int("cpus", 0, "CPU count for -src programs (default: thread declarations)")
		maxSteps  = flag.Uint64("max-steps", 1<<24, "instruction budget")
		maxShow   = flag.Int("show", 10, "max violations and log entries to print")
		allBlocks = flag.Bool("check-all-blocks", false, "check whole CU footprints, not only input blocks")
		noAddr    = flag.Bool("no-address-deps", false, "disable address dependences")
		noCtrl    = flag.Bool("no-control-deps", false, "disable the Skipper control-dependence stack")
		blockLog2 = flag.Uint("block-shift", 0, "log2 words per detection block")
		tracePath = flag.String("trace", "", "write CU lifecycle events as Chrome trace-event JSON to this file")
		witness   = flag.Bool("witness", false, "enable the violation flight recorder and print the forensic report")
		witnessJS = flag.String("witness-json", "", "write the violation witness groups to this file as JSON (implies -witness)")
		logLevel  = flag.String("log-level", "info", "operational log level: debug, info, warn, error")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("svd"))
		return
	}

	obs.InitSlog(*logLevel, false)
	if *list {
		for _, name := range workloads.Names() {
			fmt.Println(name)
		}
		return
	}
	if err := run(*workload, *srcPath, *seed, *scale, *cpus, *maxSteps, *maxShow, *tracePath, *witnessJS, svd.Options{
		CheckAllBlocks: *allBlocks,
		NoAddressDeps:  *noAddr,
		NoControlDeps:  *noCtrl,
		BlockShift:     *blockLog2,
		Witness:        *witness || *witnessJS != "",
	}); err != nil {
		fmt.Fprintln(os.Stderr, "svd:", err)
		os.Exit(1)
	}
}

func run(workload, srcPath string, seed uint64, scale, cpus int, maxSteps uint64, maxShow int, tracePath, witnessJSON string, opts svd.Options) error {
	m, w, err := buildMachine(workload, srcPath, seed, scale, cpus)
	if err != nil {
		return err
	}
	var sink *obs.Sink
	if tracePath != "" {
		sink = obs.NewSink(obs.SinkOptions{Tracing: true})
		opts.Recorder = sink.NewRecorder(fmt.Sprintf("svd seed %d", seed))
	}
	prog := m.Program()
	det := svd.New(prog, m.NumCPUs(), opts)
	m.SetColumnBlockShift(opts.BlockShift)
	m.AttachColumns(det)
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
	fmt.Printf("instructions: %d  loads: %d  stores: %d  CUs: %d (cut %d, merged %d)\n",
		st.Instructions, st.Loads, st.Stores, st.CUsLive(), st.CUsCut, st.CUsMerged)
	fmt.Printf("serializability violations: %d dynamic, %d static sites\n",
		st.Violations, len(det.Sites()))

	for i, site := range det.Sites() {
		if i >= maxShow {
			fmt.Printf("  ... %d more sites\n", len(det.Sites())-maxShow)
			break
		}
		loc := site.Location
		if loc == "" {
			loc = fmt.Sprintf("pc %d", site.StorePC)
		}
		marker := ""
		if w != nil && w.BugPCs[site.StorePC] {
			marker = "  <- injected bug"
		}
		fmt.Printf("  [%6d dynamic] store at %s (block %d, conflicts with cpu %d pc %d)%s\n",
			site.Count, loc, site.First.Block, site.First.ConflictCPU, site.First.ConflictPC, marker)
	}

	log := det.Log()
	fmt.Printf("a posteriori log: %d distinct triples (%d dynamic)\n", len(log), st.LogEntries)
	for i, e := range log {
		if i >= maxShow {
			fmt.Printf("  ... %d more entries\n", len(log)-maxShow)
			break
		}
		fmt.Printf("  cpu %d read %s of %s: local write %s overwritten by cpu %d write %s\n",
			e.CPU, locOf(prog, e.ReadPC), symOf(prog, e.Block),
			locOf(prog, e.LocalWritePC), e.RemoteWriteCPU, locOf(prog, e.RemoteWritePC))
	}

	findings := svd.Examine(prog, log)
	if len(findings) > 0 {
		fmt.Printf("a posteriori examination (%d variables):\n", len(findings))
		for i, f := range findings {
			if i >= maxShow {
				fmt.Printf("  ... %d more findings\n", len(findings)-maxShow)
				break
			}
			fmt.Print(indent(f.Describe(prog)))
		}
	}

	if opts.Witness {
		gs := det.WitnessGroups()
		fmt.Println()
		fmt.Print(forensicReport(prog, gs, findings, opts.BlockShift, maxShow))
		if witnessJSON != "" {
			data, err := json.MarshalIndent(gs, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(witnessJSON, append(data, '\n'), 0o644); err != nil {
				return err
			}
			slog.Info("witness groups written", "path", witnessJSON, "count", len(gs))
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

// forensicReport renders the -witness section: the detector's witness
// groups, ranked, with symbol names and examination findings folded in.
func forensicReport(prog *isa.Program, gs []obs.WitnessGroup, findings []svd.Finding, blockShift uint, maxShow int) string {
	return obs.RenderForensicReport(gs, obs.ForensicOptions{
		Loc:       prog.LocationOf,
		Sym:       func(b int64) string { return prog.SymbolFor(b << blockShift) },
		Annotate:  annotateFromFindings(findings),
		MaxGroups: maxShow,
	})
}

// annotateFromFindings folds the a posteriori examination into the
// forensic report: when a witness group's block matches an examined
// variable, the group carries the examiner's reading of it.
func annotateFromFindings(findings []svd.Finding) func(obs.WitnessGroup) string {
	return func(g obs.WitnessGroup) string {
		for _, f := range findings {
			if f.Block != g.First.Block {
				continue
			}
			name := f.Symbol
			if name == "" {
				name = fmt.Sprintf("block %d", f.Block)
			}
			if f.Symmetric {
				return fmt.Sprintf("examiner: %s is written symmetrically by %d threads that read their value back — likely meant to be thread-local", name, f.Writers)
			}
			return fmt.Sprintf("examiner: %d threads saw their writes to %s overwritten by %d others (%d dynamic triples)", f.Readers, name, f.Writers, f.Dynamic)
		}
		return ""
	}
}

func indent(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
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
