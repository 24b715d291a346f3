// Package workloads models the paper's three test programs (Table 1) as
// SVL programs plus input generators:
//
//   - ApacheLog — the Apache 2.0.48 log_config module (Figure 2): worker
//     threads buffer log messages in a shared memory buffer. The buggy
//     variant omits the lock around the buffer copy and index update,
//     which silently corrupts the access log; the fixed variant locks.
//     Requests come from a SURGE-like heavy-tailed size generator.
//   - MySQLTables — the MySQL table-locking code (Figure 1): lock-guarded
//     writers maintain tot_lock while an unlocked checker reads it. The
//     races are real but benign: race detectors report them, a
//     serializability detector should not.
//   - MySQLPrepared — the MySQL 4.1.1 prepared-query bug (Figure 3):
//     field bookkeeping variables intended to be thread-local are shared
//     by mistake; the interleaving corrupts a loop bound. SVD misses this
//     online (shared dependences cut its CUs) but the a posteriori log
//     reveals it. The fixed variant makes the variables thread-local.
//   - PgSQLOLTP — a DBT-2-like warehouse OLTP load on a PostgreSQL-style
//     mature, race-free server: all shared state is lock-disciplined.
//     FRD reports nothing; SVD's strict-2PL conservatism yields a low
//     rate of false positives (Table 2's inversion).
//
// Each workload carries ground truth: the source lines that constitute the
// injected bug (empty for bug-free workloads) and an output-consistency
// check that decides whether a given execution actually manifested the
// error. Package report classifies detector output against this truth.
package workloads

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/isa"
	"repro/internal/lang"
	"repro/internal/vm"
)

// Workload is one runnable server-program model.
type Workload struct {
	Name        string
	Description string
	Source      string // SVL source
	Prog        *isa.Program
	NumThreads  int
	Buggy       bool

	// BugPCs is the set of instruction addresses belonging to the
	// injected bug's source lines; detector reports landing on these PCs
	// are true detections, everything else is a false positive.
	BugPCs map[int64]bool

	// Setup writes generated inputs (request sizes, query shapes) into
	// the booted machine's data segment.
	Setup func(m *vm.VM)

	// Check inspects the finished machine and reports whether the
	// execution was erroneous (the bug manifested), with a detail string.
	Check func(m *vm.VM) (corrupted bool, detail string)

	// Machine sizing.
	MemWords   int64
	StackWords int64
}

// NewVM boots a machine for the workload with the given scheduler seed and
// applies input setup.
func (w *Workload) NewVM(seed uint64) (*vm.VM, error) {
	return w.NewVMWith(seed, vm.Interleave, nil)
}

// NewVMWith boots a machine with an explicit scheduling mode and cost
// model (nil cost uses the VM default), for scheduler-sensitivity studies.
func (w *Workload) NewVMWith(seed uint64, mode vm.ScheduleMode, cost vm.CostModel) (*vm.VM, error) {
	m, err := vm.New(w.Prog, vm.Config{
		NumCPUs:    w.NumThreads,
		MemWords:   w.MemWords,
		StackWords: w.StackWords,
		Seed:       seed,
		MaxQuantum: 8,
		Mode:       mode,
		Cost:       cost,
	})
	if err != nil {
		return nil, err
	}
	if w.Setup != nil {
		w.Setup(m)
	}
	return m, nil
}

// maxCachedPrograms bounds the program cache. A daemon serving the
// registry at a few scales needs a handful of entries; ByName's scale
// bound already keeps the reachable keys finite, and this keeps the
// cache small even for a client cycling through every scale.
const maxCachedPrograms = 16

type progKey struct{ name, src string }

// progCache holds compiled programs keyed by name and source, so
// rebuilding a workload — which a detection service does for every
// stream it serves — renders the source and probes a map instead of
// compiling. Sharing one *isa.Program is safe: nothing writes a program
// after lang.Compile returns it (the VM copies Data into its own
// memory), and a seed changes only a workload's Setup, never its
// source. Full, it evicts the oldest entry.
var progCache struct {
	sync.Mutex
	progs map[progKey]*isa.Program
	order []progKey // insertion order, oldest first
}

// compile builds a workload program, from the cache when it holds one.
func compile(name, src string) (*isa.Program, error) {
	k := progKey{name, src}
	progCache.Lock()
	p := progCache.progs[k]
	progCache.Unlock()
	if p != nil {
		return p, nil
	}
	p, err := lang.Compile(src, lang.Options{Name: name, DataBase: 0})
	if err != nil {
		return nil, fmt.Errorf("workloads: %s does not compile: %w", name, err)
	}
	progCache.Lock()
	defer progCache.Unlock()
	if q := progCache.progs[k]; q != nil {
		return q, nil // compiled concurrently; keep one copy
	}
	if progCache.progs == nil {
		progCache.progs = make(map[progKey]*isa.Program)
	}
	if len(progCache.order) >= maxCachedPrograms {
		delete(progCache.progs, progCache.order[0])
		progCache.order = progCache.order[1:]
	}
	progCache.progs[k] = p
	progCache.order = append(progCache.order, k)
	return p, nil
}

// must unwraps a constructor result, panicking on failure: the exported
// constructors take configurations from code, so a compile failure there
// is a programming error. Untrusted scales go through ByName instead.
func must(w *Workload, err error) *Workload {
	if err != nil {
		panic(err)
	}
	return w
}

// checkMemory fails a workload whose data segment does not fit in its
// memory beside the threads' stacks — a machine the VM would refuse to
// boot, and a program no event stream can come from.
func (w *Workload) checkMemory() error {
	mem := w.MemWords
	if mem <= 0 {
		mem = vm.DefaultMemWords
	}
	end := w.Prog.DataBase + int64(len(w.Prog.Data))
	if room := mem - int64(w.NumThreads)*w.StackWords; end > room {
		return fmt.Errorf("workloads: %s data segment of %d words does not fit the %d its %d-word memory leaves beside %d thread stacks",
			w.Name, end, room, mem, w.NumThreads)
	}
	return nil
}

// Reoptimized returns a copy of the workload whose program was recompiled
// with the SVL optimizer. The consistency check and input setup carry over
// (they address memory by symbol); bug-site PCs do not, so BugPCs is
// cleared — use the copy for rate and behavior comparisons, not for
// true/false-positive classification.
func (w *Workload) Reoptimized() *Workload {
	p, err := lang.Compile(w.Source, lang.Options{Name: w.Name + "-opt", DataBase: 0, Optimize: true})
	if err != nil {
		panic(fmt.Sprintf("workloads: %s does not recompile optimized: %v", w.Name, err))
	}
	nw := *w
	nw.Name = w.Name + "-opt"
	nw.Prog = p
	nw.BugPCs = nil
	return &nw
}

// lineOf returns the 1-based line number of the first line containing
// marker, panicking when absent (the markers are fixed strings in fixed
// sources).
func lineOf(src, marker string) int {
	for i, line := range strings.Split(src, "\n") {
		if strings.Contains(line, marker) {
			return i + 1
		}
	}
	panic(fmt.Sprintf("workloads: marker %q not found", marker))
}

// pcsForLines maps source lines to the instruction addresses compiled from
// them, using the program's LineInfo ("name:line").
func pcsForLines(p *isa.Program, name string, lines []int) map[int64]bool {
	want := map[string]bool{}
	for _, l := range lines {
		want[fmt.Sprintf("%s:%d", name, l)] = true
	}
	out := map[int64]bool{}
	for pc := range p.Code {
		if want[p.LocationOf(int64(pc))] {
			out[int64(pc)] = true
		}
	}
	return out
}

// threadDecls renders "thread i f(args);" lines for n threads.
func threadDecls(n int, f string, args string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "thread %d %s(%s);\n", i, f, args)
	}
	return b.String()
}

// pokeArray writes vals into the data-segment array named sym.
func pokeArray(m *vm.VM, sym string, vals []int64) {
	base, ok := m.Program().Symbols[sym]
	if !ok {
		panic(fmt.Sprintf("workloads: no symbol %q", sym))
	}
	for i, v := range vals {
		m.SetMem(base+int64(i), v)
	}
}

// symWord reads one data word by symbol (for Check functions).
func symWord(m *vm.VM, sym string, off int64) int64 {
	return m.Mem(m.Program().Symbols[sym] + off)
}
