package report

import (
	"reflect"
	"testing"

	"repro/internal/frd"
	"repro/internal/isa"
	"repro/internal/svd"
	"repro/internal/vm"
)

// Adversarial locality streams. The hot path carries three layers of
// locality caching — the per-thread MRU block cache, the per-thread
// fanout interest cache with its quiet fast path, and the batch-level
// same-block sub-run coalescing in StepColumns — and each is exactly
// the kind of state that can silently diverge from the per-event path
// on a pathological access pattern. The streams here are built to sit
// on those edges: a single block hammered hard (maximal quiet-skip
// coalescing), two blocks ping-ponged (the 2-entry caches' promote
// path on every access), three blocks rotated (constant cache misses),
// addresses straddling a block boundary at 1<<BlockShift ± 1 (adjacent
// addresses, different blocks), and a CAS-heavy mix (the only opcode
// with two memory halves). Each stream runs through per-event Step and
// through StepColumns under run-boundary and sub-run-boundary chops,
// with the Blocks column both matching and mismatching the detectors'
// shift, and every observable output must be bit-identical. Run under
// -race this also shakes out sharing through the reused caches.

// locGen builds synthetic interleaved event streams over a fixed tiny
// program, with flags always consistent with opcodes (the invariant
// the wire decoder enforces).
type locGen struct {
	prog *isa.Program
	evs  []vm.Event
	seq  uint64
}

// Fixed PCs in the synthetic program, one per access shape.
const (
	lpLoad  = 0
	lpStore = 1
	lpCas   = 2
	lpAddi  = 3
)

const lRA = isa.Reg(8)

func newLocGen() *locGen {
	code := []isa.Instr{
		lpLoad:  isa.Load(lRA, isa.RegZero, 0),
		lpStore: isa.Store(lRA, isa.RegZero, 0),
		lpCas:   isa.Cas(lRA, isa.RegZero, lRA, lRA),
		lpAddi:  isa.Addi(lRA, lRA, 1),
		4:       isa.Halt(),
	}
	return &locGen{prog: &isa.Program{Name: "locality", Code: code}}
}

func (g *locGen) emit(ev vm.Event) {
	g.seq++
	ev.Seq = g.seq
	ev.Instr = g.prog.Code[ev.PC]
	g.evs = append(g.evs, ev)
}

func (g *locGen) load(cpu int, addr int64) {
	g.emit(vm.Event{CPU: cpu, PC: lpLoad, Addr: addr, IsLoad: true, Loaded: addr + 1})
}

func (g *locGen) store(cpu int, addr int64) {
	g.emit(vm.Event{CPU: cpu, PC: lpStore, Addr: addr, IsStore: true, Stored: addr + 2})
}

func (g *locGen) cas(cpu int, addr int64, success bool) {
	ev := vm.Event{CPU: cpu, PC: lpCas, Addr: addr, IsLoad: true, Loaded: 0}
	if success {
		ev.IsStore = true
		ev.Stored = 1
	}
	g.emit(ev)
}

func (g *locGen) addi(cpu int) {
	g.emit(vm.Event{CPU: cpu, PC: lpAddi})
}

// singleBlockHammer: long same-thread runs on one address, interleaved
// with bursts from the other threads — the maximal case for quiet-skip
// coalescing, with real conflicts so the fan-out is not always quiet.
func singleBlockHammer(g *locGen) {
	const X = 64
	for round := 0; round < 8; round++ {
		for cpu := 0; cpu < 3; cpu++ {
			g.load(cpu, X)
			for i := 0; i < 16; i++ {
				g.addi(cpu)
				g.load(cpu, X)
			}
			g.store(cpu, X)
		}
	}
}

// twoBlockPingPong: every access alternates between two blocks, so both
// 2-entry caches (MRU block cache, fanout cache) promote on every hit.
func twoBlockPingPong(g *locGen) {
	const A, B = 128, 256
	for round := 0; round < 8; round++ {
		for cpu := 0; cpu < 3; cpu++ {
			for i := 0; i < 8; i++ {
				g.load(cpu, A)
				g.load(cpu, B)
			}
			g.store(cpu, A)
			g.store(cpu, B)
		}
	}
}

// threeBlockRotate: one block more than the caches hold, so every
// access misses both 2-entry caches.
func threeBlockRotate(g *locGen) {
	addrs := []int64{512, 640, 768}
	for round := 0; round < 8; round++ {
		for cpu := 0; cpu < 3; cpu++ {
			for i := 0; i < 6; i++ {
				g.load(cpu, addrs[i%3])
			}
			g.store(cpu, addrs[round%3])
		}
	}
}

// boundaryStraddle walks addresses across a block boundary: with
// BlockShift = 4 the addresses 1<<4 - 1 and 1<<4 are adjacent words in
// different blocks, so a linear walk flips blocks exactly at the edge
// and sub-run segmentation must split there.
func boundaryStraddle(g *locGen) {
	const edge = int64(1) << 4
	for round := 0; round < 6; round++ {
		for cpu := 0; cpu < 3; cpu++ {
			for a := edge - 2; a <= edge+1; a++ {
				g.load(cpu, a)
			}
			g.store(cpu, edge-1)
			g.store(cpu, edge)
		}
	}
}

// casMix: CAS successes and failures on a shared word interleaved with
// plain accesses on a neighbor — CAS is the one opcode whose store half
// is conditional, and FRD flips the block to sync semantics on it.
func casMix(g *locGen) {
	const L, D = 1024, 1025
	for round := 0; round < 8; round++ {
		for cpu := 0; cpu < 3; cpu++ {
			g.cas(cpu, L, cpu == round%3)
			g.load(cpu, D)
			g.addi(cpu)
			g.store(cpu, D)
			g.cas(cpu, L, false)
		}
	}
}

// chopAtBlockSwitch starts a new batch whenever the thread or the
// accessed block changes — batch boundaries land exactly on sub-run
// boundaries, the coalescing loop's own segmentation.
func chopAtBlockSwitch(evs []vm.Event, shift uint) []*vm.EventBatch {
	var batches []*vm.EventBatch
	var eb *vm.EventBatch
	lastCPU, lastBlock := -1, int64(-1)
	for i := range evs {
		ev := &evs[i]
		block := lastBlock
		if ev.IsLoad || ev.IsStore {
			block = ev.Addr >> shift
		}
		if eb == nil || ev.CPU != lastCPU || block != lastBlock {
			eb = vm.NewEventBatch(16)
			batches = append(batches, eb)
		}
		eb.Append(ev)
		lastCPU, lastBlock = ev.CPU, block
	}
	return batches
}

// localityOutputs is every observable a detector pair exposes.
type localityOutputs struct {
	SVDViolations []svd.Violation
	SVDLog        []svd.LogEntry
	SVDSites      []svd.Site
	SVDStats      svd.Stats
	FRDRaces      []frd.Race
	FRDSites      []frd.Site
	FRDStats      frd.Stats
}

func collectLocality(sd *svd.Detector, fd *frd.Detector) localityOutputs {
	return localityOutputs{
		SVDViolations: sd.Violations(),
		SVDLog:        sd.Log(),
		SVDSites:      sd.Sites(),
		SVDStats:      sd.Stats(),
		FRDRaces:      fd.Races(),
		FRDSites:      fd.Sites(),
		FRDStats:      fd.Stats(),
	}
}

func TestLocalityDifferential(t *testing.T) {
	streams := []struct {
		name  string
		shift uint
		build func(*locGen)
	}{
		{"single-block-hammer", 0, singleBlockHammer},
		{"two-block-ping-pong", 0, twoBlockPingPong},
		{"three-block-rotate", 0, threeBlockRotate},
		{"boundary-straddle", 4, boundaryStraddle},
		{"cas-mix", 0, casMix},
	}
	const threads = 3
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			g := newLocGen()
			s.build(g)
			evs := g.evs
			sopts := svd.Options{BlockShift: s.shift}
			fopts := frd.Options{BlockShift: s.shift}

			sd := svd.New(g.prog, threads, sopts)
			fd := frd.New(g.prog, threads, fopts)
			for i := range evs {
				sd.Step(&evs[i])
				fd.Step(&evs[i])
			}
			want := collectLocality(sd, fd)

			// withShift re-encodes a chop's batches with the Blocks column
			// at the given shift; the detectors must behave identically
			// whether the column matches their shift (consumed) or not
			// (recomputed per row).
			withShift := func(batches []*vm.EventBatch, shift uint) []*vm.EventBatch {
				out := make([]*vm.EventBatch, len(batches))
				for i, eb := range batches {
					ne := vm.NewEventBatch(eb.Len())
					ne.EnableBlocks(shift)
					for r := 0; r < eb.Len(); r++ {
						ne.AppendRaw(eb.Seq[r], eb.CPU[r], eb.PC[r], eb.Flags[r], eb.Addr[r])
					}
					out[i] = ne
				}
				return out
			}

			chops := map[string][]*vm.EventBatch{
				"size1":       chopFixed(evs, 1),
				"size7":       chopFixed(evs, 7),
				"cpuswitch":   chopAtSwitches(evs),
				"blockswitch": chopAtBlockSwitch(evs, s.shift),
			}
			// The fixed-size chops carry the Blocks column at the
			// detector's shift (the served configuration); the run-aligned
			// chops carry a mismatched shift to force the fallback.
			chops["size7-colmatch"] = withShift(chops["size7"], s.shift)
			chops["blockswitch-colmismatch"] = withShift(chops["blockswitch"], s.shift+1)

			for chop, batches := range chops {
				csd := svd.New(g.prog, threads, sopts)
				cfd := frd.New(g.prog, threads, fopts)
				for _, eb := range batches {
					csd.StepColumns(eb)
					cfd.StepColumns(eb)
				}
				if err := csd.BatchErr(); err != nil {
					t.Fatalf("chop %s: svd poisoned: %v", chop, err)
				}
				if err := cfd.BatchErr(); err != nil {
					t.Fatalf("chop %s: frd poisoned: %v", chop, err)
				}
				got := collectLocality(csd, cfd)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("chop %s diverges from per-event Step:\ngot  %+v\nwant %+v", chop, got, want)
				}
			}
		})
	}
}

// TestStepColumnsPoisonsOnBadPC: a batch with one out-of-range PC must
// be dropped whole — no partial application — and every later batch,
// valid or not, must be rejected, on both detectors.
func TestStepColumnsPoisonsOnBadPC(t *testing.T) {
	g := newLocGen()
	singleBlockHammer(g)
	good := chopFixed(g.evs, 32)

	bad := vm.NewEventBatch(2)
	bad.AppendRaw(1, 0, lpLoad, vm.FlagLoad, 64)
	bad.AppendRaw(2, 0, int64(len(g.prog.Code))+7, vm.FlagLoad, 64)

	sd := svd.New(g.prog, 3, svd.Options{})
	fd := frd.New(g.prog, 3, frd.Options{})
	sd.StepColumns(good[0])
	fd.StepColumns(good[0])
	preS, preF := sd.Stats(), fd.Stats()

	sd.StepColumns(bad)
	fd.StepColumns(bad)
	if sd.BatchErr() == nil || fd.BatchErr() == nil {
		t.Fatalf("bad batch not flagged: svd=%v frd=%v", sd.BatchErr(), fd.BatchErr())
	}
	if got := sd.Stats(); !reflect.DeepEqual(got, preS) {
		t.Errorf("svd partially applied a bad batch:\npre  %+v\npost %+v", preS, got)
	}
	if got := fd.Stats(); !reflect.DeepEqual(got, preF) {
		t.Errorf("frd partially applied a bad batch:\npre  %+v\npost %+v", preF, got)
	}

	sd.StepColumns(good[1])
	fd.StepColumns(good[1])
	if got := sd.Stats(); !reflect.DeepEqual(got, preS) {
		t.Errorf("svd accepted a batch after poisoning")
	}
	if got := fd.Stats(); !reflect.DeepEqual(got, preF) {
		t.Errorf("frd accepted a batch after poisoning")
	}
}
