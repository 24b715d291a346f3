// Package svd implements the paper's primary contribution: the online,
// one-pass Serializability Violation Detector (Figure 7 of the paper).
//
// The detector attaches to a vm.VM as an observer and processes the dynamic
// instruction stream of every simulated processor. For each processor it
// maintains a private detector instance (the paper approximates threads with
// processors, §4.3); accesses by other processors arrive at an instance as
// REMOTE_ACCESS events, the way cache-coherence traffic would.
//
// Per instruction the detector
//
//   - infers true dependences by propagating computational-unit (CU)
//     references through registers (loads tag the destination register with
//     the block's CU; ALU operations union source-register CU sets into the
//     destination; stores consolidate the source CU set into one CU);
//   - infers partial control dependences with the Skipper heuristic: a
//     stack of conditional-branch CU sets with control-flow reconvergence
//     points, popped when execution reaches the reconvergence PC;
//   - infers which memory blocks are shared with a per-block finite state
//     machine (Figure 8: Idle, Loaded, Loaded_Shared, Stored,
//     Stored_Shared, True_Dep), cutting a CU when a shared dependence is
//     observed — a load hitting a Stored_Shared block, or a remote access
//     hitting a True_Dep block;
//   - checks strict-2PL serializability at every store: if any input block
//     of a CU the store depends on (by data, address, or control) has
//     suffered a conflicting remote access since the CU accessed it, the
//     execution is not serializable and a violation is reported;
//   - logs (s, rw, lw) triples — a local read s of a value whose
//     immediately preceding local write lw was overwritten by remote write
//     rw — for the a posteriori examination of §2.3.
//
// Hot-path representation: per-thread block metadata lives in a paged flat
// store (internal/blockstore) so the per-access lookup is array indexing,
// CU footprints are small-sets (blockset.go), and CU storage is recycled
// through a reference-counted arena (arena.go).
package svd

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"unsafe"

	"repro/internal/blockstore"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Options tune the detector. The zero value enables the paper's published
// configuration: word-size blocks, address and control dependences on, and
// conflict checks restricted to CU input blocks (§4.3).
type Options struct {
	// CheckAllBlocks widens the strict-2PL check from a CU's input blocks
	// (the paper's heuristic, §4.3 "Check only input blocks of a CU") to
	// its whole footprint. Ablation knob.
	CheckAllBlocks bool

	// NoAddressDeps disables conflict checks on address-dependent blocks
	// of stores (§4.3 "Handle vector, pointer data types"). Ablation knob.
	NoAddressDeps bool

	// NoControlDeps disables the Skipper control-dependence stack
	// (§4.2 "Infer partial control dependences"). Ablation knob.
	NoControlDeps bool

	// BlockShift selects the block size as 1<<BlockShift words. The paper
	// evaluates with word-size blocks to avoid false sharing (§6.2);
	// larger blocks are an ablation knob.
	BlockShift uint

	// MaxViolations caps the retained violation records (counting
	// continues past the cap). Zero means 1 << 16.
	MaxViolations int

	// MaxLogEntries caps the retained a posteriori log records. Zero
	// means 1 << 16.
	MaxLogEntries int

	// NoCUArena disables computational-unit recycling: every unit is a
	// fresh allocation, as in the original implementation. Debug and
	// differential-testing knob.
	NoCUArena bool

	// NoInterestIndex disables the block interest index: every memory
	// instruction fans out to every other thread instance, as in the
	// original implementation. Debug and differential-testing knob; the
	// indexed path delivers to exactly the threads holding materialized
	// state for the block, which is output-identical.
	NoInterestIndex bool

	// Witness turns on the violation flight recorder (DESIGN.md §9): each
	// thread keeps a bounded ring of its recent accesses, and violations
	// fold into site-pair groups (store PC, conflicting PC). The first
	// violation of a group assembles the group's exemplar obs.Witness —
	// the victim unit's footprint, the stale input access, the
	// conflicting remote access, and the interleaving window sliced from
	// the rings; later ones only bump its count. Off (the default) the
	// hot path pays one nil check per access.
	Witness bool

	// WitnessAll, with Witness, also assembles a witness for every
	// violation into a flat list that pairs index-for-index with
	// Violations() (AllWitnesses) — the evidence anchored journal replay
	// attaches to each anchor. Groups, stats and telemetry are the same
	// with or without it.
	WitnessAll bool

	// WitnessRing sets the per-thread access-ring capacity when Witness is
	// on. Zero means obs.DefaultWitnessRing.
	WitnessRing int

	// Recorder attaches the telemetry layer (internal/obs): CU lifecycle
	// events, violation/log-triple provenance, and end-of-run gauges. Nil
	// (the default) keeps the hot path free of telemetry work beyond one
	// predictable nil check per hook.
	Recorder *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.MaxViolations <= 0 {
		o.MaxViolations = 1 << 16
	}
	if o.MaxLogEntries <= 0 {
		o.MaxLogEntries = 1 << 16
	}
	if o.WitnessRing <= 0 {
		o.WitnessRing = obs.DefaultWitnessRing
	}
	return o
}

// fsmState is the per-block, per-thread sharing state machine of Figure 8.
type fsmState uint8

const (
	stIdle fsmState = iota
	stLoaded
	stLoadedShared
	stStored
	stStoredShared
	stTrueDep
)

var fsmNames = [...]string{
	stIdle: "Idle", stLoaded: "Loaded", stLoadedShared: "Loaded_Shared",
	stStored: "Stored", stStoredShared: "Stored_Shared", stTrueDep: "True_Dep",
}

func (s fsmState) String() string { return fsmNames[s] }

// Access kinds indexing the dense FSM transition table.
const (
	kindLoad = iota
	kindStore
	kindRemote
)

// fsmNext is Figure 8 as a dense (accessKind, state) table: the plain
// transitions of load, store, and remote collapse to one indexed fetch
// instead of a state switch per access. Rows are sized to the uint8
// state's full range so the fetch compiles without a bounds check;
// states outside the enum map to themselves (unreachable, but harmless).
// Transitions with side effects stay as explicit branches at the call
// sites: load's Stored_Shared cut runs before its table transition, and
// remote's True_Dep case (log + cut) bypasses the table entirely.
var fsmNext = func() [3][256]fsmState {
	var t [3][256]fsmState
	for k := range t {
		for s := range t[k] {
			t[k][s] = fsmState(s)
		}
	}
	t[kindLoad][stIdle] = stLoaded
	t[kindLoad][stStored] = stTrueDep
	t[kindLoad][stStoredShared] = stLoaded // after the cut reset
	t[kindStore][stIdle] = stStored
	t[kindStore][stLoaded] = stStored
	t[kindStore][stLoadedShared] = stStoredShared
	t[kindRemote][stLoaded] = stLoadedShared
	t[kindRemote][stStored] = stStoredShared
	return t
}()

// locallyWritten reports whether the state implies this thread has written
// the block since the state was last reset.
func (s fsmState) locallyWritten() bool {
	return s == stStored || s == stStoredShared || s == stTrueDep
}

// Violation is one dynamic strict-2PL (serializability) violation report:
// the store at StorePC depended on input block Block of computational unit
// CU, and that block had suffered a conflicting access from another
// processor before the unit ended.
type Violation struct {
	Seq     uint64 // sequence number of the reporting store
	CPU     int    // reporting processor/thread
	StorePC int64  // PC of the store that failed the check
	Block   int64  // block (word address >> BlockShift) that conflicted
	CU      uint64 // id of the computational unit

	// The conflicting remote access.
	ConflictCPU int
	ConflictPC  int64
	ConflictSeq uint64
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("serializability violation: cpu %d store@pc %d (seq %d) on CU %d: block %d conflicted with cpu %d pc %d (seq %d)",
		v.CPU, v.StorePC, v.Seq, v.CU, v.Block, v.ConflictCPU, v.ConflictPC, v.ConflictSeq)
}

// LogEntry is one (s, rw, lw) triple of the a posteriori examination log
// (§2.3): statement s read a block whose value, last written locally by lw,
// had been overwritten by the remote write rw.
type LogEntry struct {
	CPU   int
	Block int64

	ReadPC  int64 // s: the local read (for remote-cut entries, the read that formed the true dependence)
	ReadSeq uint64

	RemoteWritePC  int64 // rw
	RemoteWriteCPU int
	RemoteWriteSeq uint64

	LocalWritePC  int64 // lw
	LocalWriteSeq uint64

	// Dynamic counts how many times this static (s, rw, lw) triple
	// occurred.
	Dynamic uint64

	// ReaderCPUs and WriterCPUs record, as bitmasks, every thread that
	// appeared as the reader s or the remote writer rw across the
	// triple's dynamic occurrences (threads past 64 fold into bit 63).
	ReaderCPUs, WriterCPUs uint64
}

func cpuBit(cpu int) uint64 {
	if cpu > 63 {
		cpu = 63
	}
	return 1 << uint(cpu)
}

// String renders the triple for reports.
func (e LogEntry) String() string {
	return fmt.Sprintf("cu log: cpu %d read@pc %d of block %d: local write@pc %d overwritten by cpu %d write@pc %d",
		e.CPU, e.ReadPC, e.Block, e.LocalWritePC, e.RemoteWriteCPU, e.RemoteWritePC)
}

// Stats aggregates detector activity for the evaluation harness.
type Stats struct {
	Instructions uint64 // dynamic instructions observed
	Loads        uint64
	Stores       uint64
	RemoteEvents uint64 // remote-access messages delivered to instances

	CUsCreated uint64 // computational units allocated
	CUsMerged  uint64 // units consumed by merge_and_update
	CUsCut     uint64 // units ended by shared dependences

	// Arena counters: every created unit is either served from the free
	// list (CUsReused) or carved fresh from a slab (CUsAllocated);
	// CUsRecycled counts units returned to the free list once
	// unreachable. Benchmarks derive bytes-per-Minstr from these.
	CUsAllocated uint64
	CUsReused    uint64
	CUsRecycled  uint64

	// Remote-propagation counters: per memory instruction the detector
	// owes NumCPUs-1 potential notifications; RemoteSent counts the ones
	// actually dispatched to a thread instance and RemoteSkipped the ones
	// the interest index proved unnecessary (always zero with
	// NoInterestIndex). Sent+Skipped is path-independent.
	RemoteSent    uint64
	RemoteSkipped uint64

	Violations      uint64 // dynamic violation reports (pre-cap)
	Witnesses       uint64 // exemplar witnesses assembled: one per site-pair group (Options.Witness)
	LogEntries      uint64 // dynamic (s, rw, lw) log occurrences (pre-cap)
	SharedCutLoads  uint64 // CU cuts caused by loads of Stored_Shared blocks
	SharedCutRemote uint64 // CU cuts caused by remote access to True_Dep blocks
}

// CUsLive returns the net number of computational units (created minus
// merged away); Table 2 reports CUs per million instructions on this basis.
func (s Stats) CUsLive() uint64 { return s.CUsCreated - s.CUsMerged }

// blockState is the per-thread view of one memory block: 72 bytes, so
// a 512-slot page is 36 KB. Sequence numbers keep 64 bits; PCs and CPU
// ids are stored in 32 and widened back to int64/int where they leave
// the detector (Violation, LogEntry, obs.Witness). That is lossless:
// New refuses a program of 2^31 or more instructions, the VM only
// emits PCs inside its program and StepColumns' preflight rejects any
// other, and a CPU id indexes the detector's thread slice.
type blockState struct {
	// The fields every access reads sit next to cu in the record's
	// first 16 bytes, on cu's cache line for seven records in eight.
	cu             *cu
	state          fsmState
	touched        bool // a local access materialized this block's state
	conflict       bool
	conflictWrite  bool
	hasLocalWrite  bool
	hasLocalLoad   bool
	hasRemoteWrite bool

	// First unconsumed conflicting remote access, for violation reports.
	conflictPC  int32
	conflictCPU int32
	conflictSeq uint64

	// Access history for the a posteriori log.
	localWritePC   int32
	localLoadPC    int32
	remoteWritePC  int32
	remoteWriteCPU int32
	localWriteSeq  uint64
	localLoadSeq   uint64
	remoteWriteSeq uint64
}

// ctrlEntry is one Skipper control-dependence stack slot.
type ctrlEntry struct {
	cuSet    []*cu
	reconvPC int64
	depth    int // call depth at push time
}

// threadState is one per-processor detector instance.
type threadState struct {
	d       *Detector
	id      int
	blocks  *blockstore.Store[blockState]
	nblocks int // blocks with touched state (local accesses)
	regs    [isa.NumRegs][]*cu
	ctrl    []ctrlEntry
	depth   int // call depth (JAL/JR balance)

	unionBuf []*cu // scratch for register-set unions

	// Two-entry MRU cache over blocks: cb<i> is the block id, cbp<i> the
	// store slot for it (nil marks the entry invalid — block ids have no
	// spare sentinel, negatives are legal). Consecutive accesses to one
	// block, and alternating accesses to two — the dominant patterns in
	// the Table 2 workloads — resolve to a pointer compare instead of a
	// paged-store probe. Safe because the store never moves a
	// materialized slot (pages are stable, overflow entries are boxed);
	// the one operation that invalidates a slot's contents, Delete, is
	// reached only through evictBlock, which clears matching entries.
	// Cached entries are always touched. Clone builds fresh
	// threadStates and Reset clears both caches, so none survives
	// either.
	cb0, cb1   int64
	cbp0, cbp1 *blockState

	// Last (block → interest mask) pairs served by fanout for this
	// thread's accesses, valid while fanGen matches ix.Gen(): tight
	// sharing loops pay one directory probe per run instead of per
	// access. Per-thread rather than detector-global because the VM
	// interleaves threads round-robin — each thread's stream has block
	// locality, the merged stream does not. Two MRU entries so a thread
	// alternating between two blocks still hits. fanOK false marks an
	// entry empty; any generation change invalidates both.
	fanB     [2]int64
	fanSet   [2]blockstore.ThreadSet
	fanOK    [2]bool
	fanQuiet [2]bool // entry's set minus this thread was empty when cached
	fanGen   uint64

	// ring is the flight-recorder buffer of this thread's recent accesses;
	// nil unless Options.Witness.
	ring *obs.AccessRing
}

// Detector is the online SVD. It implements vm.Observer.
type Detector struct {
	prog    *isa.Program
	opts    Options
	rec     *obs.Recorder // telemetry hooks; nil when disabled
	threads []*threadState

	// ix is the global block interest index: which threads hold touched
	// state per block, so remote propagation visits only them. Nil with
	// Options.NoInterestIndex (full fan-out fallback).
	ix *blockstore.Interest

	// batchErr poisons the columnar path: a batch failed preflight
	// validation (a PC outside the program), no row of it was applied,
	// and every later batch is dropped. See StepColumns.
	batchErr error

	// CU arena storage (see arena.go).
	free  []*cu
	slab  []cu   // uncarved rest of the current chunk
	slabs [][]cu // chunks carved since New; Reset carves them again
	nslab int    // chunks of slabs carved since the last Reset

	nextCU     uint64
	violations []Violation
	groups     obs.GroupSet  // site-pair witness groups (Options.Witness)
	all        []obs.Witness // one witness per violation (Options.WitnessAll)
	sites      map[int64]*Site
	logEntries []LogEntry
	logSeen    map[logKey]int // static triple -> index in logEntries
	stats      Stats
}

type logKey struct {
	readPC, remotePC, localPC int64
}

// New builds a detector for prog observed across numCPUs processors. It
// panics on a program of 2^31 or more instructions, whose PCs the
// per-block records could not hold.
func New(prog *isa.Program, numCPUs int, opts Options) *Detector {
	if len(prog.Code) > math.MaxInt32 {
		panic(fmt.Sprintf("svd: program %q has %d instructions, more than 2^31-1", prog.Name, len(prog.Code)))
	}
	d := &Detector{
		prog:    prog,
		opts:    opts.withDefaults(),
		rec:     opts.Recorder,
		logSeen: make(map[logKey]int),
	}
	if !d.opts.NoInterestIndex {
		d.ix = blockstore.NewInterest(blockstore.Options{})
	}
	d.threads = make([]*threadState, numCPUs)
	for i := range d.threads {
		d.threads[i] = &threadState{
			d:      d,
			id:     i,
			blocks: blockstore.New[blockState](blockstore.Options{}),
		}
		if d.opts.Witness {
			d.threads[i].ring = obs.NewAccessRing(d.opts.WitnessRing)
		}
	}
	return d
}

// Reset discards all detector state, as after a backward-error-recovery
// rollback or before the detector serves its next stream: afterwards it
// behaves exactly like New with the same program, thread count and
// options. It clears in place rather than rebuilding, so a detector
// reused run after run stops allocating once warm: the block pages the
// run materialized are zeroed and kept (blockstore.Store.Clear), the CU
// arena rewinds over the chunks it already carved, and registers,
// control stacks and access rings empty into their existing storage.
// The witness groups and AllWitnesses slices are dropped, never
// reused, because samples and journal anchors may still hold them;
// the storage behind Violations is reused.
func (d *Detector) Reset() {
	for _, t := range d.threads {
		t.reset()
	}
	if d.ix != nil {
		d.ix.Clear()
	}
	d.rewindArena()
	d.batchErr = nil
	d.nextCU = 0
	d.violations = d.violations[:0]
	d.groups = obs.GroupSet{}
	d.all = nil
	clear(d.sites)
	d.logEntries = d.logEntries[:0]
	clear(d.logSeen)
	d.stats = Stats{}
}

// reset empties one thread instance in place for Detector.Reset. Every
// CU reference it drops dies with the arena's rewind, so none is
// released one by one.
func (t *threadState) reset() {
	t.blocks.Clear()
	t.nblocks = 0
	for r := range t.regs {
		clear(t.regs[r])
		t.regs[r] = t.regs[r][:0]
	}
	// Entries past len were emptied when popped (dropCtrlTop).
	for i := range t.ctrl {
		e := &t.ctrl[i]
		clear(e.cuSet)
		e.cuSet = e.cuSet[:0]
	}
	t.ctrl = t.ctrl[:0]
	t.depth = 0
	// The cleared pages are detached, so cached slots must die; the
	// fan-out cache would die anyway with the index's generation bump.
	t.cb0, t.cb1, t.cbp0, t.cbp1 = 0, 0, nil, nil
	t.fanB, t.fanSet, t.fanOK, t.fanQuiet, t.fanGen = [2]int64{}, [2]blockstore.ThreadSet{}, [2]bool{}, [2]bool{}, 0
	if t.ring != nil {
		t.ring.Reset()
	}
}

// SetRecorder attaches rec as the telemetry recorder, as
// Options.Recorder does at New; nil detaches it. Call it between runs
// only, on a new or just-reset detector.
func (d *Detector) SetRecorder(rec *obs.Recorder) {
	d.rec = rec
	d.opts.Recorder = rec
}

// Retained reports the bytes of the storage Reset keeps for the next
// run that grows with what a run touches: block pages (spares
// included), the interest index's pages and the CU arena's chunks. A
// caller holding detectors for reuse bounds them by it.
func (d *Detector) Retained() int {
	n := len(d.slabs) * cuSlabSize * int(unsafe.Sizeof(cu{}))
	if d.ix != nil {
		n += d.ix.HeldBytes()
	}
	for _, t := range d.threads {
		n += t.blocks.HeldBytes()
	}
	return n
}

// Violations returns the retained dynamic violation reports; nil when
// there are none. The slice is valid until the next Reset.
func (d *Detector) Violations() []Violation {
	if len(d.violations) == 0 {
		return nil
	}
	return d.violations
}

// WitnessGroups returns the violation witness groups, one per site pair
// (store PC, conflicting PC) in first-seen order, each with its exact
// count and its first violation's witness. The number of groups is
// capped at Options.MaxViolations; a violation at a new pair past the
// cap is only counted in Stats. Nil without Options.Witness. Callers
// must not modify the slice.
func (d *Detector) WitnessGroups() []obs.WitnessGroup { return d.groups.Groups() }

// AllWitnesses returns one witness per retained violation, pairing
// index-for-index with Violations(). Nil unless Options.WitnessAll.
func (d *Detector) AllWitnesses() []obs.Witness { return d.all }

// Log returns a copy of the retained a posteriori examination log.
// Entries are deduplicated by static (s, rw, lw) PC triple;
// Stats().LogEntries counts dynamic occurrences. The copy is defensive:
// callers may sort or mutate it without corrupting the detector's
// internal log.
func (d *Detector) Log() []LogEntry {
	if len(d.logEntries) == 0 {
		return nil
	}
	return append([]LogEntry(nil), d.logEntries...)
}

// Stats returns aggregate counters.
func (d *Detector) Stats() Stats { return d.stats }

// BatchErr reports whether the columnar path poisoned the detector: a
// batch handed to StepColumns failed preflight validation. The error is
// sticky; no row of the offending batch or any later batch was applied.
// The per-event path never sets it.
func (d *Detector) BatchErr() error { return d.batchErr }

// Add accumulates o into s field-wise. report.MergeSamples uses it to
// fold detector counters across parallel sample runs.
func (s *Stats) Add(o Stats) {
	s.Instructions += o.Instructions
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.RemoteEvents += o.RemoteEvents
	s.CUsCreated += o.CUsCreated
	s.CUsMerged += o.CUsMerged
	s.CUsCut += o.CUsCut
	s.CUsAllocated += o.CUsAllocated
	s.CUsReused += o.CUsReused
	s.CUsRecycled += o.CUsRecycled
	s.RemoteSent += o.RemoteSent
	s.RemoteSkipped += o.RemoteSkipped
	s.Violations += o.Violations
	s.Witnesses += o.Witnesses
	s.LogEntries += o.LogEntries
	s.SharedCutLoads += o.SharedCutLoads
	s.SharedCutRemote += o.SharedCutRemote
}

// FlushObs records end-of-run gauges into the attached recorder: each
// thread's block-store occupancy and the CU arena's recycling counters.
// The harness calls it once after a run; without a recorder it is a
// no-op. (The recorder itself is flushed to its sink by the harness.)
func (d *Detector) FlushObs() {
	if d.rec == nil {
		return
	}
	for _, t := range d.threads {
		slots, pages, overflow := t.blocks.PageStats()
		d.rec.ObserveStore(t.id, pages, slots+overflow, t.nblocks)
	}
	d.rec.ObserveArena(d.stats.CUsAllocated, d.stats.CUsReused, d.stats.CUsRecycled)
	d.rec.ObserveRemote(d.stats.RemoteSent, d.stats.RemoteSkipped)
}

// block maps a word address to a block id.
func (d *Detector) block(addr int64) int64 { return addr >> d.opts.BlockShift }

// Step processes one dynamic instruction (vm.Observer). It is the
// reference path: StepColumns must stay bit-identical to it.
func (d *Detector) Step(ev *vm.Event) {
	d.stats.Instructions++
	d.threads[ev.CPU].step(ev)
}

// fanout propagates a memory access to the remote thread instances. With
// the interest index, only threads holding touched state for the block
// are visited — in ascending id order, exactly the order (restricted to
// the subset that reacts) of the full fan-out, so reports and log entries
// land identically. A block solely owned by the accessor broadcasts to no
// one.
//
// The return value reports that the access was quiet: nothing was
// delivered, and an identical access to the same block would again
// deliver nothing and adjust stats identically (RemoteSkipped by the
// peer count). StepColumns uses it to skip fanout for the rest of a
// same-thread same-block run — sound because between two accesses of one
// run only the accessor itself can gain interest in the block, and the
// accessor is excluded from its own fan-out.
func (d *Detector) fanout(ev *vm.Event, b int64) (quiet bool) {
	peers := len(d.threads) - 1
	if d.ix == nil {
		for _, t := range d.threads {
			if t.id != ev.CPU {
				t.remote(ev, b)
			}
		}
		d.stats.RemoteSent += uint64(peers)
		return peers == 0
	}
	src := d.threads[ev.CPU]
	if gen := d.ix.Gen(); gen != src.fanGen {
		src.fanGen = gen
		src.fanOK[0], src.fanOK[1] = false, false
		// The quiet bits must die with their entries: the shuffles below
		// move them between slots without re-checking the generation, and
		// quietHit trusts any true bit under a matching fanGen.
		src.fanQuiet[0], src.fanQuiet[1] = false, false
	}
	set := src.fanSet[0]
	switch {
	case src.fanOK[0] && src.fanB[0] == b:
	case src.fanOK[1] && src.fanB[1] == b:
		set = src.fanSet[1]
		// Promote to MRU so a two-block ping-pong hits on every access.
		src.fanB[1], src.fanSet[1], src.fanOK[1], src.fanQuiet[1] =
			src.fanB[0], src.fanSet[0], src.fanOK[0], src.fanQuiet[0]
		src.fanB[0], src.fanSet[0], src.fanOK[0] = b, set, true
	default:
		set = d.ix.Get(b)
		src.fanB[1], src.fanSet[1], src.fanOK[1], src.fanQuiet[1] =
			src.fanB[0], src.fanSet[0], src.fanOK[0], src.fanQuiet[0]
		src.fanB[0], src.fanSet[0], src.fanOK[0] = b, set, true
	}
	mask := set.Bits()
	if ev.CPU < 64 {
		mask &^= 1 << uint(ev.CPU)
	}
	sent := 0
	for rest := mask; rest != 0; rest &= rest - 1 {
		d.threads[mathbits.TrailingZeros64(rest)].remote(ev, b)
		sent++
	}
	if set.HasHigh() {
		for tid := 64; tid < len(d.threads); tid++ {
			if tid != ev.CPU {
				d.threads[tid].remote(ev, b)
				sent++
			}
		}
	}
	d.stats.RemoteSent += uint64(sent)
	d.stats.RemoteSkipped += uint64(peers - sent)
	// High-folded members always deliver (and count as sent), so sent==0
	// alone proves the set minus the accessor was empty. Slot 0 holds b
	// on every path out of the switch above, so the quiet bit lands on
	// the right entry; step's fan fast path reads it to skip this whole
	// call for repeat accesses to a private block.
	src.fanQuiet[0] = sent == 0
	return sent == 0
}

// quietHit reports that the per-thread cache proves block b quiet for
// this thread right now: MRU entry matches, generation current, and the
// entry's effective set was empty. The caller can then account
// RemoteSkipped for all peers and skip the fanout call entirely —
// remote() and cut() never change interest membership, so a quiet block
// stays quiet for this thread until some thread materializes or evicts
// state (both bump the generation). fanOK[0] needs no check: fanQuiet[0]
// is set only at the end of a fanout call, which always leaves slot 0
// valid for the block it ran on at the generation now in fanGen, so a
// true quiet bit under a matching generation can only describe a live
// entry. Inlinable; step uses it to keep the dominant private-block case
// free of the (non-inlinable) fanout call.
func (t *threadState) quietHit(b int64) bool {
	ix := t.d.ix
	if ix == nil || t.fanGen != ix.Gen() {
		return false
	}
	return (t.fanQuiet[0] && t.fanB[0] == b) || (t.fanQuiet[1] && t.fanB[1] == b)
}

// ----- per-thread instance -----

// ensureBlock materializes (and marks touched) the thread's state for a
// locally accessed block. The MRU cache entry resolves repeat accesses
// with one compare; everything else goes through ensureBlockSlow, which
// keeps this wrapper small enough to inline into load and store.
func (t *threadState) ensureBlock(b int64) *blockState {
	bs := t.cbp0
	if bs == nil || t.cb0 != b {
		bs = t.ensureBlockSlow(b)
	}
	return bs
}

func (t *threadState) ensureBlockSlow(b int64) *blockState {
	if bs := t.cbp1; bs != nil && t.cb1 == b {
		// Promote to MRU so a two-block ping-pong hits on every access.
		t.cb1 = t.cb0
		t.cb0 = b
		t.cbp1 = t.cbp0
		t.cbp0 = bs
		return bs
	}
	bs := t.blocks.Ensure(b)
	if !bs.touched {
		bs.touched = true
		t.nblocks++
		if ix := t.d.ix; ix != nil {
			ix.Add(b, t.id)
		}
	}
	t.cb1 = t.cb0
	t.cb0 = b
	t.cbp1 = t.cbp0
	t.cbp0 = bs
	return bs
}

// lookupBlock returns the thread's state for a block, or nil when no local
// access has materialized one — flat-store neighbors of touched blocks
// report nil exactly like absent map entries did. Hits and successful
// lookups maintain the same MRU cache as ensureBlock (cached entries are
// touched by construction, so a cache hit needs no touched check).
func (t *threadState) lookupBlock(b int64) *blockState {
	if bs := t.cbp0; bs != nil && t.cb0 == b {
		return bs
	}
	if bs := t.cbp1; bs != nil && t.cb1 == b {
		t.cb1 = t.cb0
		t.cb0 = b
		t.cbp1 = t.cbp0
		t.cbp0 = bs
		return bs
	}
	bs := t.blocks.Lookup(b)
	if bs == nil || !bs.touched {
		return nil
	}
	t.cb1 = t.cb0
	t.cb0 = b
	t.cbp1 = t.cbp0
	t.cbp0 = bs
	return bs
}

// evictBlock drops the thread's state for a block entirely (hardware-mode
// cache eviction). Delete zeroes (dense) or unboxes (overflow) the slot,
// so any cache entry naming the block must die with it.
func (t *threadState) evictBlock(b int64) {
	bs := t.lookupBlock(b)
	if bs == nil {
		return
	}
	if bs.cu != nil {
		t.d.release(bs.cu)
		bs.cu = nil
	}
	t.blocks.Delete(b)
	t.nblocks--
	if t.cb0 == b {
		t.cbp0 = nil
	}
	if t.cb1 == b {
		t.cbp1 = nil
	}
	if ix := t.d.ix; ix != nil {
		ix.Remove(b, t.id)
	}
}

// currentCU resolves a block's CU, dropping dead units. The dominant
// case — no unit, or a live root — inlines to two field tests; forwarded
// or dead units take the slow path.
func (t *threadState) currentCU(bs *blockState) *cu {
	c := bs.cu
	if c == nil || (c.parent == nil && c.active) {
		return c
	}
	return t.currentCUSlow(bs)
}

func (t *threadState) currentCUSlow(bs *blockState) *cu {
	c := t.d.find(bs.cu)
	if !c.active {
		t.d.release(bs.cu)
		bs.cu = nil
		return nil
	}
	if c != bs.cu {
		t.d.acquire(c)
		t.d.release(bs.cu)
		bs.cu = c
	}
	return c
}

// setBlockCU points a block at a unit, adjusting references. Acquiring
// before releasing makes self-assignment safe; the self-assignment case
// itself (a store extending the unit the block already carries) is a
// pure no-op — the acquire/release pair cancels without the count ever
// dipping — so it returns before any refcount traffic.
func (t *threadState) setBlockCU(bs *blockState, c *cu) {
	if bs.cu == c {
		return
	}
	t.setBlockCUSlow(bs, c)
}

func (t *threadState) setBlockCUSlow(bs *blockState, c *cu) {
	t.d.acquire(c)
	if old := bs.cu; old != nil {
		t.d.release(old)
	}
	bs.cu = c
}

// step processes an instruction executed by this thread including the
// remote fan-out of memory accesses — the software detector's whole
// per-event pipeline in one frame. It is local with the fan-out fused
// into the memory arms: the block id is computed once and shared between
// the FSM update and the fan-out, and the per-event path pays one call
// instead of two. The opcode dispatch is a dense switch (one jump-table
// indirection); the per-block sharing FSM it feeds is the dense fsmNext
// transition table. An opcode→effect-class indirection was measured
// here and rejected: the extra dependent byte load cost ~2 ns/instr on
// the CI host against a switch the compiler already compiles densely.
//
// A CAS fans out once, after both its load and (on success) store halves
// ran locally — the same order Step's trailing fanout call used to
// produce.
func (t *threadState) step(ev *vm.Event) {
	if len(t.ctrl) != 0 {
		t.popCtrl(ev.PC)
	}

	in := &ev.Instr
	switch in.Op {
	case isa.OpLoad:
		t.d.stats.Loads++
		b := t.d.block(ev.Addr)
		t.load(ev, b, in.Rd)
		if t.quietHit(b) {
			t.d.stats.RemoteSkipped += uint64(len(t.d.threads) - 1)
		} else {
			t.d.fanout(ev, b)
		}

	case isa.OpStore:
		t.d.stats.Stores++
		b := t.d.block(ev.Addr)
		t.store(ev, b, in.Rs2, in.Rs1)
		if t.quietHit(b) {
			t.d.stats.RemoteSkipped += uint64(len(t.d.threads) - 1)
		} else {
			t.d.fanout(ev, b)
		}

	case isa.OpCas:
		b := t.d.block(ev.Addr)
		t.d.stats.Loads++
		t.load(ev, b, in.Rd)
		if ev.IsStore {
			t.d.stats.Stores++
			t.store(ev, b, in.Rs3, in.Rs1)
		}
		if t.quietHit(b) {
			t.d.stats.RemoteSkipped += uint64(len(t.d.threads) - 1)
		} else {
			t.d.fanout(ev, b)
		}

	case isa.OpLI:
		t.clearReg(in.Rd)

	case isa.OpMov, isa.OpAddi:
		// RegZero's set is permanently empty, so it doubles as "no second
		// source" here.
		t.setRegFrom(in.Rd, in.Rs1, isa.RegZero)

	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod, isa.OpAnd,
		isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSlt, isa.OpSle,
		isa.OpSeq, isa.OpSne:
		t.setRegFrom(in.Rd, in.Rs1, in.Rs2)

	case isa.OpBeqz, isa.OpBnez:
		t.pushCtrl(ev)

	case isa.OpJal:
		t.clearReg(in.Rd)
		t.depth++

	case isa.OpJr:
		t.depth--
		for len(t.ctrl) > 0 && t.ctrl[len(t.ctrl)-1].depth > t.depth {
			t.dropCtrlTop()
		}
	}
}

// local processes an instruction executed by this thread WITHOUT the
// remote fan-out — the hardware mode's entry point, where coherence
// traffic replaces the software broadcast. It must stay
// case-for-case identical to step minus the fanout calls; the
// differential tests in internal/report hold the two paths together.
func (t *threadState) local(ev *vm.Event) {
	// Reaching a reconvergence point retires control dependences before
	// the instruction at that point executes. The stack is empty for the
	// vast majority of instructions; the length check here keeps that
	// common case free of the (non-inlinable) pop loop's call overhead.
	if len(t.ctrl) != 0 {
		t.popCtrl(ev.PC)
	}

	in := &ev.Instr
	switch in.Op {
	case isa.OpLoad:
		t.d.stats.Loads++
		t.load(ev, t.d.block(ev.Addr), in.Rd)

	case isa.OpStore:
		t.d.stats.Stores++
		t.store(ev, t.d.block(ev.Addr), in.Rs2, in.Rs1)

	case isa.OpCas:
		// CAS always loads; it stores only when it succeeded. The value
		// and address dependences of the store part come from the new
		// value (Rs3) and the address register (Rs1).
		t.d.stats.Loads++
		t.load(ev, t.d.block(ev.Addr), in.Rd)
		if ev.IsStore {
			t.d.stats.Stores++
			t.store(ev, t.d.block(ev.Addr), in.Rs3, in.Rs1)
		}

	case isa.OpLI:
		t.clearReg(in.Rd)

	case isa.OpMov, isa.OpAddi:
		// RegZero's set is permanently empty, so it doubles as "no second
		// source" here.
		t.setRegFrom(in.Rd, in.Rs1, isa.RegZero)

	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod, isa.OpAnd,
		isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSlt, isa.OpSle,
		isa.OpSeq, isa.OpSne:
		t.setRegFrom(in.Rd, in.Rs1, in.Rs2)

	case isa.OpBeqz, isa.OpBnez:
		t.pushCtrl(ev)

	case isa.OpJal:
		t.clearReg(in.Rd)
		t.depth++

	case isa.OpJr:
		t.depth--
		// Returning from a call retires control entries pushed inside it.
		for len(t.ctrl) > 0 && t.ctrl[len(t.ctrl)-1].depth > t.depth {
			t.dropCtrlTop()
		}
	}
}

// setRegFrom points rd at the concatenation of the source registers'
// sets, exploiting the aliasing the register indices expose — something
// setRegUnion, handed bare slices, cannot see. The result (rd's multiset
// content, every unit's final reference count, and the arena free list)
// is identical to the staging path for every case; only redundant
// release/acquire pairs and copies are skipped:
//
//   - rd == rs1 with an empty rs2 (mov/addi accumulators): rd's set IS
//     the result. No reference moves at all.
//   - rd == rs1 with rs2 distinct: the result is rd's own set with rs2's
//     appended. rd's references stay put; only rs2's elements are
//     acquired. (rs2 == rd also lands here: reads index the captured
//     slice header, appends write past its length.)
//   - rd not a source: the union is built directly in rd's backing array
//     — one copy instead of stage-then-copy. Releasing rd's old
//     references first cannot reclaim a unit still to be copied, because
//     every element of a source set holds its own counted reference.
//   - rd == rs2 only: the result interleaves rs1's elements before rd's
//     current ones, so the staging path's ordering is actually needed.
func (t *threadState) setRegFrom(rd, rs1, rs2 isa.Reg) {
	if rd == isa.RegZero {
		return
	}
	if rd == rs1 {
		s2 := t.regs[rs2]
		if len(s2) == 0 {
			return
		}
		dst := t.regs[rd]
		for _, c := range s2 {
			dst = append(dst, t.d.acquire(c))
		}
		t.regs[rd] = dst
		return
	}
	if rd == rs2 {
		t.setRegUnion(rd, t.regs[rs1], t.regs[rs2])
		return
	}
	old := t.regs[rd]
	for i, c := range old {
		t.d.release(c)
		old[i] = nil
	}
	dst := old[:0]
	for _, c := range t.regs[rs1] {
		dst = append(dst, t.d.acquire(c))
	}
	for _, c := range t.regs[rs2] {
		dst = append(dst, t.d.acquire(c))
	}
	t.regs[rd] = dst
}

// setRegUnion points rd at the concatenation of the source sets (register
// propagation keeps multiset semantics, so duplicates stay), reusing rd's
// backing array when its capacity allows. Sources may alias rd: the union
// is staged in a scratch buffer with its references acquired before rd's
// old references are released. Empty sources leave rd empty with no
// allocation.
func (t *threadState) setRegUnion(rd isa.Reg, s1, s2 []*cu) {
	if rd == isa.RegZero {
		return
	}
	buf := t.unionBuf[:0]
	for _, c := range s1 {
		buf = append(buf, t.d.acquire(c))
	}
	for _, c := range s2 {
		buf = append(buf, t.d.acquire(c))
	}
	old := t.regs[rd]
	for i, c := range old {
		t.d.release(c)
		old[i] = nil
	}
	t.regs[rd] = append(old[:0], buf...)
	t.unionBuf = buf[:0]
}

// setRegSingle points rd at exactly one unit, reusing the register's
// backing array. The caller must guarantee c is pinned elsewhere (a block
// reference) so releasing the old set cannot reclaim it. A register that
// already holds exactly [c] — a loop re-loading into its accumulator —
// is a no-op: the acquire/release pair would cancel without the count
// ever dipping, so the fast path inlines to a compare.
func (t *threadState) setRegSingle(rd isa.Reg, c *cu) {
	s := t.regs[rd]
	if len(s) != 1 || s[0] != c {
		t.setRegSingleSlow(rd, c)
	}
}

func (t *threadState) setRegSingleSlow(rd isa.Reg, c *cu) {
	if rd == isa.RegZero {
		return
	}
	t.d.acquire(c)
	old := t.regs[rd]
	for i, oc := range old {
		t.d.release(oc)
		old[i] = nil
	}
	t.regs[rd] = append(old[:0], c)
}

// clearReg empties rd, keeping its backing array for reuse. An already
// empty register inlines to a length test.
func (t *threadState) clearReg(rd isa.Reg) {
	if len(t.regs[rd]) == 0 {
		return
	}
	t.clearRegSlow(rd)
}

func (t *threadState) clearRegSlow(rd isa.Reg) {
	if rd == isa.RegZero {
		return
	}
	old := t.regs[rd]
	for i, oc := range old {
		t.d.release(oc)
		old[i] = nil
	}
	t.regs[rd] = old[:0]
}

// load implements the LOAD case of Figure 7 plus the a posteriori log of
// §2.3 and the input-block rule of §2.2.1.
func (t *threadState) load(ev *vm.Event, b int64, rd isa.Reg) {
	bs := t.ensureBlock(b)

	// A load of a block this thread stored and another thread has since
	// accessed is a shared dependence: the region hypothesis says the
	// atomic region ended before this read, so the CU is cut here
	// (Figure 8 transition I; Figure 7 lines 5-6).
	if bs.state == stStoredShared {
		if c := t.currentCU(bs); c != nil {
			t.d.stats.SharedCutLoads++
			if r := t.d.rec; r != nil {
				r.CUCut(t.d.stats.Instructions, t.id, c.id, obs.CutLoadShared,
					t.d.stats.Instructions-c.born, c.rs.len()+c.ws.len())
			}
			t.cut(c)
		} else {
			bs.state = stIdle
			bs.conflict = false
		}
	}

	// A posteriori log: the value read was last written by another thread
	// and overwrote a preceding local write (§2.3).
	if bs.hasRemoteWrite && bs.hasLocalWrite && bs.remoteWriteSeq > bs.localWriteSeq {
		t.d.logTriple(LogEntry{
			CPU:            t.id,
			Block:          b,
			ReadPC:         ev.PC,
			ReadSeq:        ev.Seq,
			RemoteWritePC:  int64(bs.remoteWritePC),
			RemoteWriteCPU: int(bs.remoteWriteCPU),
			RemoteWriteSeq: bs.remoteWriteSeq,
			LocalWritePC:   int64(bs.localWritePC),
			LocalWriteSeq:  bs.localWriteSeq,
		})
	}

	// currentCU's fast path, by hand: load is the hottest consumer and
	// the wrapper is just past the inlining budget.
	c := bs.cu
	if c != nil && (c.parent != nil || !c.active) {
		c = t.currentCUSlow(bs)
	}
	if c == nil {
		c = t.d.newCU()
		t.d.acquire(c)
		bs.cu = c
		if r := t.d.rec; r != nil {
			r.CUCreate(t.d.stats.Instructions, t.id, c.id)
		}
	}
	// Input blocks are locations not written by the CU before their first
	// read (§2.2.1).
	if !c.ws.has(b) {
		if r := t.d.rec; r != nil && !c.rs.has(b) {
			r.CUExtend(t.d.stats.Instructions, t.id, c.id, b, false)
		}
		c.rs.add(b)
	}

	bs.state = fsmNext[kindLoad][bs.state]

	bs.hasLocalLoad = true
	bs.localLoadPC = int32(ev.PC)
	bs.localLoadSeq = ev.Seq
	if t.ring != nil {
		t.ring.Add(obs.WitnessAccess{CPU: t.id, PC: ev.PC, Block: b, Seq: ev.Seq, CU: c.id})
	}
	t.setRegSingle(rd, c)
}

// store implements the STORE case of Figure 7: gather data, address, and
// control CU sets, check strict 2PL, then consolidate the data dependences
// into the block's CU.
func (t *threadState) store(ev *vm.Event, b int64, valReg, addrReg isa.Reg) {
	dataSet := t.d.resolve(t.regs[valReg])
	t.regs[valReg] = dataSet

	// The dependence sets are checked in sequence — data, address, control
	// stack bottom-up — instead of concatenated into a scratch buffer: the
	// CUs are visited in exactly the concatenation order and the first
	// conflict still wins, so reports are identical, but the common
	// violation-free store skips a buffer copy per event. Resolution is
	// unconditional (path compression must happen whether or not an
	// earlier set already reported).
	hit := t.checkViolations(ev, dataSet)
	if !t.d.opts.NoAddressDeps {
		addrSet := t.d.resolve(t.regs[addrReg])
		t.regs[addrReg] = addrSet
		if !hit {
			hit = t.checkViolations(ev, addrSet)
		}
	}
	if !t.d.opts.NoControlDeps {
		for i := range t.ctrl {
			e := &t.ctrl[i]
			e.cuSet = t.d.resolve(e.cuSet)
			if !hit {
				hit = t.checkViolations(ev, e.cuSet)
			}
		}
	}

	c := t.mergeAndUpdate(dataSet)
	bs := t.ensureBlock(b)
	t.setBlockCU(bs, c)
	if r := t.d.rec; r != nil && !c.ws.has(b) {
		r.CUExtend(t.d.stats.Instructions, t.id, c.id, b, true)
	}
	c.ws.add(b)

	// stStored, stStoredShared, stTrueDep keep their state in the table:
	// the write-after-write and write-read histories they encode remain
	// true.
	bs.state = fsmNext[kindStore][bs.state]

	bs.hasLocalWrite = true
	bs.localWritePC = int32(ev.PC)
	bs.localWriteSeq = ev.Seq
	if t.ring != nil {
		t.ring.Add(obs.WitnessAccess{CPU: t.id, PC: ev.PC, Block: b, Write: true, Seq: ev.Seq, CU: c.id})
	}
}

// checkViolations is Figure 7's check_violations: report a strict-2PL
// violation if a conflicting remote access has hit a checked block of any
// CU the store depends on. At most one violation is reported per store;
// the return value tells the caller to suppress checks on its remaining
// dependence sets.
func (t *threadState) checkViolations(ev *vm.Event, set []*cu) bool {
	for _, c := range set {
		if t.reportIfConflict(ev, c, &c.rs) {
			return true
		}
		if t.d.opts.CheckAllBlocks && t.reportIfConflict(ev, c, &c.ws) {
			return true
		}
	}
	return false
}

func (t *threadState) reportIfConflict(ev *vm.Event, c *cu, blocks *blockSet) bool {
	// Indexed iteration, not forEach: a capturing closure here is one
	// heap allocation per checked store, and this runs on every store.
	for i, n := 0, blocks.len(); i < n; i++ {
		b := blocks.at(i)
		bs := t.lookupBlock(b)
		if bs == nil || !bs.conflict {
			continue
		}
		// The conflict must belong to the unit being checked: a stale
		// block whose CU pointer moved on is skipped. (currentCU's fast
		// path by hand — this runs per footprint block per store.)
		cur := bs.cu
		if cur != nil && (cur.parent != nil || !cur.active) {
			cur = t.currentCUSlow(bs)
		}
		if cur != c {
			continue
		}
		t.d.stats.Violations++
		v := Violation{
			Seq:         ev.Seq,
			CPU:         t.id,
			StorePC:     ev.PC,
			Block:       b,
			CU:          c.id,
			ConflictCPU: int(bs.conflictCPU),
			ConflictPC:  int64(bs.conflictPC),
			ConflictSeq: bs.conflictSeq,
		}
		t.d.recordSite(v)
		if r := t.d.rec; r != nil {
			r.Violation(t.d.stats.Instructions, t.id, ev.PC, b, c.id)
		}
		if t.d.opts.Witness {
			t.foldWitness(v, c, bs)
		}
		if len(t.d.violations) < t.d.opts.MaxViolations {
			t.d.violations = append(t.d.violations, v)
		}
		return true
	}
	return false
}

// mergeAndUpdate is Figure 7's merge_and_update: consolidate the CUs in set
// into one unit. References held by blocks, registers, and the control
// stack follow lazily through union-find.
func (t *threadState) mergeAndUpdate(set []*cu) *cu {
	if len(set) == 0 {
		c := t.d.newCU()
		if r := t.d.rec; r != nil {
			r.CUCreate(t.d.stats.Instructions, t.id, c.id)
		}
		return c
	}
	root := set[0]
	for _, c := range set[1:] {
		if c == root {
			continue
		}
		// Keep the unit with the larger footprint as the root.
		if c.rs.len()+c.ws.len() > root.rs.len()+root.ws.len() {
			root, c = c, root
		}
		if r := t.d.rec; r != nil {
			r.CUMerge(t.d.stats.Instructions, t.id, c.id, root.id,
				t.d.stats.Instructions-c.born, c.rs.len()+c.ws.len())
		}
		for i, n := 0, c.rs.len(); i < n; i++ {
			if b := c.rs.at(i); !root.ws.has(b) {
				root.rs.add(b)
			}
		}
		for i, n := 0, c.ws.len(); i < n; i++ {
			b := c.ws.at(i)
			root.ws.add(b)
			root.rs.remove(b)
		}
		c.parent = t.d.acquire(root)
		c.active = false
		c.rs.reset()
		c.ws.reset()
		t.d.stats.CUsMerged++
	}
	return root
}

// cut is deactivate_log_CU: the unit ends; its blocks return to Idle with
// conflict flags cleared, and dangling references die via the active flag.
// The unit is pinned across the sweep: resetting its own blocks may drop
// the last external reference mid-iteration.
func (t *threadState) cut(c *cu) {
	t.d.acquire(c)
	c.active = false
	t.d.stats.CUsCut++
	for i, n := 0, c.rs.len(); i < n; i++ {
		t.resetBlock(c.rs.at(i), c)
	}
	for i, n := 0, c.ws.len(); i < n; i++ {
		t.resetBlock(c.ws.at(i), c)
	}
	t.d.release(c)
}

func (t *threadState) resetBlock(b int64, owner *cu) {
	bs := t.lookupBlock(b)
	if bs == nil {
		return
	}
	if bs.cu != nil && t.d.find(bs.cu) == owner {
		t.d.release(bs.cu)
		bs.cu = nil
		bs.state = stIdle
		bs.conflict = false
	}
}

// remote processes a memory access by another processor: update the block
// FSM, record conflicts for the strict-2PL check, cut on True_Dep, and
// remember remote writes for the a posteriori log.
func (t *threadState) remote(ev *vm.Event, b int64) {
	bs := t.lookupBlock(b)
	if bs == nil {
		// The thread never touched the block: no state is needed, and no
		// (s, rw, lw) triple is possible without a preceding local write.
		return
	}
	t.d.stats.RemoteEvents++
	isWrite := ev.IsStore

	if bs.state != stIdle {
		// A conflict needs at least one write: a remote write conflicts
		// with any local access; a remote read conflicts only when this
		// thread wrote the block.
		if !bs.conflict && (isWrite || bs.state.locallyWritten()) {
			bs.conflict = true
			bs.conflictCPU = int32(ev.CPU)
			bs.conflictPC = int32(ev.PC)
			bs.conflictSeq = ev.Seq
			bs.conflictWrite = isWrite
		}
	}

	if bs.state != stTrueDep {
		bs.state = fsmNext[kindRemote][bs.state]
	} else {
		// Shared dependence: this thread wrote then read the block inside
		// the unit, and the block just proved to be shared (Figure 8
		// transition II; Figure 7 lines 30-31).
		if isWrite && bs.hasLocalWrite && bs.hasLocalLoad {
			t.d.logTriple(LogEntry{
				CPU:            t.id,
				Block:          b,
				ReadPC:         int64(bs.localLoadPC),
				ReadSeq:        bs.localLoadSeq,
				RemoteWritePC:  ev.PC,
				RemoteWriteCPU: ev.CPU,
				RemoteWriteSeq: ev.Seq,
				LocalWritePC:   int64(bs.localWritePC),
				LocalWriteSeq:  bs.localWriteSeq,
			})
		}
		if c := t.currentCU(bs); c != nil {
			t.d.stats.SharedCutRemote++
			if r := t.d.rec; r != nil {
				r.CUCut(t.d.stats.Instructions, t.id, c.id, obs.CutRemoteTrueDep,
					t.d.stats.Instructions-c.born, c.rs.len()+c.ws.len())
			}
			t.cut(c)
		} else {
			bs.state = stIdle
			bs.conflict = false
		}
	}

	if isWrite {
		bs.hasRemoteWrite = true
		bs.remoteWritePC = int32(ev.PC)
		bs.remoteWriteCPU = int32(ev.CPU)
		bs.remoteWriteSeq = ev.Seq
	}
}

func (d *Detector) logTriple(e LogEntry) {
	d.stats.LogEntries++
	if r := d.rec; r != nil {
		r.LogTriple(d.stats.Instructions, e.CPU, e.ReadPC, e.RemoteWritePC, e.LocalWritePC)
	}
	key := logKey{readPC: e.ReadPC, remotePC: e.RemoteWritePC, localPC: e.LocalWritePC}
	if idx, seen := d.logSeen[key]; seen {
		kept := &d.logEntries[idx]
		kept.Dynamic++
		kept.ReaderCPUs |= cpuBit(e.CPU)
		kept.WriterCPUs |= cpuBit(e.RemoteWriteCPU)
		return
	}
	if len(d.logEntries) >= d.opts.MaxLogEntries {
		return
	}
	e.Dynamic = 1
	e.ReaderCPUs = cpuBit(e.CPU)
	e.WriterCPUs = cpuBit(e.RemoteWriteCPU)
	d.logSeen[key] = len(d.logEntries)
	d.logEntries = append(d.logEntries, e)
}

// ----- Skipper control-dependence stack -----

// pushCtrl handles a conditional branch: probe the static code for the
// control-flow reconvergence point and push the branch's CU dependences.
// Only forward, if-then(-else)-shaped branches are tracked; loop branches
// (backward reconvergence) are ignored, exactly as Skipper does (§4.2).
func (t *threadState) pushCtrl(ev *vm.Event) {
	if t.d.opts.NoControlDeps {
		return
	}
	target := ev.Instr.Imm
	reconv := target
	// Probe: when the instruction just before the branch target is a
	// branch-always, the branch guards an if/else and control reconverges
	// at the jump's destination; otherwise it guards a plain if and
	// control reconverges at the target itself (Figure 7 lines 24-26).
	if target-1 >= 0 && target-1 < int64(len(t.d.prog.Code)) {
		if prev := t.d.prog.Code[target-1]; prev.Op == isa.OpJmp {
			reconv = prev.Imm
		}
	}
	if reconv <= ev.PC {
		return // loop-type control flow: not inferred
	}
	set := t.d.resolve(t.regs[ev.Instr.Rs1])
	t.regs[ev.Instr.Rs1] = set
	// Reuse the backing array of a previously popped entry at this stack
	// slot, if any: branches are frequent and entries short-lived.
	var cuSet []*cu
	if n := len(t.ctrl); n < cap(t.ctrl) {
		cuSet = t.ctrl[: n+1 : cap(t.ctrl)][n].cuSet[:0]
	}
	for _, c := range set {
		cuSet = append(cuSet, t.d.acquire(c))
	}
	t.ctrl = append(t.ctrl, ctrlEntry{
		cuSet:    cuSet,
		reconvPC: reconv,
		depth:    t.depth,
	})
}

// dropCtrlTop pops the top control entry, releasing its references. The
// set's backing array stays in the stack's spare capacity for reuse by the
// next push.
func (t *threadState) dropCtrlTop() {
	e := &t.ctrl[len(t.ctrl)-1]
	for i, c := range e.cuSet {
		t.d.release(c)
		e.cuSet[i] = nil
	}
	e.cuSet = e.cuSet[:0]
	t.ctrl = t.ctrl[:len(t.ctrl)-1]
}

// popCtrl retires control entries whose reconvergence point has been
// reached at the current call depth.
func (t *threadState) popCtrl(pc int64) {
	for len(t.ctrl) > 0 {
		top := &t.ctrl[len(t.ctrl)-1]
		if top.depth == t.depth && pc >= top.reconvPC {
			t.dropCtrlTop()
			continue
		}
		break
	}
}
