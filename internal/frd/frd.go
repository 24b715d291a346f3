// Package frd implements the Frontier Race Detector, the paper's baseline
// (§6.2): a two-pass happens-before data-race detector.
//
// The paper's FRD first computes frontier races — the tightest conflicting
// access pairs not causally ordered by other conflicting accesses [Choi &
// Min 1991] — and asks the programmer to annotate each as a synchronization
// race or a data race; the second pass is then a standard happens-before
// (Lamport) race detector that treats the annotated synchronization
// accesses as ordering operations. The two-pass design exists only because
// synchronization operations are unlabeled in SPARC binaries.
//
// This reproduction keeps both halves: the Frontier function implements the
// first pass over a recorded access trace, and Detector implements the
// second pass online with vector clocks. Annotation is automatic — blocks
// touched by compare-and-swap instructions are synchronization (our ISA
// makes lock words identifiable) — which, exactly as in the paper's
// methodology, favors FRD over SVD: FRD gets the a priori annotations that
// SVD never needs.
package frd

import (
	"fmt"
	mathbits "math/bits"
	"sort"
	"unsafe"

	"repro/internal/blockstore"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Options tune the detector.
type Options struct {
	// BlockShift selects block size as 1<<BlockShift words (word-size by
	// default, matching §6.2 "to avoid false sharing, we use word-size
	// blocks in SVD and FRD").
	BlockShift uint

	// SyncBlocks are extra a priori synchronization annotations beyond the
	// automatic CAS rule.
	SyncBlocks []int64

	// MaxRaces caps retained dynamic race records (counting continues).
	// Zero means 1 << 16.
	MaxRaces int

	// NoInterestIndex disables the per-block reader interest set: every
	// write scans every thread's read epoch, as in the original
	// implementation. Debug and differential-testing knob; the indexed
	// path scans exactly the threads holding a valid read epoch, which is
	// output-identical.
	NoInterestIndex bool

	// Witness turns on the violation flight recorder (DESIGN.md §9),
	// symmetric with svd.Options.Witness: each thread keeps a bounded
	// ring of its recent data accesses, and races fold into site-pair
	// groups (second PC, first PC). The first race of a group assembles
	// the group's exemplar obs.Witness — the racy pair and the
	// interleaving window sliced from the rings; later ones only bump
	// its count.
	Witness bool

	// WitnessAll, with Witness, also assembles a witness for every race
	// into a flat list that pairs index-for-index with Races()
	// (AllWitnesses), as svd.Options.WitnessAll does for violations.
	WitnessAll bool

	// WitnessRing sets the per-thread access-ring capacity when Witness is
	// on. Zero means obs.DefaultWitnessRing.
	WitnessRing int

	// Recorder attaches the telemetry layer (internal/obs): race events
	// and end-of-run block-store occupancy. Nil keeps the hot path free
	// of telemetry work beyond one nil check per report.
	Recorder *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.MaxRaces <= 0 {
		o.MaxRaces = 1 << 16
	}
	if o.WitnessRing <= 0 {
		o.WitnessRing = obs.DefaultWitnessRing
	}
	return o
}

// Race is one dynamic data race: two conflicting accesses to Block,
// unordered by the happens-before relation.
type Race struct {
	Block int64

	// The earlier access.
	FirstPC  int64
	FirstCPU int
	FirstSeq uint64
	FirstWr  bool

	// The later access (the one that detected the race).
	SecondPC  int64
	SecondCPU int
	SecondSeq uint64
	SecondWr  bool
}

// String renders the race for reports.
func (r Race) String() string {
	return fmt.Sprintf("data race on block %d: cpu %d pc %d (seq %d, write=%v) unordered with cpu %d pc %d (seq %d, write=%v)",
		r.Block, r.FirstCPU, r.FirstPC, r.FirstSeq, r.FirstWr,
		r.SecondCPU, r.SecondPC, r.SecondSeq, r.SecondWr)
}

// SiteKey is the composite static identity of a race site: the canonically
// ordered PC pair. Consumers aggregating sites across detectors must key on
// this struct — packing the pair into one integer aliases distinct sites
// once PCs outgrow the packing shift.
type SiteKey struct {
	PCLow, PCHigh int64 // canonical order: PCLow <= PCHigh
}

// Site aggregates dynamic races by the static PC pair involved; this is the
// static-false-positive axis of Table 2.
type Site struct {
	PCLow, PCHigh int64 // canonical order: PCLow <= PCHigh
	Count         uint64
	First         Race
}

// Key returns the site's composite static identity.
func (s Site) Key() SiteKey { return SiteKey{PCLow: s.PCLow, PCHigh: s.PCHigh} }

// Stats aggregates detector activity.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	SyncOps      uint64 // accesses treated as synchronization
	Races        uint64 // dynamic race instances (pre-cap)
	Witnesses    uint64 // exemplar witnesses assembled: one per site-pair group (Options.Witness)

	// Remote-propagation counters: per non-sync write the detector owes
	// NumCPUs-1 potential read-epoch probes; RemoteSent counts the ones
	// performed and RemoteSkipped the ones the reader interest set proved
	// unnecessary (always zero with NoInterestIndex). Sent+Skipped is
	// path-independent.
	RemoteSent    uint64
	RemoteSkipped uint64
}

// Add accumulates o into s field-wise. report.MergeSamples uses it to
// fold detector counters across parallel sample runs.
func (s *Stats) Add(o Stats) {
	s.Instructions += o.Instructions
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.SyncOps += o.SyncOps
	s.Races += o.Races
	s.Witnesses += o.Witnesses
	s.RemoteSent += o.RemoteSent
	s.RemoteSkipped += o.RemoteSkipped
}

type epoch struct {
	clock uint64
	pc    int64
	seq   uint64
	valid bool
}

type blockInfo struct {
	write    epoch // last write epoch, indexed by writer
	writeCPU int
	reads    []epoch // per-CPU last read epochs

	// readers is the interest set over reads: thread t is a member iff
	// reads[t].valid (over-approximate for t >= 64). Writes scan only the
	// members instead of all NumCPUs epochs.
	readers blockstore.ThreadSet

	releaseVC vclock // sync blocks: the release clock
	isSync    bool
}

// Detector is the online happens-before pass. It implements vm.Observer.
type Detector struct {
	prog     *isa.Program
	opts     Options
	rec      *obs.Recorder // telemetry hooks; nil when disabled
	numCPUs  int
	useIndex bool // maintain and consult blockInfo.readers

	vc     []vclock
	blocks *blockstore.Store[blockInfo]

	// Read-epoch arena: each block's reads vector is carved from a chunk
	// of readsChunk vectors, and Reset carves the same chunks again.
	epochs  []epoch   // uncarved rest of the current chunk
	echunks [][]epoch // chunks carved since New
	nechunk int       // chunks of echunks carved since the last Reset

	// rings are the per-thread flight-recorder buffers; nil unless
	// Options.Witness.
	rings []*obs.AccessRing

	races  []Race
	groups obs.GroupSet  // site-pair witness groups (Options.Witness)
	all    []obs.Witness // one witness per race (Options.WitnessAll)
	sites  map[SiteKey]*Site
	stats  Stats

	// MRU cache over blockInfo: the last two blocks' resolved slots, so
	// the block-local access runs the detectors' workloads exhibit skip
	// the page (or map) lookup and the lazy reads check. Only Reset
	// invalidates it — FRD never deletes block slots. Scalar fields (not a [2]-array) keep the hit path
	// within the inliner's budget, as in svd.threadState.
	cb0, cb1   int64
	cbp0, cbp1 *blockInfo

	// batchErr, once set, poisons the columnar path: StepColumns drops
	// every later batch. See StepColumns.
	batchErr error
}

// New builds a detector for prog across numCPUs processors.
func New(prog *isa.Program, numCPUs int, opts Options) *Detector {
	d := &Detector{
		prog:     prog,
		opts:     opts.withDefaults(),
		rec:      opts.Recorder,
		numCPUs:  numCPUs,
		useIndex: !opts.NoInterestIndex,
		vc:       make([]vclock, numCPUs),
		blocks:   blockstore.New[blockInfo](blockstore.Options{}),
		sites:    make(map[SiteKey]*Site),
	}
	for i := range d.vc {
		d.vc[i] = newVClock(numCPUs)
		d.vc[i][i] = 1
	}
	if d.opts.Witness {
		d.rings = make([]*obs.AccessRing, numCPUs)
		for i := range d.rings {
			d.rings[i] = obs.NewAccessRing(d.opts.WitnessRing)
		}
	}
	d.annotateSync()
	return d
}

// annotateSync marks the Options.SyncBlocks annotations.
func (d *Detector) annotateSync() {
	for _, b := range d.opts.SyncBlocks {
		d.blockInfo(b >> d.opts.BlockShift).isSync = true
	}
}

// Reset discards all detector state; afterwards the detector behaves
// exactly like New with the same program, thread count and options. It
// clears in place, as svd.Detector.Reset does: block pages are zeroed
// and kept, vector clocks and rings rewind, and the witness groups and
// AllWitnesses slices are dropped, never reused, because samples and
// journal anchors may still hold them; the storage behind Races is
// reused.
func (d *Detector) Reset() {
	for i, vc := range d.vc {
		clear(vc)
		vc[i] = 1
	}
	d.blocks.Clear()
	for _, c := range d.echunks[:d.nechunk] {
		clear(c)
	}
	d.epochs, d.nechunk = nil, 0
	d.cb0, d.cb1, d.cbp0, d.cbp1 = 0, 0, nil, nil
	for _, r := range d.rings {
		r.Reset()
	}
	d.races = d.races[:0]
	d.groups = obs.GroupSet{}
	d.all = nil
	clear(d.sites)
	d.stats = Stats{}
	d.batchErr = nil
	d.annotateSync()
}

// SetRecorder attaches rec as the telemetry recorder, as
// Options.Recorder does at New; nil detaches it. Call it between runs
// only, on a new or just-reset detector.
func (d *Detector) SetRecorder(rec *obs.Recorder) {
	d.rec = rec
	d.opts.Recorder = rec
}

// Retained reports the bytes the detector keeps across Reset for its
// next run: block pages (spares included) and the read-epoch arena.
func (d *Detector) Retained() int {
	return d.blocks.HeldBytes() + len(d.echunks)*readsChunk*d.numCPUs*int(unsafe.Sizeof(epoch{}))
}

// Races returns retained dynamic race records; nil when there are none.
// The slice is valid until the next Reset.
func (d *Detector) Races() []Race {
	if len(d.races) == 0 {
		return nil
	}
	return d.races
}

// WitnessGroups returns the race witness groups, one per site pair
// (second PC, first PC) in first-seen order, each with its exact count
// and its first race's witness. The pair is ordered, unlike SiteKey: the
// two directions of a racy pair are two groups. The number of groups is
// capped at Options.MaxRaces; a race at a new pair past the cap is only
// counted in Stats. Nil without Options.Witness. Callers must not modify
// the slice.
func (d *Detector) WitnessGroups() []obs.WitnessGroup { return d.groups.Groups() }

// AllWitnesses returns one witness per retained race, pairing
// index-for-index with Races(). Nil unless Options.WitnessAll.
func (d *Detector) AllWitnesses() []obs.Witness { return d.all }

// Stats returns aggregate counters.
func (d *Detector) Stats() Stats { return d.stats }

// BatchErr returns the sticky columnar-path error: non-nil once a batch
// failed StepColumns's preflight, after which every batch is dropped.
// The per-event path is unaffected.
func (d *Detector) BatchErr() error { return d.batchErr }

// Sites returns race sites sorted by descending dynamic count.
func (d *Detector) Sites() []Site {
	out := make([]Site, 0, len(d.sites))
	for _, s := range d.sites {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].PCLow != out[j].PCLow {
			return out[i].PCLow < out[j].PCLow
		}
		return out[i].PCHigh < out[j].PCHigh
	})
	return out
}

func (d *Detector) blockInfo(b int64) *blockInfo {
	bi := d.blocks.Ensure(b)
	if bi.reads == nil {
		// Flat pages materialize zero-valued slots; the per-CPU read
		// epochs are attached on a block's first real access.
		bi.reads = d.newReads()
	}
	return bi
}

// readsChunk is the number of per-block read-epoch vectors one arena
// chunk holds.
const readsChunk = 64

// newReads carves one zeroed numCPUs-epoch vector from the arena.
func (d *Detector) newReads() []epoch {
	if len(d.epochs) < d.numCPUs {
		if d.nechunk < len(d.echunks) {
			d.epochs = d.echunks[d.nechunk]
		} else {
			d.epochs = make([]epoch, readsChunk*d.numCPUs)
			d.echunks = append(d.echunks, d.epochs)
		}
		d.nechunk++
	}
	r := d.epochs[:d.numCPUs:d.numCPUs]
	d.epochs = d.epochs[d.numCPUs:]
	return r
}

// blockInfoCached resolves a block through the MRU cache; the repeat-
// access hit is one compare and inlines into the access path.
func (d *Detector) blockInfoCached(b int64) *blockInfo {
	bi := d.cbp0
	if bi == nil || d.cb0 != b {
		bi = d.blockInfoCachedSlow(b)
	}
	return bi
}

func (d *Detector) blockInfoCachedSlow(b int64) *blockInfo {
	if bi := d.cbp1; bi != nil && d.cb1 == b {
		// Promote to MRU so a two-block ping-pong hits on every access.
		d.cb1 = d.cb0
		d.cb0 = b
		d.cbp1 = d.cbp0
		d.cbp0 = bi
		return bi
	}
	bi := d.blockInfo(b)
	d.cb1 = d.cb0
	d.cb0 = b
	d.cbp1 = d.cbp0
	d.cbp0 = bi
	return bi
}

// Step processes one dynamic instruction (vm.Observer). It is the
// reference path: StepColumns must stay bit-identical to it.
func (d *Detector) Step(ev *vm.Event) {
	d.stats.Instructions++
	d.step(ev)
}

func (d *Detector) step(ev *vm.Event) {
	in := ev.Instr
	if !in.Op.IsMem() {
		return
	}
	d.stepMem(ev, ev.Addr>>d.opts.BlockShift)
}

// stepMem processes one memory access whose block id the caller already
// holds — computed here on the per-event path, read from the batch's
// Blocks column on the columnar one.
func (d *Detector) stepMem(ev *vm.Event, b int64) {
	bi := d.blockInfoCached(b)

	// Automatic annotation: a block touched by CAS is a lock word.
	if ev.Instr.Op == isa.OpCas && !bi.isSync {
		bi.isSync = true
	}
	if bi.isSync {
		d.syncAccess(ev, bi)
		return
	}
	if ev.IsLoad {
		d.stats.Loads++
		d.read(ev, b, bi)
	}
	if ev.IsStore {
		d.stats.Stores++
		d.write(ev, b, bi)
	}
}

// syncAccess applies lock semantics: reading a sync block is an acquire
// (join the block's release clock into the thread), writing one is a
// release (publish the thread's clock), and either way the access is not a
// data access.
func (d *Detector) syncAccess(ev *vm.Event, bi *blockInfo) {
	d.stats.SyncOps++
	t := ev.CPU
	if ev.IsLoad {
		d.vc[t].join(bi.releaseVC)
	}
	if ev.IsStore {
		if bi.releaseVC == nil {
			bi.releaseVC = newVClock(d.numCPUs)
		}
		bi.releaseVC.join(d.vc[t])
		d.vc[t][t]++
	}
}

func (d *Detector) read(ev *vm.Event, b int64, bi *blockInfo) {
	t := ev.CPU
	if bi.write.valid && bi.writeCPU != t && bi.write.clock > d.vc[t][bi.writeCPU] {
		d.report(b, bi.write, bi.writeCPU, true, ev, false)
	}
	if d.useIndex && !bi.reads[t].valid {
		bi.readers.Add(t)
	}
	bi.reads[t] = epoch{clock: d.vc[t][t], pc: ev.PC, seq: ev.Seq, valid: true}
	if d.rings != nil {
		d.rings[t].Add(obs.WitnessAccess{CPU: t, PC: ev.PC, Block: b, Seq: ev.Seq})
	}
}

func (d *Detector) write(ev *vm.Event, b int64, bi *blockInfo) {
	t := ev.CPU
	if bi.write.valid && bi.writeCPU != t && bi.write.clock > d.vc[t][bi.writeCPU] {
		d.report(b, bi.write, bi.writeCPU, true, ev, true)
	}
	peers := uint64(d.numCPUs - 1)
	if d.useIndex {
		// Probe and invalidate only the threads the reader set names: bits
		// ascending, then (if any high-id thread holds a read) every thread
		// >= 64 — the same ascending order, restricted to the threads with
		// valid epochs, as the full scan, so races report identically.
		var sent uint64
		for rest := bi.readers.Bits(); rest != 0; rest &= rest - 1 {
			cpu := mathbits.TrailingZeros64(rest)
			r := bi.reads[cpu]
			if r.valid && cpu != t && r.clock > d.vc[t][cpu] {
				d.report(b, r, cpu, false, ev, true)
			}
			bi.reads[cpu].valid = false
			if cpu != t {
				sent++
			}
		}
		if bi.readers.HasHigh() {
			for cpu := 64; cpu < d.numCPUs; cpu++ {
				r := bi.reads[cpu]
				if r.valid && cpu != t && r.clock > d.vc[t][cpu] {
					d.report(b, r, cpu, false, ev, true)
				}
				bi.reads[cpu].valid = false
				if cpu != t {
					sent++
				}
			}
		}
		bi.readers.Clear()
		d.stats.RemoteSent += sent
		d.stats.RemoteSkipped += peers - sent
	} else {
		for cpu := range bi.reads {
			r := bi.reads[cpu]
			if r.valid && cpu != t && r.clock > d.vc[t][cpu] {
				d.report(b, r, cpu, false, ev, true)
			}
		}
		// The new write supersedes previous reads as the frontier of this
		// block's access history.
		for cpu := range bi.reads {
			bi.reads[cpu].valid = false
		}
		d.stats.RemoteSent += peers
	}
	bi.write = epoch{clock: d.vc[t][t], pc: ev.PC, seq: ev.Seq, valid: true}
	bi.writeCPU = t
	if d.rings != nil {
		d.rings[t].Add(obs.WitnessAccess{CPU: t, PC: ev.PC, Block: b, Write: true, Seq: ev.Seq})
	}
}

// FlushObs records the block store's end-of-run occupancy into the
// attached recorder; the harness calls it once after a run.
func (d *Detector) FlushObs() {
	if d.rec == nil {
		return
	}
	slots, pages, overflow := d.blocks.PageStats()
	d.rec.ObserveStore(0, pages, slots+overflow, -1)
	d.rec.ObserveRemote(d.stats.RemoteSent, d.stats.RemoteSkipped)
}

func (d *Detector) report(b int64, first epoch, firstCPU int, firstWr bool, ev *vm.Event, secondWr bool) {
	d.stats.Races++
	if r := d.rec; r != nil {
		r.Race(d.stats.Instructions, ev.CPU, ev.PC, b)
	}
	r := Race{
		Block:     b,
		FirstPC:   first.pc,
		FirstCPU:  firstCPU,
		FirstSeq:  first.seq,
		FirstWr:   firstWr,
		SecondPC:  ev.PC,
		SecondCPU: ev.CPU,
		SecondSeq: ev.Seq,
		SecondWr:  secondWr,
	}
	key := SiteKey{PCLow: r.FirstPC, PCHigh: r.SecondPC}
	if key.PCLow > key.PCHigh {
		key.PCLow, key.PCHigh = key.PCHigh, key.PCLow
	}
	s := d.sites[key]
	if s == nil {
		s = &Site{PCLow: key.PCLow, PCHigh: key.PCHigh, First: r}
		d.sites[key] = s
	}
	s.Count++
	if d.opts.Witness {
		d.foldWitness(r)
	}
	if len(d.races) < d.opts.MaxRaces {
		d.races = append(d.races, r)
	}
}

// foldWitness folds race r into its site-pair group. Only a race that
// opens a group (while fewer than MaxRaces groups exist) assembles a
// witness, counted in Stats.Witnesses and handed to the recorder; every
// later one at the pair only bumps the count. With WitnessAll every race
// under the retention cap also assembles its own witness into the flat
// list, in the races slice's order.
func (d *Detector) foldWitness(r Race) {
	var w obs.Witness
	built := false
	if !d.groups.Bump("frd", r.SecondPC, r.FirstPC) && d.groups.Len() < d.opts.MaxRaces {
		w, built = d.buildWitness(r), true
		d.stats.Witnesses++
		if rec := d.rec; rec != nil {
			rec.Witness(&w)
		}
		d.groups.Open(w)
	}
	if d.opts.WitnessAll && len(d.all) < d.opts.MaxRaces {
		if !built {
			w = d.buildWitness(r)
		}
		d.all = append(d.all, w)
	}
}

// buildWitness captures the evidence behind one race: the racy pair and
// the interleaving window sliced from both threads' access rings. Runs
// only at report time.
func (d *Detector) buildWitness(r Race) obs.Witness {
	w := obs.Witness{
		Detector: "frd",
		Seq:      r.SecondSeq,
		CPU:      r.SecondCPU,
		PC:       r.SecondPC,
		Block:    r.Block,
		Conflict: obs.WitnessAccess{
			CPU:   r.FirstCPU,
			PC:    r.FirstPC,
			Block: r.Block,
			Write: r.FirstWr,
			Seq:   r.FirstSeq,
		},
	}
	var remote *obs.AccessRing
	if r.FirstCPU != r.SecondCPU {
		remote = d.rings[r.FirstCPU]
	}
	// The reporting access enters its ring only after the race check, so
	// it closes the window explicitly; the first access opens it when its
	// ring has already evicted it (everything retained is newer, so the
	// window stays sorted).
	w.Window = obs.Window(d.rings[r.SecondCPU], remote, r.SecondSeq, d.opts.WitnessRing-1,
		obs.WitnessAccess{CPU: r.SecondCPU, PC: r.SecondPC, Block: r.Block, Write: r.SecondWr, Seq: r.SecondSeq}, w.Conflict)
	return w
}
