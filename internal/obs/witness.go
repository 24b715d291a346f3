package obs

// The violation flight recorder (DESIGN.md §9). The detectors report a
// violation as a site pair; what makes the report actionable is a concrete
// witness — the ordered conflicting accesses that close the unserializable
// cycle, the way RegionTrack and AeroDrome print the schedule behind an
// atomicity report. Each detector thread keeps a small bounded ring of its
// recent accesses; when SVD's strict-2PL check fires (or FRD flags a race)
// at a site pair for the first time, the detector slices the victim's and
// the conflicting thread's rings into an interleaving window and attaches
// the victim unit's footprint, the local access that created the stale
// input block, and the conflicting remote access. Later reports at the
// pair only bump its count (GroupSet). This file defines the witness
// model; forensic.go groups and renders it, and Recorder.Witness injects
// it into the Chrome trace as a clickable flow arrow from the conflicting
// access to the reporting store.

// WitnessAccess is one dynamic memory access inside a witness: the thread,
// program point, block, direction, virtual timestamp (the VM's global
// sequence number), and — for SVD — the computational unit it extended.
type WitnessAccess struct {
	CPU   int    `json:"cpu"`
	PC    int64  `json:"pc"`
	Block int64  `json:"block"`
	Write bool   `json:"write"`
	Seq   uint64 `json:"seq"`
	CU    uint64 `json:"cu,omitempty"`
}

// Witness is the captured evidence for one dynamic violation (or race):
// enough to print the two-thread schedule that closed the cycle.
type Witness struct {
	// Detector is "svd" (strict-2PL violation) or "frd" (data race).
	Detector string `json:"detector"`

	// The reporting access: for SVD the store that failed the strict-2PL
	// check, for FRD the second access of the racy pair.
	Seq   uint64 `json:"seq"`
	CPU   int    `json:"cpu"`
	PC    int64  `json:"pc"`
	Block int64  `json:"block"`

	// CU identifies the victim computational unit (SVD only).
	CU uint64 `json:"cu,omitempty"`

	// Inputs and Outputs are the victim unit's block footprint at report
	// time: its input (read-before-written) and output (written) blocks.
	// SVD only; both are sorted and capped at MaxFootprintBlocks.
	Inputs  []int64 `json:"inputs,omitempty"`
	Outputs []int64 `json:"outputs,omitempty"`

	// Stale is the victim's local access that pulled the conflicted block
	// into the unit — the read (or write) whose value the remote access
	// made stale. Nil when the detector retained no local history.
	Stale *WitnessAccess `json:"stale_input,omitempty"`

	// Conflict is the remote conflicting access, with its thread and
	// virtual timestamp. For SVD it is the first unconsumed conflicting
	// access on the checked block; for FRD the first access of the pair.
	Conflict WitnessAccess `json:"conflict"`

	// Window is the interleaving slice: the victim's and the conflicting
	// thread's recent accesses, merged in virtual-time order and ending at
	// the reporting access. Bounded by the detectors' ring size.
	Window []WitnessAccess `json:"window,omitempty"`
}

// Clone returns a deep copy: the Inputs, Outputs, Window slices and the
// Stale pointer no longer alias the receiver's. Aggregation paths that
// outlive or run concurrently with the witness's producer — the capped
// run-level digest in report.MergeSamples, the detection server's query
// surface — must clone rather than copy the struct, or a reader of the
// digest shares backing arrays with a detector shard that is still
// draining.
func (w Witness) Clone() Witness {
	c := w
	if w.Inputs != nil {
		c.Inputs = append([]int64(nil), w.Inputs...)
	}
	if w.Outputs != nil {
		c.Outputs = append([]int64(nil), w.Outputs...)
	}
	if w.Window != nil {
		c.Window = append([]WitnessAccess(nil), w.Window...)
	}
	if w.Stale != nil {
		st := *w.Stale
		c.Stale = &st
	}
	return c
}

// MaxFootprintBlocks caps the Inputs/Outputs lists a witness retains; a
// unit's full footprint can reach thousands of blocks and the first blocks
// (sorted) identify the variable just as well.
const MaxFootprintBlocks = 64

// DefaultWitnessRing is the per-thread access-ring capacity when the
// detectors' witness options leave it zero: deep enough to span the
// interleaving window between a conflicting access and the store that
// reports it under any of the Table 2 workloads, small enough (~3 KB per
// thread) to stay cache-resident.
const DefaultWitnessRing = 64

// AccessRing is a bounded ring of one thread's recent memory accesses —
// the flight-recorder buffer behind witness windows. Appends overwrite
// the oldest entry once the ring is full; the zero-size ring is invalid
// (use NewAccessRing). It keeps a compact entry per access: the thread
// is the ring's owner, and the PC fits 32 bits (both detectors refuse a
// program of 2^31 or more instructions). Entries expand back to
// WitnessAccess values only when a snapshot or window is built.
type AccessRing struct {
	buf  []ringEntry
	cpu  int  // owner: the CPU every entry belongs to
	next int  // slot the next Add writes
	full bool // every slot holds an access
}

// ringEntry is one retained access; 32 bytes against WitnessAccess's 48.
type ringEntry struct {
	seq   uint64
	block int64
	cu    uint64
	pc    int32
	write bool
}

// NewAccessRing builds a ring holding thread cpu's last size accesses
// (size <= 0 selects DefaultWitnessRing).
func NewAccessRing(size, cpu int) *AccessRing {
	if size <= 0 {
		size = DefaultWitnessRing
	}
	return &AccessRing{buf: make([]ringEntry, size), cpu: cpu}
}

// Add records one access of the ring's owner, evicting the oldest when
// full. The write index wraps with a compare, not a divide: Add runs on
// every recorded load and store of a witness-on stream.
func (r *AccessRing) Add(pc, block int64, write bool, seq, cu uint64) {
	r.buf[r.next] = ringEntry{seq: seq, block: block, cu: cu, pc: int32(pc), write: write}
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// Reset empties the ring, keeping its buffer.
func (r *AccessRing) Reset() { r.next, r.full = 0, false }

// span returns the slot of the oldest retained access and how many are
// retained.
func (r *AccessRing) span() (oldest, n int) {
	if r.full {
		return r.next, len(r.buf)
	}
	return 0, r.next
}

// at returns the i-th retained entry counting from the one in slot
// oldest.
func (r *AccessRing) at(oldest, i int) *ringEntry {
	if i += oldest; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// access expands entry e of the ring to the WitnessAccess it records.
func (r *AccessRing) access(e *ringEntry) WitnessAccess {
	return WitnessAccess{CPU: r.cpu, PC: int64(e.pc), Block: e.block, Write: e.write, Seq: e.seq, CU: e.cu}
}

// Snapshot appends the retained accesses with Seq <= maxSeq to out in
// oldest-first (virtual-time) order and returns the extended slice.
func (r *AccessRing) Snapshot(maxSeq uint64, out []WitnessAccess) []WitnessAccess {
	if r == nil {
		return out
	}
	oldest, n := r.span()
	for i := 0; i < n; i++ {
		if e := r.at(oldest, i); e.seq <= maxSeq {
			out = append(out, r.access(e))
		}
	}
	return out
}

// ringCursor walks a ring's retained accesses with Seq <= maxSeq,
// oldest first, without copying them out.
type ringCursor struct {
	r            *AccessRing
	oldest, i, n int
	maxSeq       uint64
}

func newRingCursor(r *AccessRing, maxSeq uint64) ringCursor {
	c := ringCursor{r: r, maxSeq: maxSeq}
	if r != nil {
		c.oldest, c.n = r.span()
	}
	return c
}

// peek returns the cursor's next entry without consuming it; nil when
// the cursor is exhausted.
func (c *ringCursor) peek() *ringEntry {
	for ; c.i < c.n; c.i++ {
		if e := c.r.at(c.oldest, c.i); e.seq <= c.maxSeq {
			return e
		}
	}
	return nil
}

// count returns how many accesses the cursor has left to yield.
func (c ringCursor) count() int {
	k := 0
	for ; c.peek() != nil; c.i++ {
		k++
	}
	return k
}

// Window assembles a witness's interleaving window in one allocation of
// its final size: the accesses of rings a and b (b may be nil) with Seq
// <= maxSeq, merged in virtual-time order (a first on equal Seq) and
// trimmed to the newest max (max <= 0 keeps all); then last, the
// reporting access, closes it; then conflict opens it unless an entry
// already matches its CPU and Seq. The result equals MergeWindow over
// the two rings' Snapshots followed by that append and prepend, the
// reference the tests hold it to.
func Window(a, b *AccessRing, maxSeq uint64, max int, last, conflict WitnessAccess) []WitnessAccess {
	ca, cb := newRingCursor(a, maxSeq), newRingCursor(b, maxSeq)
	total := ca.count() + cb.count()
	skip := 0
	if max > 0 && total > max {
		skip = total - max
	}
	// Slot 0 is held for conflict; a window that already has it is
	// returned from slot 1.
	out := make([]WitnessAccess, 1, 2+total-skip)
	for {
		x, y := ca.peek(), cb.peek()
		var next *ringEntry
		from := a
		switch {
		case x != nil && (y == nil || x.seq <= y.seq):
			next = x
			ca.i++
		case y != nil:
			next, from = y, b
			cb.i++
		}
		if next == nil {
			break
		}
		if skip > 0 {
			skip--
			continue
		}
		out = append(out, from.access(next))
	}
	out = append(out, last)
	for i := 1; i < len(out); i++ {
		if out[i].Seq == conflict.Seq && out[i].CPU == conflict.CPU {
			return out[1:]
		}
	}
	out[0] = conflict
	return out
}

// MergeWindow merges two oldest-first access slices into one virtual-time
// ordered window, keeping at most max entries from the end (the accesses
// nearest the report). The inputs must each be sorted by Seq, which ring
// snapshots are by construction. Window fuses it with the snapshots.
func MergeWindow(a, b []WitnessAccess, max int) []WitnessAccess {
	out := make([]WitnessAccess, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Seq <= b[j].Seq {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Witness records one assembled violation witness: a counter tick always,
// and — when tracing — an instant event on the victim thread plus a flow
// arrow from the conflicting access to the reporting store, so the
// violation is clickable in Perfetto next to the CU events that produced
// it. Exactly one call per witness the detector counts — one per
// site-pair group's exemplar — so trace "witness" events match
// Stats().Witnesses one-for-one.
func (r *Recorder) Witness(w *Witness) {
	if r == nil {
		return
	}
	r.m.Witnesses++
	if !r.tracing {
		return
	}
	// Flow ids must be unique per (id, cat) across the whole trace; fold
	// the recorder's pid in so parallel samples cannot collide.
	id := uint64(r.pid)<<40 | (w.Seq & (1<<40 - 1))
	r.emit(TraceEvent{
		Name: "witness_flow", Cat: "forensic", Ph: PhaseFlowStart,
		TS: w.Conflict.Seq, ID: id, PID: r.pid, TID: int64(w.Conflict.CPU),
	})
	r.emit(TraceEvent{
		Name: "witness_flow", Cat: "forensic", Ph: PhaseFlowEnd,
		TS: w.Seq, ID: id, PID: r.pid, TID: int64(w.CPU),
	})
	var win int64
	if n := len(w.Window); n > 0 {
		win = int64(n)
	}
	r.emit(TraceEvent{
		Name: "witness", Cat: "forensic", Ph: PhaseInstant,
		TS: w.Seq, PID: r.pid, TID: int64(w.CPU),
		Args: [maxArgs]KV{
			{Key: "detector", Str: w.Detector},
			{Key: "block", Val: w.Block},
			{Key: "conflict_cpu", Val: int64(w.Conflict.CPU)},
			{Key: "window", Val: win},
		},
	})
}
