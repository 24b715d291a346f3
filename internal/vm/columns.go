package vm

import (
	"errors"

	"repro/internal/isa"
)

// ErrBadBatch: a columnar batch handed to a detector carries a row the
// program cannot have produced (PC outside the code). Detectors poison
// the stream — the first bad batch sticks and later batches are
// rejected — mirroring the wire layer's terminal ErrBadFrame taxonomy;
// errors.Is matches.
var ErrBadBatch = errors.New("vm: malformed event batch")

// Columnar event batches: the one batch form. An Event costs ~80 bytes
// per dynamic instruction, most of it the embedded Instr that the
// receiver can rebind from the program anyway. The struct-of-arrays
// EventBatch carries the same information in parallel columns, lets the
// wire decoder fill a reusable buffer without materializing each Event,
// and lets the detectors walk runs of same-thread events without
// re-deriving per-thread state per row. DESIGN.md §11 describes the
// ownership and pooling model built on it.

// Event flag bits, shared with the wire codec's per-event flags byte.
const (
	FlagLoad  uint8 = 1 << 0
	FlagStore uint8 = 1 << 1
	FlagTaken uint8 = 1 << 2
)

// EventBatch is one batch of dynamic instructions in columnar form. All
// columns have equal length; row i of the batch is the i-th event in
// execution order. Instr does not travel with the batch — consumers
// rebind it from the program via PC, exactly like the wire decoder.
type EventBatch struct {
	Seq    []uint64
	CPU    []int32
	PC     []int64
	Flags  []uint8 // FlagLoad | FlagStore | FlagTaken
	Addr   []int64 // meaningful when FlagLoad or FlagStore
	Loaded []int64 // meaningful when FlagLoad
	Stored []int64 // meaningful when FlagStore

	// Blocks, when enabled, carries Addr>>shift per row, filled at append
	// time — by the wire decoder as it walks the varint frame, or by the
	// VM's columnar ring — so every consumer sharing the producer's shift
	// skips the per-row recompute. Rows whose Flags carry neither load nor
	// store hold an unspecified value (the shifted Addr operand, whatever
	// it was). Zero-value batches leave it disabled; NewEventBatch enables
	// it at shift 0, the detectors' default block size.
	Blocks []int64

	blockShift uint
	blocksOn   bool
}

// NewEventBatch returns an empty batch with capacity for n events. The
// Blocks column is enabled at shift 0; call EnableBlocks to change it.
func NewEventBatch(n int) *EventBatch {
	b := &EventBatch{blocksOn: true}
	b.grow(n)
	return b
}

// EnableBlocks turns the Blocks column on at the given shift. The batch
// must be empty: rows appended earlier would be missing their entries.
func (b *EventBatch) EnableBlocks(shift uint) {
	if len(b.Seq) != 0 {
		panic("vm: EnableBlocks on a non-empty EventBatch")
	}
	b.blockShift = shift
	b.blocksOn = true
}

// BlockShift reports the Blocks column's shift and whether the column is
// enabled. Consumers must check the shift against their own block size
// before trusting the column.
func (b *EventBatch) BlockShift() (uint, bool) { return b.blockShift, b.blocksOn }

func (b *EventBatch) grow(n int) {
	if cap(b.Seq) >= n {
		return
	}
	b.Seq = append(make([]uint64, 0, n), b.Seq...)
	b.CPU = append(make([]int32, 0, n), b.CPU...)
	b.PC = append(make([]int64, 0, n), b.PC...)
	b.Flags = append(make([]uint8, 0, n), b.Flags...)
	b.Addr = append(make([]int64, 0, n), b.Addr...)
	b.Loaded = append(make([]int64, 0, n), b.Loaded...)
	b.Stored = append(make([]int64, 0, n), b.Stored...)
	if b.blocksOn {
		b.Blocks = append(make([]int64, 0, n), b.Blocks...)
	}
}

// Len returns the number of events in the batch.
func (b *EventBatch) Len() int { return len(b.Seq) }

// Reset empties the batch, keeping the columns' backing arrays.
func (b *EventBatch) Reset() {
	b.Seq = b.Seq[:0]
	b.CPU = b.CPU[:0]
	b.PC = b.PC[:0]
	b.Flags = b.Flags[:0]
	b.Addr = b.Addr[:0]
	b.Loaded = b.Loaded[:0]
	b.Stored = b.Stored[:0]
	b.Blocks = b.Blocks[:0]
}

// Append adds one event as a new row.
func (b *EventBatch) Append(ev *Event) {
	var flags uint8
	if ev.IsLoad {
		flags |= FlagLoad
	}
	if ev.IsStore {
		flags |= FlagStore
	}
	if ev.Taken {
		flags |= FlagTaken
	}
	b.AppendRaw(ev.Seq, int32(ev.CPU), ev.PC, flags, ev.Addr, ev.Loaded, ev.Stored)
}

// AppendRaw adds one row from already-columnar fields (the wire
// decoder's fast path).
func (b *EventBatch) AppendRaw(seq uint64, cpu int32, pc int64, flags uint8, addr, loaded, stored int64) {
	b.Seq = append(b.Seq, seq)
	b.CPU = append(b.CPU, cpu)
	b.PC = append(b.PC, pc)
	b.Flags = append(b.Flags, flags)
	b.Addr = append(b.Addr, addr)
	b.Loaded = append(b.Loaded, loaded)
	b.Stored = append(b.Stored, stored)
	if b.blocksOn {
		b.Blocks = append(b.Blocks, addr>>b.blockShift)
	}
}

// AppendEvents materializes each batch row (rebinding Instr from code)
// and appends it to dst, returning the extended slice.
func (b *EventBatch) AppendEvents(dst []Event, code []isa.Instr) []Event {
	for i := range b.Seq {
		dst = append(dst, b.Row(i, code))
	}
	return dst
}

// Row materializes row i as an Event with Instr rebound from code. The
// PC must be within code — batches decoded from the wire or produced by
// a VM running the same program always are.
func (b *EventBatch) Row(i int, code []isa.Instr) Event {
	flags := b.Flags[i]
	return Event{
		Seq:     b.Seq[i],
		CPU:     int(b.CPU[i]),
		PC:      b.PC[i],
		Instr:   code[b.PC[i]],
		Addr:    b.Addr[i],
		IsLoad:  flags&FlagLoad != 0,
		IsStore: flags&FlagStore != 0,
		Loaded:  b.Loaded[i],
		Stored:  b.Stored[i],
		Taken:   flags&FlagTaken != 0,
	}
}

// CopyFrom replaces the batch's contents with src's, reusing the
// receiver's backing arrays when capacity allows. The Blocks column and
// its configuration follow the source.
func (b *EventBatch) CopyFrom(src *EventBatch) {
	b.Seq = append(b.Seq[:0], src.Seq...)
	b.CPU = append(b.CPU[:0], src.CPU...)
	b.PC = append(b.PC[:0], src.PC...)
	b.Flags = append(b.Flags[:0], src.Flags...)
	b.Addr = append(b.Addr[:0], src.Addr...)
	b.Loaded = append(b.Loaded[:0], src.Loaded...)
	b.Stored = append(b.Stored[:0], src.Stored...)
	b.Blocks = append(b.Blocks[:0], src.Blocks...)
	b.blockShift, b.blocksOn = src.blockShift, src.blocksOn
}

// ColumnObserver receives the dynamic instruction stream as columnar
// batches: runs of consecutive events in execution order, identical in
// content and order to what a per-instruction Observer sees minus the
// pre-bound Instr (columnar consumers rebind it from the program),
// delivered when the machine's ring fills or a run reaches a stopping
// point (budget exhausted, all CPUs halted, a fault, or an explicit
// FlushBatch). The batch is the machine's reused buffer;
// implementations must not retain it or its columns across calls.
type ColumnObserver interface {
	StepColumns(eb *EventBatch)
}

// ColumnFunc adapts a function to ColumnObserver.
type ColumnFunc func(eb *EventBatch)

// StepColumns calls f(eb).
func (f ColumnFunc) StepColumns(eb *EventBatch) { f(eb) }
