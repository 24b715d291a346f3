package wire

import (
	"bytes"
	"fmt"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Event batch encoding. A raw vm.Event is ~80 bytes; the dynamic
// instruction stream is massively redundant — sequence numbers are
// consecutive, each thread's PC walks short distances, each thread's
// accesses cluster in address space — so the wire form is delta-encoded
// against per-stream codec state:
//
//	count  uvarint                 events in the batch
//	per event:
//	  dseq   uvarint               Seq delta from the previous event
//	                               (first event: from 0)
//	  cpu    uvarint               executing thread
//	  dpc    varint (zigzag)       PC delta from this thread's last PC
//	  flags  byte                  bit0 load, bit1 store, bit2 taken
//	  daddr  varint (zigzag)       Addr delta from this thread's last
//	                               accessed address (loads/stores only)
//	  loaded varint (zigzag)       value read (loads only)
//	  stored varint (zigzag)       value written (stores only)
//
// Instr does not travel: the receiver holds the program (from the
// handshake) and validates each decoded PC against it, so consumers
// rebind Instr = prog.Code[PC]. On the Table 2 workloads this averages out to ~4 bytes
// per dynamic instruction (see BenchmarkWireEncode), a ~20x densification
// that is what makes shipping every instruction of a server's execution
// over a socket plausible at all.
//
// Encoder and decoder keep identical per-thread state (last PC, last
// address) plus the last global sequence number; both reset at each
// Hello, so a stream is self-contained.

// codecState is the shared delta context. The encoder owns one, the
// decoder mirrors it; after each batch both sides agree by construction.
type codecState struct {
	lastSeq  uint64
	lastPC   []int64 // per thread
	lastAddr []int64 // per thread
}

func newCodecState(threads int) codecState {
	if threads <= 0 {
		threads = 1
	}
	return codecState{lastPC: make([]int64, threads), lastAddr: make([]int64, threads)}
}

type eventEncoder struct{ st codecState }

func newEventEncoder(threads int) eventEncoder { return eventEncoder{st: newCodecState(threads)} }

// WriteColumns emits one event batch frame. Rows must be in execution
// order (monotonic Seq) and CPU must be within the handshake's thread
// count — both hold for batches a VM delivers to vm.AttachColumns
// observers, which feed them here without ever materializing
// []vm.Event. On a stream whose Hello negotiated Timestamps the payload
// opens with the send stamp (wall-clock nanos), the first half of the
// wire-to-verdict latency measurement.
func (f *Framer) WriteColumns(eb *vm.EventBatch) error {
	f.buf = f.buf[:0]
	b := bytes.NewBuffer(f.buf)
	if f.timestamps {
		putUvarint(b, uint64(f.now()))
	}
	n := eb.Len()
	putUvarint(b, uint64(n))
	st := &f.enc.st
	for i := 0; i < n; i++ {
		cpu := int(eb.CPU[i])
		if cpu < 0 || cpu >= len(st.lastPC) {
			return fmt.Errorf("wire: event cpu %d outside the handshake's %d threads", cpu, len(st.lastPC))
		}
		seq := eb.Seq[i]
		putUvarint(b, seq-st.lastSeq)
		st.lastSeq = seq
		putUvarint(b, uint64(cpu))
		pc := eb.PC[i]
		putVarint(b, pc-st.lastPC[cpu])
		st.lastPC[cpu] = pc
		flags := eb.Flags[i]
		b.WriteByte(flags)
		if flags&(vm.FlagLoad|vm.FlagStore) != 0 {
			addr := eb.Addr[i]
			putVarint(b, addr-st.lastAddr[cpu])
			st.lastAddr[cpu] = addr
		}
		if flags&vm.FlagLoad != 0 {
			putVarint(b, eb.Loaded[i])
		}
		if flags&vm.FlagStore != 0 {
			putVarint(b, eb.Stored[i])
		}
	}
	f.buf = b.Bytes()
	return f.writeFrame(FrameEvents, f.buf)
}

type eventDecoder struct {
	st codecState

	// memClass holds one flag-class byte per program PC; decodeColumns
	// rejects rows whose load/store flag bits disagree with the opcode
	// at their PC. See buildMemClass.
	memClass []uint8
}

func newEventDecoder(threads int) eventDecoder { return eventDecoder{st: newCodecState(threads)} }

// Flag classes: what the load/store flag bits may look like for a given
// opcode. The VM only ever emits consistent rows; enforcing the same
// invariant at the trust boundary means every consumer behind the
// deframer (the detectors' columnar paths in particular, which dispatch
// on flags and opcode interchangeably) can rely on it without
// re-deriving the opcode per row.
const (
	classNone  uint8 = iota // non-memory opcode: both bits clear
	classLoad               // load: exactly FlagLoad
	classStore              // store: exactly FlagStore
	classCas                // CAS: FlagLoad always, FlagStore iff it succeeded
)

// buildMemClass computes the per-PC flag class table for a program.
func buildMemClass(p *isa.Program) []uint8 {
	mc := make([]uint8, len(p.Code))
	for pc := range p.Code {
		switch p.Code[pc].Op {
		case isa.OpLoad:
			mc[pc] = classLoad
		case isa.OpStore:
			mc[pc] = classStore
		case isa.OpCas:
			mc[pc] = classCas
		}
	}
	return mc
}

// checkFlags validates a row's load/store flag bits against the flag
// class of the opcode at its PC.
func checkFlags(class uint8, flags byte) bool {
	mf := flags & (vm.FlagLoad | vm.FlagStore)
	switch class {
	case classNone:
		return mf == 0
	case classLoad:
		return mf == vm.FlagLoad
	case classStore:
		return mf == vm.FlagStore
	default: // classCas
		return mf&vm.FlagLoad != 0
	}
}

// decodeColumns parses one event batch payload directly into eb's
// columns — the decode hot path behind ReadFrameInto (and ReadFrame,
// which decodes into the Deframer's own batch). No per-event vm.Event
// is materialized and Instr is never copied; the
// consumer rebinds it from the program (every decoded PC is validated
// against prog.Code here). The count is untrusted: capacity grows only
// as events actually decode, so a hostile count cannot force an
// allocation beyond the frame's own size. On error eb's contents are
// unspecified and the stream is no longer decodable (delta state has
// advanced); sessions tear the stream down, which is the only sane
// response to a malformed frame anyway.
func (d *eventDecoder) decodeColumns(payload []byte, prog *isa.Program, eb *vm.EventBatch) error {
	p := payloadReader{b: payload}
	count := p.uvarint()
	if p.err != nil {
		return p.err
	}
	// Each event takes at least 4 payload bytes (dseq, cpu, dpc, flags).
	if count > uint64(len(payload)) {
		return fmt.Errorf("%w: %d events in a %d-byte payload", ErrBadFrame, count, len(payload))
	}
	eb.Reset()
	st := &d.st
	codeLen := int64(len(prog.Code))
	for i := uint64(0); i < count; i++ {
		seq := st.lastSeq + p.uvarint()
		cpu := p.uvarint()
		if p.err == nil && cpu >= uint64(len(st.lastPC)) {
			return fmt.Errorf("%w: event cpu %d outside the handshake's %d threads", ErrBadFrame, cpu, len(st.lastPC))
		}
		dpc := p.varint()
		flags := p.byte()
		if p.err != nil {
			return p.err
		}
		st.lastSeq = seq
		pc := st.lastPC[cpu] + dpc
		st.lastPC[cpu] = pc
		if pc < 0 || pc >= codeLen {
			return fmt.Errorf("%w: event pc %d outside program code [0,%d)", ErrBadFrame, pc, codeLen)
		}
		if !checkFlags(d.memClass[pc], flags) {
			return fmt.Errorf("%w: event flags %#x inconsistent with %v at pc %d", ErrBadFrame, flags, prog.Code[pc].Op, pc)
		}
		var addr, loaded, stored int64
		if flags&(vm.FlagLoad|vm.FlagStore) != 0 {
			addr = st.lastAddr[cpu] + p.varint()
			st.lastAddr[cpu] = addr
		}
		if flags&vm.FlagLoad != 0 {
			loaded = p.varint()
		}
		if flags&vm.FlagStore != 0 {
			stored = p.varint()
		}
		if p.err != nil {
			return p.err
		}
		eb.AppendRaw(seq, int32(cpu), pc, flags, addr, loaded, stored)
	}
	if p.rest() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %d events", ErrBadFrame, p.rest(), count)
	}
	return nil
}
