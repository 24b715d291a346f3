package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Event batch encoding. A raw vm.Event is ~80 bytes; the dynamic
// instruction stream is massively redundant — sequence numbers are
// consecutive, a thread runs several instructions before the scheduler
// switches, most PCs are the thread's last PC + 1, the opcode fixes the
// load/store bits, and each thread's accesses cluster in address space.
// So the payload is column-major, one section per column, each coded
// against per-stream codec state:
//
//	count    uvarint             rows in the batch, at most MaxFrameEvents
//	threads  uvarint n, then n × (cpu uvarint, run length uvarint)
//	                             runs cover exactly count rows
//	seq      uvarint n, then n × (index gap uvarint, delta uvarint)
//	                             every other row is the previous Seq + 1
//	pc       uvarint n, then n × (index gap uvarint, delta varint)
//	                             every other row is its thread's last PC + 1
//	open     uvarint length, then one bit per row that is not a plain
//	                             store (LSB first): the store bit of a row
//	                             with the load flag (a CAS's success), the
//	                             taken bit of every other row
//	addr     one varint (zigzag) per memory row: the delta from this
//	                             thread's last address
//
// An exception list names rows by index gaps: each gap is the distance
// from the previous exception's row (the first from row -1), so every
// gap is at least 1 and the rows strictly increase. A delta is the
// row's actual step (Seq from the previous row, PC from the thread's
// last PC).
//
// Neither Instr nor the loaded and stored values travel: no batch
// consumer reads the values, and the receiver holds the program (from
// the handshake), validates every PC against it and rebuilds the
// load/store bits from the opcode at each PC. On pgsql-oltp this is
// about one byte per dynamic instruction, frame headers included (see
// TestWireBytesPerEvent).
//
// Encoder and decoder keep identical per-thread state (last PC, last
// address) plus the last global sequence number; both reset at each
// Hello, so a stream is self-contained.

// MaxFrameEvents bounds the rows of one Events frame: 8× the VM's
// 512-row ring. The decoder checks it before sizing any column, so one
// frame cannot grow a batch buffer — which a stream keeps and recycles —
// past a fixed size.
const MaxFrameEvents = 4096

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

// pair is one entry of a pair list: a thread run (cpu, length) or an
// exception (index gap, delta).
type pair [2]uint64

type eventEncoder struct {
	st    codecState
	pairs []pair // scratch, reused across sections and batches
	plane []byte // scratch: the open-bit plane
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendPairs emits one pair list: its length, then each pair.
func appendPairs(b []byte, ps []pair) []byte {
	b = binary.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = binary.AppendUvarint(b, p[0])
		b = binary.AppendUvarint(b, p[1])
	}
	return b
}

// WriteColumns emits one event batch frame. Rows must be in execution
// order (monotonic Seq), CPU must be within the handshake's thread
// count, the load/store bits must match the opcode at each PC, and the
// batch may hold at most MaxFrameEvents rows — all of which hold for
// batches a VM delivers to vm.AttachColumns observers, which feed them
// here without ever materializing []vm.Event. The encoder needs no
// program. On a stream whose Hello negotiated Timestamps the payload
// opens with the send stamp (wall-clock nanos), the first half of the
// wire-to-verdict latency measurement.
func (f *Framer) WriteColumns(eb *vm.EventBatch) error {
	n := eb.Len()
	if n > MaxFrameEvents {
		return fmt.Errorf("wire: %d rows in one events frame (max %d)", n, MaxFrameEvents)
	}
	st := &f.enc.st
	cpus := eb.CPU[:n]
	ps := f.enc.pairs[:0]
	for i, c := range cpus {
		if c < 0 || int(c) >= len(st.lastPC) {
			return fmt.Errorf("wire: event cpu %d outside the handshake's %d threads", c, len(st.lastPC))
		}
		if i > 0 && c == cpus[i-1] {
			ps[len(ps)-1][1]++
		} else {
			ps = append(ps, pair{uint64(c), 1})
		}
	}
	b := f.begin()
	if f.timestamps {
		b = binary.AppendUvarint(b, uint64(f.now()))
	}
	b = binary.AppendUvarint(b, uint64(n))
	b = appendPairs(b, ps)

	ps, prev := ps[:0], -1
	seq := st.lastSeq
	for i, s := range eb.Seq[:n] {
		if s-seq != 1 {
			ps, prev = append(ps, pair{uint64(i - prev), s - seq}), i
		}
		seq = s
	}
	st.lastSeq = seq
	b = appendPairs(b, ps)

	ps, prev = ps[:0], -1
	for i, pc := range eb.PC[:n] {
		c := cpus[i]
		if d := pc - st.lastPC[c]; d != 1 {
			ps, prev = append(ps, pair{uint64(i - prev), zigzag(d)}), i
		}
		st.lastPC[c] = pc
	}
	b = appendPairs(b, ps)
	f.enc.pairs = ps

	flags := eb.Flags[:n]
	plane := f.enc.plane[:0]
	var acc byte
	k := 0
	for _, fl := range flags {
		var bit byte
		switch {
		case fl&vm.FlagLoad != 0:
			bit = fl & vm.FlagStore >> 1
		case fl&vm.FlagStore != 0:
			continue
		default:
			bit = fl & vm.FlagTaken >> 2
		}
		acc |= bit << (k & 7)
		if k++; k&7 == 0 {
			plane = append(plane, acc)
			acc = 0
		}
	}
	if k&7 != 0 {
		plane = append(plane, acc)
	}
	f.enc.plane = plane
	b = binary.AppendUvarint(b, uint64(len(plane)))
	b = append(b, plane...)

	addrs := eb.Addr[:n]
	for i, fl := range flags {
		if fl&(vm.FlagLoad|vm.FlagStore) != 0 {
			c := cpus[i]
			b = binary.AppendUvarint(b, zigzag(addrs[i]-st.lastAddr[c]))
			st.lastAddr[c] = addrs[i]
		}
	}
	return f.writeFrame(FrameEvents, b, nil)
}

type eventDecoder struct {
	st    codecState
	plane []byte // scratch: the open-bit plane, padded to a bit per row

	// flagClass holds one flag class per program PC: decodeFlags
	// rebuilds each row's flags from it and the open bits.
	flagClass []uint8

	// memWords bounds every address decodeAddr accepts to
	// [0, memWords); zero leaves addresses unchecked.
	memWords int64
}

// Flag classes: which flag bits the opcode at a PC fixes and which it
// leaves open. The VM only ever emits rows consistent with their
// opcode; rebuilding the bits from the opcode at the trust boundary
// means every consumer behind the deframer (the detectors' columnar
// paths in particular, which dispatch on flags and opcode
// interchangeably) can rely on it without re-deriving the opcode per
// row.
const (
	classNone   uint8 = iota // no memory, no control transfer: open bit 0
	classLoad                // exactly FlagLoad: open (store) bit 0
	classStore               // exactly FlagStore: no open bit
	classCas                 // FlagLoad, plus FlagStore iff the open bit is set
	classBranch              // conditional branch: FlagTaken iff the open bit is set
	classJump                // jmp, jal, jr: always FlagTaken, open bit 1
	numClasses
)

// flagBad marks an open bit its opcode forbids in classFlags.
const flagBad uint8 = 0x80

// classFlags maps a row's class and open bit to its flags.
var classFlags = [numClasses][2]uint8{
	classNone:   {0, flagBad},
	classLoad:   {vm.FlagLoad, flagBad},
	classStore:  {vm.FlagStore, vm.FlagStore}, // a plain store owns no open bit
	classCas:    {vm.FlagLoad, vm.FlagLoad | vm.FlagStore},
	classBranch: {0, vm.FlagTaken},
	classJump:   {flagBad, vm.FlagTaken},
}

// classOpenBits is the number of open bits a row of each class owns.
var classOpenBits = [numClasses]int{1, 1, 0, 1, 1, 1}

// buildFlagClass computes the per-PC flag class table for a program.
func buildFlagClass(p *isa.Program) []uint8 {
	mc := make([]uint8, len(p.Code))
	for pc, in := range p.Code {
		switch in.Op {
		case isa.OpLoad:
			mc[pc] = classLoad
		case isa.OpStore:
			mc[pc] = classStore
		case isa.OpCas:
			mc[pc] = classCas
		case isa.OpBeqz, isa.OpBnez:
			mc[pc] = classBranch
		case isa.OpJmp, isa.OpJal, isa.OpJr:
			mc[pc] = classJump
		}
	}
	return mc
}

// decodeColumns parses one event batch payload directly into eb's
// columns — the decode hot path behind ReadFrameInto (and ReadFrame,
// which decodes into the Deframer's own batch). It checks the row count
// against MaxFrameEvents, sizes every column once, and then fills each
// column in its own loop, in payload order; Instr is never copied — the
// consumer rebinds it from the program, against which every PC is
// validated here. On error eb's contents are unspecified and the stream
// is no longer decodable (delta state has advanced); sessions tear the
// stream down, which is the only sane response to a malformed frame
// anyway.
func (d *eventDecoder) decodeColumns(payload []byte, prog *isa.Program, eb *vm.EventBatch) error {
	p := payloadReader{b: payload}
	count := p.uvarint()
	if p.err != nil {
		return p.err
	}
	if count > MaxFrameEvents {
		return fmt.Errorf("%w: %d rows in one events frame (max %d)", ErrBadFrame, count, MaxFrameEvents)
	}
	n := int(count)
	eb.Resize(n)
	if err := d.decodeThreads(&p, eb.CPU); err != nil {
		return err
	}
	if err := d.decodeSeq(&p, eb.Seq); err != nil {
		return err
	}
	if err := d.decodePC(&p, eb.CPU, eb.PC, int64(len(prog.Code))); err != nil {
		return err
	}
	if err := d.decodeFlags(&p, eb.PC, eb.Flags, prog); err != nil {
		return err
	}
	if err := d.decodeAddr(&p, eb.CPU, eb.Flags, eb.Addr); err != nil {
		return err
	}
	if p.rest() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %d events", ErrBadFrame, p.rest(), n)
	}
	if shift, on := eb.BlockShift(); on {
		blocks := eb.Blocks[:n]
		for i, a := range eb.Addr[:n] {
			blocks[i] = a >> shift
		}
	}
	return nil
}

// decodeThreads fills the CPU column from the run-length section.
func (d *eventDecoder) decodeThreads(p *payloadReader, cpus []int32) error {
	n := len(cpus)
	nruns := p.uvarint()
	if p.err != nil {
		return p.err
	}
	if nruns > uint64(n) {
		return fmt.Errorf("%w: %d thread runs over %d rows", ErrBadFrame, nruns, n)
	}
	threads := uint64(len(d.st.lastPC))
	start := 0
	for r := uint64(0); r < nruns; r++ {
		cpu := p.uvarint()
		length := p.uvarint()
		if p.err != nil {
			return p.err
		}
		if cpu >= threads {
			return fmt.Errorf("%w: event cpu %d outside the handshake's %d threads", ErrBadFrame, cpu, threads)
		}
		if length == 0 || length > uint64(n-start) {
			return fmt.Errorf("%w: thread run of %d rows at row %d of %d", ErrBadFrame, length, start, n)
		}
		end := start + int(length)
		for i := start; i < end; i++ {
			cpus[i] = int32(cpu)
		}
		start = end
	}
	if start != n {
		return fmt.Errorf("%w: thread runs cover %d of %d rows", ErrBadFrame, start, n)
	}
	return nil
}

// excReader walks one exception list: next yields its rows in order,
// then n (a row no loop reaches) once the list is exhausted.
type excReader struct {
	p    *payloadReader
	n    int    // rows in the batch
	left uint64 // pairs not yet read
	row  int    // the last pair's row, -1 before the first
}

func newExcReader(p *payloadReader, n int) (excReader, error) {
	left := p.uvarint()
	if p.err != nil {
		return excReader{}, p.err
	}
	if left > uint64(n) {
		return excReader{}, fmt.Errorf("%w: %d exceptions over %d rows", ErrBadFrame, left, n)
	}
	return excReader{p: p, n: n, left: left, row: -1}, nil
}

func (x *excReader) next() (row int, delta uint64, err error) {
	if x.left == 0 {
		return x.n, 0, nil
	}
	x.left--
	gap := x.p.uvarint()
	delta = x.p.uvarint()
	if x.p.err != nil {
		return 0, 0, x.p.err
	}
	if gap == 0 {
		return 0, 0, fmt.Errorf("%w: exception at row %d repeats", ErrBadFrame, x.row)
	}
	if gap >= uint64(x.n-x.row) {
		return 0, 0, fmt.Errorf("%w: exception past row %d of %d", ErrBadFrame, x.row, x.n)
	}
	x.row += int(gap)
	return x.row, delta, nil
}

// decodeSeq fills the Seq column: previous Seq + 1, except where the
// exception list says otherwise.
func (d *eventDecoder) decodeSeq(p *payloadReader, seqs []uint64) error {
	x, err := newExcReader(p, len(seqs))
	if err != nil {
		return err
	}
	s := d.st.lastSeq
	i := 0
	for {
		row, delta, err := x.next()
		if err != nil {
			return err
		}
		for ; i < row; i++ {
			s++
			seqs[i] = s
		}
		if row == len(seqs) {
			break
		}
		s += delta
		seqs[row] = s
		i = row + 1
	}
	d.st.lastSeq = s
	return nil
}

// decodePC fills the PC column: the row's thread's last PC + 1, except
// where the exception list says otherwise. One OR-fold then
// proves every PC is within the program.
func (d *eventDecoder) decodePC(p *payloadReader, cpus []int32, pcs []int64, codeLen int64) error {
	x, err := newExcReader(p, len(pcs))
	if err != nil {
		return err
	}
	at, delta, err := x.next()
	if err != nil {
		return err
	}
	last := d.st.lastPC
	var or int64
	for i, c := range cpus {
		pc := last[c] + 1
		if i == at {
			pc = last[c] + unzigzag(delta)
			if at, delta, err = x.next(); err != nil {
				return err
			}
		}
		last[c] = pc
		pcs[i] = pc
		or |= pc | (codeLen - 1 - pc)
	}
	if or < 0 {
		for _, pc := range pcs {
			if pc < 0 || pc >= codeLen {
				return fmt.Errorf("%w: event pc %d outside program code [0,%d)", ErrBadFrame, pc, codeLen)
			}
		}
	}
	return nil
}

// decodeFlags rebuilds the Flags column from the opcode class at each
// PC and the open-bit plane, rejecting a plane whose length does not
// match the rows that own a bit and an open bit the opcode forbids.
func (d *eventDecoder) decodeFlags(p *payloadReader, pcs []int64, flags []uint8, prog *isa.Program) error {
	size := p.uvarint()
	if p.err == nil && size > uint64(p.rest()) {
		p.fail()
	}
	plane := p.bytes(int(size))
	if p.err != nil {
		return p.err
	}
	// The row loop reads a copy padded to a bit per row, so it needs no
	// bounds branch: a plane too short for its rows reads zeros past its
	// end and then fails the length check.
	padded := max(len(plane), len(pcs)>>3+1)
	if cap(d.plane) < padded {
		d.plane = make([]byte, padded)
	}
	pad := d.plane[:padded]
	clear(pad[copy(pad, plane):])
	mc := d.flagClass
	k := 0
	var bad uint8
	for i, pc := range pcs {
		c := mc[pc]
		f := classFlags[c][pad[k>>3]>>(k&7)&1]
		bad |= f
		flags[i] = f
		k += classOpenBits[c]
	}
	if (k+7)>>3 != len(plane) {
		return fmt.Errorf("%w: open-bit plane of %d bytes for %d bits", ErrBadFrame, len(plane), k)
	}
	if bad&flagBad != 0 {
		for i, f := range flags {
			if f == flagBad {
				return fmt.Errorf("%w: open bit inconsistent with %v at pc %d", ErrBadFrame, prog.Code[pcs[i]].Op, pcs[i])
			}
		}
	}
	return nil
}

// decodeAddr fills the Addr column: one zigzag delta per memory row,
// read with one- and two-byte fast paths; other rows get address 0.
// With a memory bound set (Deframer.SetMemWords), one OR-fold over the
// loop proves every address is within it, as decodePC does for PCs.
func (d *eventDecoder) decodeAddr(p *payloadReader, cpus []int32, flags []uint8, addrs []int64) error {
	b, off := p.b, p.off
	last := d.st.lastAddr
	top := d.memWords - 1
	var or int64
	for i, fl := range flags {
		if fl&(vm.FlagLoad|vm.FlagStore) == 0 {
			addrs[i] = 0
			continue
		}
		var u uint64
		if off+1 < len(b) && b[off] >= 0x80 && b[off+1] < 0x80 {
			u = uint64(b[off]&0x7f) | uint64(b[off+1])<<7
			off += 2
		} else if off < len(b) && b[off] < 0x80 {
			u = uint64(b[off])
			off++
		} else {
			v, m := binary.Uvarint(b[off:])
			if m <= 0 {
				p.off = off
				p.fail()
				return p.err
			}
			u = v
			off += m
		}
		c := cpus[i]
		a := last[c] + unzigzag(u)
		last[c] = a
		addrs[i] = a
		or |= a | (top - a)
	}
	p.off = off
	if or < 0 && d.memWords > 0 {
		return fmt.Errorf("%w: event address outside memory of %d words", ErrBadFrame, d.memWords)
	}
	return nil
}
