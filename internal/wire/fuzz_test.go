package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// deframeCorpus builds the decoder's seed corpus over w, covering the
// error taxonomy explicitly: truncated frames, corrupted magic, version
// skew, max-length abuse (huge declared payloads and counts over tiny
// actual payloads), an embedded-program Hello, Result/Error frames, the
// cluster frames, an older version's keyed Hello, and one Events frame
// per column-section malformation (malformedFrames). Both fuzz targets
// seed from it.
func deframeCorpus(tb testing.TB, w *workloads.Workload) [][]byte {
	var seeds [][]byte
	// A well-formed stream: hello (registry form), event batches,
	// goodbye, result, error.
	var good bytes.Buffer
	fr := NewFramer(&good, w.NumThreads)
	if err := fr.WriteHello(Hello{Version: Version, Threads: w.NumThreads, Workload: w.Name, Scale: 1, Seed: 9}); err != nil {
		tb.Fatal(err)
	}
	m, err := w.NewVM(9)
	if err != nil {
		tb.Fatal(err)
	}
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		_ = fr.WriteColumns(eb)
	}))
	if _, err := m.Run(4096); err != nil {
		tb.Fatal(err)
	}
	m.FlushBatch()
	_ = fr.WriteGoodbye()
	clean := good.Len()
	_ = fr.WriteResult(Result{Sample: []byte(`{}`), Err: ""})
	_ = fr.WriteError("terminal")
	g := good.Bytes()
	seeds = append(seeds, g)

	// Hello with an embedded program image.
	var withProg bytes.Buffer
	fp := NewFramer(&withProg, w.NumThreads)
	if err := fp.WriteHello(Hello{Version: Version, Threads: w.NumThreads, Program: w.Prog, MemWords: w.MemWords}); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, withProg.Bytes())

	// The same stream ending cleanly at its goodbye.
	seeds = append(seeds, g[:clean])

	// Truncations at every interesting boundary.
	for _, cut := range []int{1, 3, 8, 9, 12, len(g) / 2, len(g) - 1} {
		if cut < len(g) {
			seeds = append(seeds, g[:cut])
		}
	}
	// Corrupted magic.
	bad := append([]byte(nil), g...)
	bad[0] = 'x'
	seeds = append(seeds, bad)
	// Version skew.
	var skew bytes.Buffer
	fs := NewFramer(&skew, 2)
	_ = fs.WriteHello(Hello{Version: Version + 7, Threads: 2})
	seeds = append(seeds, skew.Bytes())
	// Max-length abuse: tiny frame declaring a huge payload, and a
	// legal-length frame declaring an absurd event count.
	abuse := append([]byte(nil), Magic[:]...)
	abuse = append(abuse, byte(FrameEvents))
	abuse = binary.LittleEndian.AppendUint32(abuse, MaxFramePayload)
	seeds = append(seeds, abuse)
	count := append([]byte(nil), Magic[:]...)
	count = append(count, byte(FrameEvents))
	count = binary.LittleEndian.AppendUint32(count, 10)
	count = binary.AppendUvarint(count, 1<<40) // count far beyond payload
	count = append(count, make([]byte, 9)...)
	seeds = append(seeds, count)
	// Cluster frames (v3): a keyed hello, an assign view, and a handoff
	// wrapping the good stream as history. The fuzz deframer never opts
	// into handoffs, so these also pin the reject-by-default path.
	var clu bytes.Buffer
	fcl := NewFramer(&clu, 2)
	_ = fcl.WriteHello(Hello{Version: Version, Threads: 2, Workload: "queue-buggy", Key: "queue-buggy/9"})
	_ = fcl.WriteAssign(Assignment{Epoch: 3, RingVersion: 2, Origin: "n1", Nodes: []NodeInfo{
		{ID: "n1", Addr: "127.0.0.1:7071", HTTPAddr: "127.0.0.1:7171"},
		{ID: "n2", Addr: "127.0.0.1:7072"},
	}})
	_ = fcl.WriteHandoff(Handoff{Key: "queue-buggy/9", Origin: "n1", Epoch: 3, History: g})
	seeds = append(seeds, clu.Bytes())
	// A relayed hello (hop flag) and a token-carrying assign.
	var relay bytes.Buffer
	frl := NewFramer(&relay, 2)
	_ = frl.WriteHello(Hello{Version: Version, Threads: 2, Workload: "queue-buggy", Key: "queue-buggy/9", Hops: 2})
	_ = frl.WriteAssign(Assignment{Epoch: 4, RingVersion: 4, Origin: "n2", Token: "peers-0011223344556677",
		Nodes: []NodeInfo{{ID: "n2", Addr: "127.0.0.1:7072"}}})
	seeds = append(seeds, relay.Bytes())
	// A keyed hello of the previous protocol version: ErrVersionSkew,
	// never a keyed stream.
	var oldKey bytes.Buffer
	_ = NewFramer(&oldKey, 2).WriteHello(Hello{Version: Version - 1, Threads: 2, Workload: "queue-buggy", Key: "k"})
	seeds = append(seeds, oldKey.Bytes())
	for _, m := range malformedFrames(tb, w) {
		seeds = append(seeds, m.frame)
	}
	return seeds
}

// section is one column section of a hand-built Events payload, as
// uvarints.
type section []uint64

// eventsFrame frames hand-built column sections (event.go's layout) as
// one Events frame; raw bytes follow the sections verbatim.
func eventsFrame(sections []section, raw ...byte) []byte {
	var p []byte
	for _, s := range sections {
		for _, v := range s {
			p = binary.AppendUvarint(p, v)
		}
	}
	p = append(p, raw...)
	frame := append([]byte(nil), Magic[:]...)
	frame = append(frame, byte(FrameEvents))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(p)))
	return append(frame, p...)
}

// malformedFrames builds one frame per malformation the column-major
// payload can carry, each of which the decoder must reject with
// ErrBadFrame — all but the last are Events frames over w's program,
// decodable once SetProgram ran. The base row is one load by thread 0
// at w's first load PC, address 8: count 1, one run, no Seq
// exception, one PC exception, an open-bit plane of one clear bit, and
// one address delta.
func malformedFrames(tb testing.TB, w *workloads.Workload) []struct {
	name  string
	frame []byte
} {
	pc := zigzag(firstLoadPC(tb, w))
	addr := zigzag(8)
	one := section{1}
	run := section{1, 0, 1}
	noExc := section{0}
	pcExc := section{1, 1, pc}
	var withoutMem bytes.Buffer
	if err := NewFramer(&withoutMem, 2).WriteHello(Hello{Version: Version, Threads: 2, Program: w.Prog}); err != nil {
		tb.Fatal(err)
	}
	return []struct {
		name  string
		frame []byte
	}{
		{"runs cover more rows than count", eventsFrame([]section{one, {1, 0, 2}, noExc, pcExc, {1}}, 0, byte(addr))},
		{"runs cover fewer rows than count", eventsFrame([]section{{2}, run, noExc, pcExc, {1}}, 0, byte(addr), byte(addr))},
		{"empty run", eventsFrame([]section{one, {2, 0, 0, 0, 1}, noExc, pcExc, {1}}, 0, byte(addr))},
		{"exception index repeats", eventsFrame([]section{{2}, {1, 0, 2}, {2, 1, 5, 0, 5}, pcExc, {1}}, 0, byte(addr))},
		{"exception index past count", eventsFrame([]section{one, run, {1, 2, 5}, pcExc, {1}}, 0, byte(addr))},
		{"count above the cap", eventsFrame([]section{{MaxFrameEvents + 1}, {1, 0, MaxFrameEvents + 1}, noExc, noExc})},
		{"short open-bit plane", eventsFrame([]section{one, run, noExc, pcExc, {0}, {addr}})},
		{"taken bit on a load", eventsFrame([]section{one, run, noExc, pcExc, {1}}, 1, byte(addr))},
		{"trailing bytes", eventsFrame([]section{one, run, noExc, pcExc, {1}}, 0, byte(addr), 0)},
		{"embedded program without memory size", withoutMem.Bytes()},
	}
}

// firstLoadPC is the PC of w's first load instruction.
func firstLoadPC(tb testing.TB, w *workloads.Workload) int64 {
	for pc, in := range w.Prog.Code {
		if in.Op == isa.OpLoad {
			return int64(pc)
		}
	}
	tb.Fatalf("%s has no load", w.Name)
	return -1
}

// TestMalformedFramesRejected: every malformedFrames entry is
// ErrBadFrame — so each fuzz seed built from them starts on the path it
// names, not on an accidental valid frame.
func TestMalformedFramesRejected(t *testing.T) {
	w, err := workloads.ByName("queue-fixed", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range malformedFrames(t, w) {
		d := NewDeframer(bytes.NewReader(m.frame))
		d.SetProgram(w.Prog, 2)
		if _, err := d.ReadFrame(); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: got %v, want ErrBadFrame", m.name, err)
		}
	}
	// The base row itself decodes.
	pcLoad := firstLoadPC(t, w)
	good := eventsFrame([]section{{1}, {1, 0, 1}, {0}, {1, 1, zigzag(pcLoad)}, {1}}, 0, byte(zigzag(8)))
	d := NewDeframer(bytes.NewReader(good))
	d.SetProgram(w.Prog, 2)
	eb := vm.NewEventBatch(0)
	if _, err := d.ReadFrameInto(eb); err != nil || eb.Len() != 1 || eb.Addr[0] != 8 || eb.Flags[0] != vm.FlagLoad || eb.PC[0] != pcLoad {
		t.Fatalf("base row: %v, %+v", err, eb)
	}
}

// FuzzDeframe throws arbitrary bytes at ReadFrame, the reader clients
// use for control frames, and requires that it never panics, never
// loops, and never allocates beyond the input's own size class — the
// properties a network-facing decoder must hold against hostile peers.
// Errors must stay inside the protocol's taxonomy, and the rows an
// Events frame decodes into the Deframer's own batch must carry a CPU
// within the handshake and a PC within the program.
func FuzzDeframe(f *testing.F) {
	w, err := workloads.ByName("queue-fixed", 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range deframeCorpus(f, w) {
		f.Add(s)
	}

	prog := w.Prog
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDeframer(bytes.NewReader(data))
		d.SetProgram(prog, w.NumThreads)
		// A decoder over finite input must terminate: every iteration
		// either consumes at least a header or errors out.
		for i := 0; i <= len(data); i++ {
			if _, err := d.ReadFrame(); err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, ErrBadMagic) ||
					errors.Is(err, ErrTruncated) || errors.Is(err, ErrVersionSkew) ||
					errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrBadFrame) {
					return
				}
				t.Fatalf("error outside the taxonomy: %v", err)
			}
			eb := &d.batch
			for i := 0; i < eb.Len(); i++ {
				if eb.CPU[i] < 0 || int(eb.CPU[i]) >= w.NumThreads {
					t.Fatalf("decoded event with cpu %d", eb.CPU[i])
				}
				if eb.PC[i] < 0 || eb.PC[i] >= int64(len(prog.Code)) {
					t.Fatalf("decoded event with pc %d", eb.PC[i])
				}
			}
		}
		t.Fatalf("deframer did not terminate on %d bytes", len(data))
	})
}

// FuzzDeframeColumns drives the columnar decode path (ReadFrameInto,
// the served ingest path) with arbitrary bytes. Beyond FuzzDeframe's
// properties — termination, taxonomy-only errors, CPU/PC bounds — it
// checks the batch's invariants whatever the input did: every column,
// Blocks included, has the frame's row count, and every row's flags are
// its opcode class's bits plus only the bits that class leaves open.
// Its own seeds add columnar-specific malformations: frames truncated
// inside a column section, and a count claiming more events than the
// sections carry; the shared corpus follows.
func FuzzDeframeColumns(f *testing.F) {
	w, err := workloads.ByName("queue-fixed", 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	fr := NewFramer(&good, w.NumThreads)
	if err := fr.WriteHello(Hello{Version: Version, Threads: w.NumThreads, Workload: w.Name, Scale: 1, Seed: 3}); err != nil {
		f.Fatal(err)
	}
	m, err := w.NewVM(3)
	if err != nil {
		f.Fatal(err)
	}
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		_ = fr.WriteColumns(eb)
	}))
	if _, err := m.Run(4096); err != nil {
		f.Fatal(err)
	}
	m.FlushBatch()
	_ = fr.WriteGoodbye()
	g := good.Bytes()
	f.Add(g)
	// Truncations inside event payloads: cut mid-column so flags promise
	// varints the payload no longer carries.
	for _, cut := range []int{len(g) / 4, len(g) / 2, len(g) - 2} {
		if cut > 0 && cut < len(g) {
			f.Add(g[:cut])
		}
	}
	// Count inconsistent with the payload: claims 100 events, carries
	// roughly two events' worth of bytes.
	short := binary.AppendUvarint(nil, 100)
	short = append(short, 1, 0, 2, 0, 1, 1, 2, 0) // a few plausible varints
	frame := append([]byte(nil), Magic[:]...)
	frame = append(frame, byte(FrameEvents))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(short)))
	frame = append(frame, short...)
	f.Add(frame)
	for _, s := range deframeCorpus(f, w) {
		f.Add(s)
	}

	prog := w.Prog
	mc := buildFlagClass(prog)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDeframer(bytes.NewReader(data))
		d.SetProgram(prog, w.NumThreads)
		eb := vm.NewEventBatch(0)
		// A decoder over finite input must terminate: every iteration
		// either consumes at least a header or errors out.
		for i := 0; i <= len(data); i++ {
			frame, err := d.ReadFrameInto(eb)
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, ErrBadMagic) ||
					errors.Is(err, ErrTruncated) || errors.Is(err, ErrVersionSkew) ||
					errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrBadFrame) {
					return
				}
				t.Fatalf("error outside the taxonomy: %v", err)
			}
			n := eb.Len()
			if len(eb.CPU) != n || len(eb.PC) != n || len(eb.Flags) != n ||
				len(eb.Addr) != n || len(eb.Blocks) != n {
				t.Fatalf("ragged columns: seq %d cpu %d pc %d flags %d addr %d blocks %d",
					n, len(eb.CPU), len(eb.PC), len(eb.Flags), len(eb.Addr), len(eb.Blocks))
			}
			if frame.Type != FrameEvents && n != 0 {
				t.Fatalf("control frame %v left %d rows in the batch", frame.Type, n)
			}
			for i := 0; i < n; i++ {
				if eb.CPU[i] < 0 || int(eb.CPU[i]) >= w.NumThreads {
					t.Fatalf("decoded row with cpu %d", eb.CPU[i])
				}
				if eb.PC[i] < 0 || eb.PC[i] >= int64(len(prog.Code)) {
					t.Fatalf("decoded row with pc %d", eb.PC[i])
				}
				c := mc[eb.PC[i]]
				if fl := eb.Flags[i]; fl != classFlags[c][0] && (c == classStore || fl != classFlags[c][1]) || fl == flagBad {
					t.Fatalf("row %d: flags %#x at %v", i, fl, prog.Code[eb.PC[i]].Op)
				}
				if eb.Blocks[i] != eb.Addr[i] {
					t.Fatalf("row %d: block %d for address %d at shift 0", i, eb.Blocks[i], eb.Addr[i])
				}
			}
		}
		t.Fatalf("deframer did not terminate on %d bytes", len(data))
	})
}

// TestDeframeBoundedAllocation feeds a frame whose header declares the
// maximum payload over a stream that never delivers it, a payload whose
// event count dwarfs its bytes, and a frame of MaxFrameEvents+1 rows:
// in every case the decoder must fail without materializing the
// declared size. The writer refuses the oversized batch too.
func TestDeframeBoundedAllocation(t *testing.T) {
	w, err := workloads.ByName("queue-fixed", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := append([]byte(nil), Magic[:]...)
	hdr = append(hdr, byte(FrameEvents))
	hdr = binary.LittleEndian.AppendUint32(hdr, MaxFramePayload)
	d := NewDeframer(bytes.NewReader(hdr))
	d.SetProgram(w.Prog, 2)
	if _, err := d.ReadFrame(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("declared-but-absent payload: got %v, want ErrTruncated", err)
	}

	payload := binary.AppendUvarint(nil, 1<<50)
	frame := append([]byte(nil), Magic[:]...)
	frame = append(frame, byte(FrameEvents))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	d = NewDeframer(bytes.NewReader(frame))
	d.SetProgram(w.Prog, 2)
	if _, err := d.ReadFrame(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("absurd event count: got %v, want ErrBadFrame", err)
	}

	// One row past the cap, every section present: MaxFrameEvents+1 ALU
	// rows of thread 0, each at the last PC + 1.
	rows := MaxFrameEvents + 1
	over := eventsFrame([]section{{uint64(rows)}, {1, 0, uint64(rows)}, {0}, {0}, {uint64(rows+7) / 8}}, make([]byte, (rows+7)/8)...)
	d = NewDeframer(bytes.NewReader(over))
	d.SetProgram(w.Prog, 2)
	eb := vm.NewEventBatch(0)
	if _, err := d.ReadFrameInto(eb); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("%d-row frame: got %v, want ErrBadFrame", rows, err)
	}
	if cap(eb.Seq) != 0 || cap(eb.Blocks) != 0 {
		t.Fatalf("%d-row frame sized the batch to %d rows before failing", rows, cap(eb.Seq))
	}
	big := vm.NewEventBatch(rows)
	for i := 0; i < rows; i++ {
		big.AppendRaw(uint64(i+1), 0, 0, 0, 0)
	}
	if err := NewFramer(io.Discard, 2).WriteColumns(big); err == nil {
		t.Fatalf("writer accepted a %d-row batch", rows)
	}
}
