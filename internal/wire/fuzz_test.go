package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/vm"
	"repro/internal/workloads"
)

// deframeCorpus builds the decoder's seed corpus over w, covering the
// error taxonomy explicitly: truncated frames, corrupted magic, version
// skew, max-length abuse (huge declared payloads and counts over tiny
// actual payloads), an embedded-program Hello, Result/Error frames, the
// cluster frames, and the pre-v3 key flag. Both fuzz targets seed from
// it, so FuzzDeframeColumns, the target `make fuzz-smoke` runs, mutates
// from all of it.
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
	if err := fp.WriteHello(Hello{Version: Version, Threads: w.NumThreads, Program: w.Prog}); err != nil {
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
	// Key flag on a pre-v3 hello: must decode as ErrBadFrame, never as a
	// keyed stream.
	oldKey := append([]byte(nil), Magic[:]...)
	oldKey = append(oldKey, byte(FrameHello))
	kp := binary.AppendUvarint(nil, 2) // version 2
	kp = binary.AppendUvarint(kp, 2)   // threads
	kp = binary.AppendUvarint(kp, 0)   // workload ""
	kp = binary.AppendUvarint(kp, 0)   // scale
	kp = binary.AppendUvarint(kp, 0)   // seed
	kp = append(kp, 8)                 // key flag without the version for it
	kp = binary.AppendUvarint(kp, 1)
	kp = append(kp, 'k')
	oldKey = binary.LittleEndian.AppendUint32(oldKey, uint32(len(kp)))
	oldKey = append(oldKey, kp...)
	seeds = append(seeds, oldKey)
	return seeds
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
// checks the batch's structural invariant: all columns the same length,
// whatever the input did. Its own seeds add columnar-specific
// malformations: frames truncated inside an event's column data, and a
// count claiming more events than decode; the shared corpus follows.
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
				len(eb.Addr) != n || len(eb.Loaded) != n || len(eb.Stored) != n {
				t.Fatalf("ragged columns: seq %d cpu %d pc %d flags %d addr %d loaded %d stored %d",
					n, len(eb.CPU), len(eb.PC), len(eb.Flags), len(eb.Addr), len(eb.Loaded), len(eb.Stored))
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
			}
		}
		t.Fatalf("deframer did not terminate on %d bytes", len(data))
	})
}

// TestDeframeBoundedAllocation feeds a frame whose header declares the
// maximum payload over a stream that never delivers it, and a payload
// whose event count dwarfs its bytes: in both cases the decoder must
// fail without materializing the declared size.
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
}
