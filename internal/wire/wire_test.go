package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// roundTrip pushes frames through a Framer into a buffer and hands the
// bytes to a Deframer.
func roundTrip(t *testing.T, threads int, write func(*Framer)) *Deframer {
	t.Helper()
	var buf bytes.Buffer
	f := NewFramer(&buf, threads)
	write(f)
	return NewDeframer(&buf)
}

func TestHelloRoundTrip(t *testing.T) {
	w, err := workloads.ByName("queue-buggy", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Hello{
		{Version: Version, Threads: 4, Workload: "queue-buggy", Scale: 2, Seed: 7, Witness: true},
		{Version: Version, Threads: w.NumThreads, Program: w.Prog},
	}
	for _, h := range cases {
		d := roundTrip(t, h.Threads, func(f *Framer) {
			if err := f.WriteHello(h); err != nil {
				t.Fatal(err)
			}
		})
		fr, err := d.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame(%+v): %v", h, err)
		}
		if fr.Type != FrameHello {
			t.Fatalf("got frame type %v, want hello", fr.Type)
		}
		got := fr.Hello
		if h.Program == nil {
			if !reflect.DeepEqual(got, h) {
				t.Errorf("hello round trip: got %+v want %+v", got, h)
			}
		} else {
			if got.Program == nil || len(got.Program.Code) != len(h.Program.Code) {
				t.Fatalf("embedded program did not survive: %+v", got.Program)
			}
			if !reflect.DeepEqual(got.Program.Code, h.Program.Code) {
				t.Errorf("embedded program code differs after round trip")
			}
		}
	}
}

// TestEventsRoundTrip replays a real workload execution through the
// codec and requires every decoded batch to be bit-identical to what the
// VM delivered, at the VM's own batch boundaries.
func TestEventsRoundTrip(t *testing.T) {
	w, err := workloads.ByName("queue-buggy", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.NewVM(3)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	f := NewFramer(&buf, w.NumThreads)
	if err := f.WriteHello(Hello{Version: Version, Threads: w.NumThreads, Workload: w.Name}); err != nil {
		t.Fatal(err)
	}
	var sent [][]vm.Event
	var encodedBytes int
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		sent = append(sent, eb.AppendEvents(nil, w.Prog.Code))
		before := buf.Len()
		if err := f.WriteColumns(eb); err != nil {
			t.Fatal(err)
		}
		encodedBytes += buf.Len() - before
	}))
	if _, err := m.Run(1 << 22); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteGoodbye(); err != nil {
		t.Fatal(err)
	}
	if len(sent) == 0 {
		t.Fatal("workload produced no batches")
	}

	d := NewDeframer(&buf)
	fr, err := d.ReadFrame()
	if err != nil || fr.Type != FrameHello {
		t.Fatalf("first frame: %v type %v", err, fr.Type)
	}
	d.SetProgram(w.Prog, fr.Hello.Threads)
	var got [][]vm.Event
	var total int
	eb := vm.NewEventBatch(0)
	for {
		fr, err := d.ReadFrameInto(eb)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type == FrameGoodbye {
			break
		}
		if fr.Type != FrameEvents {
			t.Fatalf("unexpected frame %v", fr.Type)
		}
		got = append(got, eb.AppendEvents(nil, w.Prog.Code))
		total += eb.Len()
	}
	if !reflect.DeepEqual(got, sent) {
		t.Fatalf("decoded stream differs: %d batches sent, %d received", len(sent), len(got))
	}
	if _, err := d.ReadFrame(); err != io.EOF {
		t.Fatalf("after goodbye: got %v, want io.EOF", err)
	}
	perEvent := float64(encodedBytes) / float64(total)
	t.Logf("%d events in %d bytes (%.2f bytes/event)", total, encodedBytes, perEvent)
	if perEvent > 16 {
		t.Errorf("delta encoding regressed: %.2f bytes/event (want <= 16)", perEvent)
	}
}

func TestResultAndErrorRoundTrip(t *testing.T) {
	d := roundTrip(t, 1, func(f *Framer) {
		if err := f.WriteResult(Result{Sample: []byte(`{"workload":"q"}`), Err: "shed"}); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteError("boom"); err != nil {
			t.Fatal(err)
		}
	})
	fr, err := d.ReadFrame()
	if err != nil || fr.Type != FrameResult {
		t.Fatalf("result frame: %v type %v", err, fr.Type)
	}
	if string(fr.Result.Sample) != `{"workload":"q"}` || fr.Result.Err != "shed" {
		t.Errorf("result round trip: %+v", fr.Result)
	}
	fr, err = d.ReadFrame()
	if err != nil || fr.Type != FrameError {
		t.Fatalf("error frame: %v type %v", err, fr.Type)
	}
	if fr.Errmsg != "boom" {
		t.Errorf("errmsg = %q", fr.Errmsg)
	}
}

// TestLargeResultCap: results (witness-heavy report JSON) may exceed the
// ingest frame cap, but only a reader that opted in via ExpectResults
// accepts them — an ingest-side deframer keeps its tight allocation
// bound no matter what the length prefix claims.
func TestLargeResultCap(t *testing.T) {
	big := Result{Sample: bytes.Repeat([]byte{'x'}, MaxFramePayload+1)}
	var buf bytes.Buffer
	if err := NewFramer(&buf, 1).WriteResult(big); err != nil {
		t.Fatalf("writer rejected a legal large result: %v", err)
	}
	raw := buf.Bytes()

	if _, err := NewDeframer(bytes.NewReader(raw)).ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ingest-side read of large result: got %v, want ErrFrameTooLarge", err)
	}
	d := NewDeframer(bytes.NewReader(raw))
	d.ExpectResults()
	fr, err := d.ReadFrame()
	if err != nil || fr.Type != FrameResult || len(fr.Result.Sample) != MaxFramePayload+1 {
		t.Fatalf("opted-in read: %v type %v len %d", err, fr.Type, len(fr.Result.Sample))
	}

	tooBig := Result{Sample: make([]byte, MaxResultPayload+1)}
	if err := NewFramer(&buf, 1).WriteResult(tooBig); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writer accepted a result past MaxResultPayload: %v", err)
	}
}

// TestErrorTaxonomy drives each protocol failure and checks it maps to
// its dedicated sentinel.
func TestErrorTaxonomy(t *testing.T) {
	validHello := func() []byte {
		var buf bytes.Buffer
		f := NewFramer(&buf, 2)
		if err := f.WriteHello(Hello{Version: Version, Threads: 2}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("bad magic", func(t *testing.T) {
		b := validHello()
		b[0] = 'X'
		_, err := NewDeframer(bytes.NewReader(b)).ReadFrame()
		if !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		b := validHello()
		_, err := NewDeframer(bytes.NewReader(b[:5])).ReadFrame()
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		b := validHello()
		_, err := NewDeframer(bytes.NewReader(b[:len(b)-1])).ReadFrame()
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("version skew", func(t *testing.T) {
		var buf bytes.Buffer
		f := NewFramer(&buf, 2)
		if err := f.WriteHello(Hello{Version: Version + 1, Threads: 2}); err != nil {
			t.Fatal(err)
		}
		_, err := NewDeframer(&buf).ReadFrame()
		if !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("got %v, want ErrVersionSkew", err)
		}
	})
	t.Run("frame too large", func(t *testing.T) {
		b := validHello()
		binary.LittleEndian.PutUint32(b[5:], MaxFramePayload+1)
		_, err := NewDeframer(bytes.NewReader(b)).ReadFrame()
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("events before handshake", func(t *testing.T) {
		var buf bytes.Buffer
		f := NewFramer(&buf, 2)
		if err := f.WriteColumns(toBatch([]vm.Event{{CPU: 0, PC: 0}})); err != nil {
			t.Fatal(err)
		}
		_, err := NewDeframer(&buf).ReadFrame()
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("flags inconsistent with opcode", func(t *testing.T) {
		w, err := workloads.ByName("queue-fixed", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		// One hostile row per flag class: a store-flagged load PC, a
		// load-flagged store PC, a flagless CAS PC (which would silently
		// skip the sync annotation in a flags-filtering consumer), and a
		// load-flagged ALU PC. Each must die at the trust boundary.
		var pcLoad, pcStore, pcCas, pcALU int64 = -1, -1, -1, -1
		for pc, in := range w.Prog.Code {
			switch {
			case in.Op == isa.OpLoad && pcLoad < 0:
				pcLoad = int64(pc)
			case in.Op == isa.OpStore && pcStore < 0:
				pcStore = int64(pc)
			case in.Op == isa.OpCas && pcCas < 0:
				pcCas = int64(pc)
			case !in.Op.IsMem() && pcALU < 0:
				pcALU = int64(pc)
			}
		}
		hostile := []vm.Event{
			{Seq: 1, PC: pcLoad, IsStore: true, Addr: 8, Stored: 1},
			{Seq: 2, PC: pcStore, IsLoad: true, Addr: 8, Loaded: 1},
			{Seq: 3, PC: pcCas},
			{Seq: 4, PC: pcALU, IsLoad: true, Addr: 8, Loaded: 1},
		}
		for i, ev := range hostile {
			if ev.PC < 0 {
				continue // workload lacks this opcode
			}
			var buf bytes.Buffer
			f := NewFramer(&buf, 2)
			if err := f.WriteColumns(toBatch([]vm.Event{ev})); err != nil {
				t.Fatal(err)
			}
			d := NewDeframer(&buf)
			d.SetProgram(w.Prog, 2)
			if _, err := d.ReadFrame(); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("hostile row %d: got %v, want ErrBadFrame", i, err)
			}
		}
	})
	t.Run("goodbye with payload", func(t *testing.T) {
		var buf bytes.Buffer
		buf.Write(Magic[:])
		buf.WriteByte(byte(FrameGoodbye))
		var lenb [4]byte
		binary.LittleEndian.PutUint32(lenb[:], 1)
		buf.Write(lenb[:])
		buf.WriteByte(0)
		_, err := NewDeframer(&buf).ReadFrame()
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("unknown frame type", func(t *testing.T) {
		var buf bytes.Buffer
		buf.Write(Magic[:])
		buf.WriteByte(0x7f)
		buf.Write(make([]byte, 4))
		_, err := NewDeframer(&buf).ReadFrame()
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("bad thread count", func(t *testing.T) {
		var buf bytes.Buffer
		f := NewFramer(&buf, 2)
		if err := f.WriteHello(Hello{Version: Version, Threads: 65}); err != nil {
			t.Fatal(err)
		}
		_, err := NewDeframer(&buf).ReadFrame()
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("event pc outside program", func(t *testing.T) {
		w, err := workloads.ByName("queue-fixed", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		f := NewFramer(&buf, 2)
		if err := f.WriteColumns(toBatch([]vm.Event{{Seq: 0, CPU: 0, PC: int64(len(w.Prog.Code)) + 10}})); err != nil {
			t.Fatal(err)
		}
		d := NewDeframer(&buf)
		d.SetProgram(w.Prog, 2)
		if _, err := d.ReadFrame(); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
}

// TestEventsRandomRoundTrip round-trips adversarially jumpy synthetic
// streams (PC and address deltas in both directions, negative values,
// CAS-like load+store events) instead of relying on workload locality.
func TestEventsRandomRoundTrip(t *testing.T) {
	w, err := workloads.ByName("queue-fixed", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const threads = 8
	// The deframer validates flag/opcode consistency per PC, so the
	// synthetic rows must draw their PC from the opcode class matching
	// the shape they fake — exactly what a real VM stream guarantees.
	var pcNone, pcLoad, pcStore, pcCas []int64
	for pc, in := range w.Prog.Code {
		switch in.Op {
		case isa.OpLoad:
			pcLoad = append(pcLoad, int64(pc))
		case isa.OpStore:
			pcStore = append(pcStore, int64(pc))
		case isa.OpCas:
			pcCas = append(pcCas, int64(pc))
		default:
			pcNone = append(pcNone, int64(pc))
		}
	}
	pick := func(pcs []int64) int64 { return pcs[rng.Intn(len(pcs))] }
	var seq uint64
	mkBatch := func(n int) []vm.Event {
		evs := make([]vm.Event, n)
		for i := range evs {
			seq += uint64(rng.Intn(3) + 1) // gaps: a filtered stream stays decodable
			evs[i] = vm.Event{
				Seq:   seq,
				CPU:   rng.Intn(threads),
				Taken: rng.Intn(2) == 0,
			}
			shape := rng.Intn(4)
			classes := [4][]int64{pcLoad, pcStore, pcCas, pcNone}
			for len(classes[shape]) == 0 { // e.g. a program with no CAS
				shape = rng.Intn(4)
			}
			switch shape {
			case 0:
				evs[i].PC = pick(pcLoad)
				evs[i].IsLoad = true
				evs[i].Addr = rng.Int63n(1 << 40)
				evs[i].Loaded = rng.Int63() - rng.Int63()
			case 1:
				evs[i].PC = pick(pcStore)
				evs[i].IsStore = true
				evs[i].Addr = rng.Int63n(1 << 40)
				evs[i].Stored = rng.Int63() - rng.Int63()
			case 2: // CAS shape
				evs[i].PC = pick(pcCas)
				evs[i].IsLoad, evs[i].IsStore = true, true
				evs[i].Addr = rng.Int63n(1 << 40)
				evs[i].Loaded = rng.Int63()
				evs[i].Stored = -rng.Int63()
			default:
				evs[i].PC = pick(pcNone)
			}
			evs[i].Instr = w.Prog.Code[evs[i].PC]
		}
		return evs
	}

	var buf bytes.Buffer
	f := NewFramer(&buf, threads)
	var sent [][]vm.Event
	for i := 0; i < 50; i++ {
		b := mkBatch(rng.Intn(100) + 1)
		sent = append(sent, b)
		if err := f.WriteColumns(toBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDeframer(&buf)
	d.SetProgram(w.Prog, threads)
	eb := vm.NewEventBatch(0)
	for i, want := range sent {
		if _, err := d.ReadFrameInto(eb); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !reflect.DeepEqual(eb.AppendEvents(nil, w.Prog.Code), want) {
			t.Fatalf("batch %d differs after round trip", i)
		}
	}
}

func TestWriteColumnsRejectsForeignCPU(t *testing.T) {
	f := NewFramer(io.Discard, 2)
	if err := f.WriteColumns(toBatch([]vm.Event{{CPU: 5}})); err == nil {
		t.Fatal("want error for cpu outside thread count")
	}
}
