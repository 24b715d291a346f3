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
		{Version: Version, Threads: w.NumThreads, Program: w.Prog, MemWords: w.MemWords},
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
			if got.MemWords != h.MemWords {
				t.Errorf("embedded program memory: got %d words, want %d", got.MemWords, h.MemWords)
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
		// skip the sync annotation in a flags-filtering consumer), a
		// load-flagged ALU PC, a taken load, a taken ALU instruction and
		// an untaken jump. The decoder rebuilds flags from the opcode,
		// so each such row misaligns the open-bit plane or the address
		// section, or sets an open bit the opcode forbids — and dies at
		// the trust boundary.
		var pcLoad, pcStore, pcCas, pcALU, pcJump int64 = -1, -1, -1, -1, -1
		for pc, in := range w.Prog.Code {
			switch {
			case in.Op == isa.OpLoad && pcLoad < 0:
				pcLoad = int64(pc)
			case in.Op == isa.OpStore && pcStore < 0:
				pcStore = int64(pc)
			case in.Op == isa.OpCas && pcCas < 0:
				pcCas = int64(pc)
			case in.Op.IsALU() && pcALU < 0:
				pcALU = int64(pc)
			case in.Op.IsUncondJump() && pcJump < 0:
				pcJump = int64(pc)
			}
		}
		hostile := []vm.Event{
			{Seq: 1, PC: pcLoad, IsStore: true, Addr: 8},
			{Seq: 2, PC: pcStore, IsLoad: true, Addr: 8},
			{Seq: 3, PC: pcCas},
			{Seq: 4, PC: pcALU, IsLoad: true, Addr: 8},
			{Seq: 5, PC: pcLoad, Taken: true},
			{Seq: 6, PC: pcALU, Taken: true},
			{Seq: 7, PC: pcJump},
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
// streams (mkJumpyBatch: PC and address deltas in both directions, Seq
// gaps, CAS rows that succeed and fail) instead of relying on workload
// locality.
func TestEventsRandomRoundTrip(t *testing.T) {
	w, err := workloads.ByName("queue-fixed", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const threads = 8
	var seq uint64
	var buf bytes.Buffer
	f := NewFramer(&buf, threads)
	var sent [][]vm.Event
	for i := 0; i < 50; i++ {
		b := mkJumpyBatch(rng, w.Prog, threads, rng.Intn(100)+1, &seq)
		for j := range b {
			b[j].Instr = w.Prog.Code[b[j].PC]
		}
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

// TestWireBytesPerEvent pins the codec's density: whole streams — Hello,
// every Events frame at the VM's own batch boundaries, Goodbye, frame
// headers included — of two registry executions at scale 1, seed 1000,
// divided by their events. The figure depends only on the encoder, so
// it is the host-independent counter behind perfbench's
// wire.bytes_per_event.
func TestWireBytesPerEvent(t *testing.T) {
	for _, c := range []struct {
		workload string
		max      float64
	}{
		{"pgsql-oltp", 1.5},
		{"queue-fixed", 2.0},
	} {
		t.Run(c.workload, func(t *testing.T) {
			const seed = 1000
			w, err := workloads.ByName(c.workload, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			m, err := w.NewVM(seed)
			if err != nil {
				t.Fatal(err)
			}
			var cw countingWriter
			f := NewFramer(&cw, w.NumThreads)
			if err := f.WriteHello(Hello{Version: Version, Threads: w.NumThreads, Workload: w.Name, Scale: 1, Seed: seed}); err != nil {
				t.Fatal(err)
			}
			events := 0
			m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
				if err := f.WriteColumns(eb); err != nil {
					t.Fatal(err)
				}
				events += eb.Len()
			}))
			if _, err := m.Run(1 << 24); err != nil {
				t.Fatal(err)
			}
			if !m.Done() {
				t.Fatal("execution did not finish")
			}
			if err := f.WriteGoodbye(); err != nil {
				t.Fatal(err)
			}
			perEvent := float64(cw) / float64(events)
			t.Logf("%d events in %d bytes: %.3f B/event", events, cw, perEvent)
			if perEvent > c.max {
				t.Errorf("%.3f B/event, want <= %.1f", perEvent, c.max)
			}
		})
	}
}

type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// callWriter keeps what each Write call carried, as its own slice.
type callWriter struct{ calls [][]byte }

func (c *callWriter) Write(p []byte) (int, error) {
	c.calls = append(c.calls, bytes.Clone(p))
	return len(p), nil
}

// TestFramerOneWritePerFrame: every frame a Framer emits leaves in one
// Write call (on TCP, one syscall), the header built in place rather
// than allocated; a handoff adds exactly one more call, its history,
// passed through uncopied. A Deframer hands the same frames back as
// adjacent header and payload views, so a relay forwards each in one
// call too. Steady-state Events and Result frames allocate nothing.
func TestFramerOneWritePerFrame(t *testing.T) {
	w, err := workloads.ByName("queue-fixed", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.NewVM(3)
	if err != nil {
		t.Fatal(err)
	}
	var batches []*vm.EventBatch
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		c := vm.NewEventBatch(eb.Len())
		for i := 0; i < eb.Len(); i++ {
			c.AppendRaw(eb.Seq[i], eb.CPU[i], eb.PC[i], eb.Flags[i], eb.Addr[i])
		}
		batches = append(batches, c)
	}))
	if _, err := m.Run(2048); err != nil {
		t.Fatal(err)
	}
	res := Result{Sample: bytes.Repeat([]byte("s"), 3000), Latency: []byte(`{"p50":1}`)}

	var cw callWriter
	f := NewFramer(&cw, w.NumThreads)
	writes := []func() error{
		func() error {
			return f.WriteHello(Hello{Version: Version, Threads: w.NumThreads, Workload: w.Name, Scale: 1, Seed: 3, Timestamps: true, Key: "q/3"})
		},
		func() error { return f.WriteColumns(batches[0]) },
		func() error { return f.WriteColumns(batches[1]) },
		f.WriteGoodbye,
		func() error { return f.WriteResult(res) },
		func() error { return f.WriteError("overloaded") },
		func() error {
			return f.WriteAssign(Assignment{Epoch: 2, Origin: "n1", Nodes: []NodeInfo{{ID: "n1", Addr: "a:1"}}})
		},
	}
	for i, write := range writes {
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if len(cw.calls) != i+1 {
			t.Fatalf("frame %d took %d writes in all, want %d", i, len(cw.calls), i+1)
		}
		c := cw.calls[i]
		if len(c) < 9 || [4]byte(c[:4]) != Magic || int(binary.LittleEndian.Uint32(c[5:9])) != len(c)-9 {
			t.Fatalf("write %d is not one whole frame: % x", i, c[:min(len(c), 9)])
		}
	}

	var stream []byte
	for _, c := range cw.calls {
		stream = append(stream, c...)
	}
	d := NewDeframer(bytes.NewReader(stream))
	for i := range cw.calls {
		_, hdr, payload, err := d.ReadRawFrame()
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) > 0 && &hdr[:len(hdr)+1][len(hdr)] != &payload[0] {
			t.Fatalf("frame %d: header and payload views are not adjacent", i)
		}
		if !bytes.Equal(hdr[:len(hdr)+len(payload)], cw.calls[i]) {
			t.Fatalf("frame %d: raw frame differs from what was written", i)
		}
	}

	hist := bytes.Repeat([]byte("h"), 5000)
	var hw callWriter
	if err := NewFramer(&hw, 1).WriteHandoff(Handoff{Key: "q/3", Origin: "n1", Epoch: 2, History: hist}); err != nil {
		t.Fatal(err)
	}
	if len(hw.calls) != 2 || !bytes.Equal(hw.calls[1], hist) {
		t.Fatalf("handoff took %d writes, want the fixed fields then the history", len(hw.calls))
	}

	var sink countingWriter
	f = NewFramer(&sink, w.NumThreads)
	if err := f.WriteHello(Hello{Version: Version, Threads: w.NumThreads, Workload: w.Name, Timestamps: true}); err != nil {
		t.Fatal(err)
	}
	i := 0
	if n := testing.AllocsPerRun(50, func() {
		if err := f.WriteColumns(batches[i%len(batches)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("WriteColumns: %.1f allocs per frame, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := f.WriteResult(res); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteResult: %.1f allocs per frame, want 0", n)
	}
}
