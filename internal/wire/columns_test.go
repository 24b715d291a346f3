package wire

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// mkJumpyBatch builds one adversarial synthetic batch: PC and address
// deltas in both directions, negative values, CAS-shaped load+store
// rows — the same shape TestEventsRandomRoundTrip uses.
func mkJumpyBatch(rng *rand.Rand, prog *isa.Program, threads, n int, seq *uint64) []vm.Event {
	// The deframer validates flag/opcode consistency per PC: draw each
	// row's PC from the opcode class matching the shape it fakes, as a
	// real VM stream would.
	var byClass [4][]int64
	for pc, in := range prog.Code {
		switch in.Op {
		case isa.OpLoad:
			byClass[0] = append(byClass[0], int64(pc))
		case isa.OpStore:
			byClass[1] = append(byClass[1], int64(pc))
		case isa.OpCas:
			byClass[2] = append(byClass[2], int64(pc))
		default:
			byClass[3] = append(byClass[3], int64(pc))
		}
	}
	evs := make([]vm.Event, n)
	for i := range evs {
		*seq += uint64(rng.Intn(3) + 1)
		evs[i] = vm.Event{
			Seq:   *seq,
			CPU:   rng.Intn(threads),
			Taken: rng.Intn(2) == 0,
		}
		shape := rng.Intn(4)
		for len(byClass[shape]) == 0 { // e.g. a program with no CAS
			shape = rng.Intn(4)
		}
		pcs := byClass[shape]
		evs[i].PC = pcs[rng.Intn(len(pcs))]
		switch shape {
		case 0:
			evs[i].IsLoad = true
			evs[i].Addr = rng.Int63n(1 << 40)
			evs[i].Loaded = rng.Int63() - rng.Int63()
		case 1:
			evs[i].IsStore = true
			evs[i].Addr = rng.Int63n(1 << 40)
			evs[i].Stored = rng.Int63() - rng.Int63()
		case 2:
			evs[i].IsLoad, evs[i].IsStore = true, true
			evs[i].Addr = rng.Int63n(1 << 40)
			evs[i].Loaded = rng.Int63()
			evs[i].Stored = -rng.Int63()
		}
	}
	return evs
}

// toBatch converts rows into one columnar batch.
func toBatch(evs []vm.Event) *vm.EventBatch {
	eb := vm.NewEventBatch(len(evs))
	for i := range evs {
		eb.Append(&evs[i])
	}
	return eb
}

// goldenStream frames one whole stream — Hello, the Events frames body
// writes, Goodbye — under a fixed clock that stamps the k-th Events
// frame with k.
func goldenStream(t *testing.T, h Hello, body func(f *Framer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	f := NewFramer(&buf, h.Threads)
	var tick int64
	f.now = func() int64 { tick++; return tick }
	if err := f.WriteHello(h); err != nil {
		t.Fatal(err)
	}
	body(f)
	if err := f.WriteGoodbye(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireGolden pins the Events encoding to fixed bytes: the SHA-256
// of two whole streams, each with and without send stamps. One is a
// registry execution (queue-fixed seed 3, 4096 steps, at the VM's own
// batch boundaries); the other is the adversarial mkJumpyBatch stream
// (rng 7, 8 threads). The hashes were recorded from the row encoder
// that preceded WriteColumns, so they hold the format every existing
// journal was written in. A change made the same way in encoder and
// decoder passes every round-trip test but fails here — and it would
// misdecode old journals. A deliberate format change bumps Version and
// re-records these.
func TestWireGolden(t *testing.T) {
	registry := func(t *testing.T, ts bool) []byte {
		w, err := workloads.ByName("queue-fixed", 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		m, err := w.NewVM(3)
		if err != nil {
			t.Fatal(err)
		}
		h := Hello{Version: Version, Threads: w.NumThreads, Workload: w.Name, Scale: 1, Seed: 3, Timestamps: ts}
		return goldenStream(t, h, func(f *Framer) {
			m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
				if err := f.WriteColumns(eb); err != nil {
					t.Fatal(err)
				}
			}))
			if n, err := m.Run(4096); err != nil || n != 4096 {
				t.Fatalf("ran %d steps: %v", n, err)
			}
		})
	}
	jumpy := func(t *testing.T, ts bool) []byte {
		w, err := workloads.ByName("queue-fixed", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		const threads = 8
		rng := rand.New(rand.NewSource(7))
		var seq uint64
		h := Hello{Version: Version, Threads: threads, Workload: w.Name, Timestamps: ts}
		return goldenStream(t, h, func(f *Framer) {
			for i := 0; i < 40; i++ {
				batch := mkJumpyBatch(rng, w.Prog, threads, rng.Intn(100)+1, &seq)
				if err := f.WriteColumns(toBatch(batch)); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	cases := []struct {
		name   string
		stream func(t *testing.T, ts bool) []byte
		ts     bool
		want   string
	}{
		{"queue-fixed", registry, false, "3771afd98cc0bc15e66ff76b4b63b68c0f40046913608c0f26ed2bd08250285a"},
		{"queue-fixed/timestamps", registry, true, "ba06d5729e2a38c89ca8cd1db780a5c5efd610a71444fdc28fc91a575fa6278b"},
		{"jumpy", jumpy, false, "70e5bde172bf1437afdb59604622f507cfec7568ba79eee4da015c0f6583fe4f"},
		{"jumpy/timestamps", jumpy, true, "369d413166bdf777bcc8a5516ce07ba4c0ad20e42e9c5c687ffd33d1463fda2a"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := c.stream(t, c.ts)
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != c.want {
				t.Fatalf("%d-byte stream hashes to %s, want %s", len(b), got, c.want)
			}
		})
	}
}

// TestReadFrameIntoRoundTrip: decoding into a caller-supplied batch
// must recover the rows that were sent, including across control frames
// interleaved with events, and must leave the batch empty for non-event
// frames.
func TestReadFrameIntoRoundTrip(t *testing.T) {
	w, err := workloads.ByName("queue-buggy", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var seq uint64
	var buf bytes.Buffer
	f := NewFramer(&buf, w.NumThreads)
	if err := f.WriteHello(Hello{Version: Version, Threads: w.NumThreads, Workload: w.Name}); err != nil {
		t.Fatal(err)
	}
	var sent [][]vm.Event
	for i := 0; i < 30; i++ {
		b := mkJumpyBatch(rng, w.Prog, w.NumThreads, rng.Intn(64)+1, &seq)
		sent = append(sent, b)
		if err := f.WriteColumns(toBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WriteGoodbye(); err != nil {
		t.Fatal(err)
	}

	d := NewDeframer(&buf)
	eb := vm.NewEventBatch(0)
	fr, err := d.ReadFrameInto(eb)
	if err != nil || fr.Type != FrameHello {
		t.Fatalf("hello: %v type %v", err, fr.Type)
	}
	if eb.Len() != 0 {
		t.Fatalf("batch not empty after control frame: %d rows", eb.Len())
	}
	d.SetProgram(w.Prog, fr.Hello.Threads)
	var evs []vm.Event
	for i, want := range sent {
		fr, err := d.ReadFrameInto(eb)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if fr.Type != FrameEvents {
			t.Fatalf("batch %d: type %v", i, fr.Type)
		}
		got := eb.AppendEvents(evs[:0], w.Prog.Code)
		// The encoder did not carry Instr; rebind on the reference too.
		for j := range want {
			want[j].Instr = w.Prog.Code[want[j].PC]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d differs after columnar round trip", i)
		}
	}
	fr, err = d.ReadFrameInto(eb)
	if err != nil || fr.Type != FrameGoodbye || eb.Len() != 0 {
		t.Fatalf("goodbye: %v type %v rows %d", err, fr.Type, eb.Len())
	}
	if _, err := d.ReadFrameInto(eb); err != io.EOF {
		t.Fatalf("after goodbye: got %v, want io.EOF", err)
	}
}
