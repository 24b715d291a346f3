package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestTimestampsRoundTrip negotiates send stamps and requires (a) the
// decoded events to stay bit-identical to the sent ones and (b) every
// Events frame to surface the exact stamp the framer's clock produced.
func TestTimestampsRoundTrip(t *testing.T) {
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
	// Deterministic clock: stamp k for the k-th events frame.
	var tick int64
	f.now = func() int64 { tick++; return tick }
	h := Hello{Version: Version, Threads: w.NumThreads, Workload: w.Name, Seed: 3, Timestamps: true}
	if err := f.WriteHello(h); err != nil {
		t.Fatal(err)
	}
	var sent [][]vm.Event
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		sent = append(sent, eb.AppendEvents(nil, w.Prog.Code))
		if err := f.WriteColumns(eb); err != nil {
			t.Fatal(err)
		}
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
	if !fr.Hello.Timestamps {
		t.Fatal("Timestamps flag lost in the handshake")
	}
	d.SetProgram(w.Prog, fr.Hello.Threads)
	var got [][]vm.Event
	var stamps []uint64
	eb := vm.NewEventBatch(0)
	for {
		fr, err := d.ReadFrameInto(eb)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type == FrameGoodbye {
			break
		}
		got = append(got, eb.AppendEvents(nil, w.Prog.Code))
		stamps = append(stamps, fr.SendNanos)
	}
	if !reflect.DeepEqual(got, sent) {
		t.Fatalf("decoded stream differs with timestamps on: %d batches sent, %d received", len(sent), len(got))
	}
	for i, s := range stamps {
		if s != uint64(i+1) {
			t.Fatalf("frame %d carries stamp %d, want %d", i, s, i+1)
		}
	}
}

// TestVersionSkew: this build speaks one protocol version. A Hello of
// any other — an older one whatever flags it sets, or a newer one — is
// ErrVersionSkew, checked before the rest of the payload is read.
func TestVersionSkew(t *testing.T) {
	cases := []struct {
		name  string
		hello Hello
	}{
		{"v1", Hello{Version: 1, Threads: 2, Workload: "queue-buggy"}},
		{"v1/timestamps", Hello{Version: 1, Threads: 2, Workload: "q", Timestamps: true}},
		{"v2/key", Hello{Version: 2, Threads: 2, Workload: "q", Key: "k"}},
		{"v3/hops", Hello{Version: 3, Threads: 2, Workload: "queue-buggy", Key: "q/1", Hops: 2}},
		{"v3/program", Hello{Version: 3, Threads: 2, Program: &isa.Program{Code: []isa.Instr{isa.Halt()}}, MemWords: 64}},
		{fmt.Sprintf("v%d", Version+1), Hello{Version: Version + 1, Threads: 2, Workload: "q"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := roundTrip(t, 2, func(f *Framer) {
				if err := f.WriteHello(c.hello); err != nil {
					t.Fatal(err)
				}
			})
			if _, err := d.ReadFrame(); !errors.Is(err, ErrVersionSkew) {
				t.Fatalf("got %v, want ErrVersionSkew", err)
			}
		})
	}
}

// TestFutureVersionStillSkewed: version negotiation is a range, and
// above it is still skew.
func TestFutureVersionStillSkewed(t *testing.T) {
	d := roundTrip(t, 2, func(f *Framer) {
		if err := f.WriteHello(Hello{Version: Version + 1, Threads: 2, Workload: "q"}); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := d.ReadFrame(); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("got %v, want ErrVersionSkew", err)
	}
}

// TestResultLatencyRoundTrip: the optional latency blob survives the
// trip, and its absence decodes as nil.
func TestResultLatencyRoundTrip(t *testing.T) {
	lat := []byte(`{"batches":3}`)
	d := roundTrip(t, 1, func(f *Framer) {
		if err := f.WriteResult(Result{Sample: []byte(`{"workload":"q"}`), Latency: lat}); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteResult(Result{Sample: []byte(`{}`)}); err != nil {
			t.Fatal(err)
		}
	})
	fr, err := d.ReadFrame()
	if err != nil || fr.Type != FrameResult {
		t.Fatalf("result frame: %v type %v", err, fr.Type)
	}
	if string(fr.Result.Latency) != string(lat) {
		t.Errorf("latency blob = %q, want %q", fr.Result.Latency, lat)
	}
	fr, err = d.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Result.Latency != nil {
		t.Errorf("latency-free result decoded blob %q", fr.Result.Latency)
	}
}

// TestTruncatedStampRejected: an Events frame on a stamped stream whose
// payload ends inside the stamp is a bad frame, not a zero stamp.
func TestTruncatedStampRejected(t *testing.T) {
	var buf bytes.Buffer
	f := NewFramer(&buf, 1)
	if err := f.WriteHello(Hello{Version: Version, Threads: 1, Workload: "q", Timestamps: true}); err != nil {
		t.Fatal(err)
	}
	// Hand-build an Events frame whose payload is a lone continuation
	// byte: a uvarint that never terminates.
	if err := f.writeFrame(FrameEvents, []byte{0x80}); err != nil {
		t.Fatal(err)
	}
	d := NewDeframer(&buf)
	if _, err := d.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadFrame(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("got %v, want ErrBadFrame", err)
	}
}
