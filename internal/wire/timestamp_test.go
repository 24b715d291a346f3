package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

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

// TestV1HelloAccepted: a version-1 peer (no timestamps) must still be
// admitted by a version-2 build — MinVersion is a promise, not a comment.
func TestV1HelloAccepted(t *testing.T) {
	d := roundTrip(t, 2, func(f *Framer) {
		if err := f.WriteHello(Hello{Version: 1, Threads: 2, Workload: "queue-buggy"}); err != nil {
			t.Fatal(err)
		}
	})
	fr, err := d.ReadFrame()
	if err != nil {
		t.Fatalf("v1 hello rejected: %v", err)
	}
	if fr.Hello.Version != 1 || fr.Hello.Timestamps {
		t.Fatalf("v1 hello decoded as %+v", fr.Hello)
	}
}

// TestV1TimestampsRejected: the timestamps flag needs version 2; a
// version-1 hello carrying it is malformed, not silently downgraded.
func TestV1TimestampsRejected(t *testing.T) {
	d := roundTrip(t, 2, func(f *Framer) {
		if err := f.WriteHello(Hello{Version: 1, Threads: 2, Workload: "q", Timestamps: true}); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := d.ReadFrame(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("got %v, want ErrBadFrame", err)
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
// trip, and its absence decodes as nil — the byte layout a version-1
// reader would see is unchanged when no blob is written.
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
