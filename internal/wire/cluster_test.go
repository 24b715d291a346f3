package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestAssignRoundTrip: an Assignment survives the wire intact,
// including empty HTTP addresses and an empty node list.
func TestAssignRoundTrip(t *testing.T) {
	views := []Assignment{
		{Epoch: 7, RingVersion: 3, Origin: "n2", Token: "peers-00ff", Nodes: []NodeInfo{
			{ID: "n1", Addr: "10.0.0.1:7071", HTTPAddr: "10.0.0.1:7171"},
			{ID: "n2", Addr: "10.0.0.2:7071"},
			{ID: "n3", Addr: "10.0.0.3:7071", HTTPAddr: "10.0.0.3:7171"},
		}},
		{Epoch: 0, RingVersion: 0, Origin: "solo"},
	}
	for _, want := range views {
		var buf bytes.Buffer
		f := NewFramer(&buf, 1)
		if err := f.WriteAssign(want); err != nil {
			t.Fatal(err)
		}
		d := NewDeframer(&buf)
		d.ExpectHandoffs()
		fr, err := d.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type != FrameAssign {
			t.Fatalf("got frame %v, want assign", fr.Type)
		}
		got := fr.Assign
		if got.Epoch != want.Epoch || got.RingVersion != want.RingVersion || got.Origin != want.Origin || got.Token != want.Token {
			t.Fatalf("header mismatch: got %+v want %+v", got, want)
		}
		if len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("got %d nodes, want %d", len(got.Nodes), len(want.Nodes))
		}
		for i := range want.Nodes {
			if got.Nodes[i] != want.Nodes[i] {
				t.Fatalf("node %d: got %+v want %+v", i, got.Nodes[i], want.Nodes[i])
			}
		}
	}
}

// TestHandoffRoundTrip: a Handoff's history bytes come back exactly,
// and the copy outlives the deframer's next read.
func TestHandoffRoundTrip(t *testing.T) {
	hist := []byte("hello-frame-bytes then event-frame-bytes")
	var buf bytes.Buffer
	f := NewFramer(&buf, 1)
	if err := f.WriteHandoff(Handoff{Key: "q/7", Origin: "n1", Epoch: 5, History: hist}); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteGoodbye(); err != nil {
		t.Fatal(err)
	}
	d := NewDeframer(&buf)
	d.ExpectHandoffs()
	fr, err := d.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Type != FrameHandoff {
		t.Fatalf("got frame %v, want handoff", fr.Type)
	}
	h := fr.Handoff
	if h.Key != "q/7" || h.Origin != "n1" || h.Epoch != 5 {
		t.Fatalf("handoff header mismatch: %+v", h)
	}
	// Read the next frame, then check the history copy survived.
	if fr2, err := d.ReadFrame(); err != nil || fr2.Type != FrameGoodbye {
		t.Fatalf("next frame: %v %v", fr2.Type, err)
	}
	if !bytes.Equal(h.History, hist) {
		t.Fatalf("history corrupted after next read: %q", h.History)
	}
}

// TestClusterFramesRejectedWithoutOptIn: a client-facing deframer (no
// ExpectHandoffs) treats both cluster frames as malformed — the
// pre-cluster protocol surface is unchanged.
func TestClusterFramesRejectedWithoutOptIn(t *testing.T) {
	var buf bytes.Buffer
	f := NewFramer(&buf, 1)
	if err := f.WriteAssign(Assignment{Epoch: 1, Origin: "n1"}); err != nil {
		t.Fatal(err)
	}
	d := NewDeframer(&buf)
	if _, err := d.ReadFrame(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("assign without opt-in: got %v, want ErrBadFrame", err)
	}

	buf.Reset()
	if err := f.WriteHandoff(Handoff{Key: "k", Origin: "n1"}); err != nil {
		t.Fatal(err)
	}
	d = NewDeframer(&buf)
	if _, err := d.ReadFrame(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("handoff without opt-in: got %v, want ErrBadFrame", err)
	}
}

// TestHandoffCapNeedsOptIn: a handoff larger than the ingest cap is
// readable only by a deframer that opted in; without ExpectHandoffs the
// length prefix alone kills the frame, so a hostile client cannot make
// an ingest deframer allocate 64 MiB.
func TestHandoffCapNeedsOptIn(t *testing.T) {
	big := make([]byte, MaxFramePayload+1024)
	var buf bytes.Buffer
	f := NewFramer(&buf, 1)
	if err := f.WriteHandoff(Handoff{Key: "k", Origin: "n1", History: big}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	d := NewDeframer(bytes.NewReader(wire))
	if _, err := d.ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("big handoff without opt-in: got %v, want ErrFrameTooLarge", err)
	}

	d = NewDeframer(bytes.NewReader(wire))
	d.ExpectHandoffs()
	fr, err := d.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Handoff.History) != len(big) {
		t.Fatalf("history truncated: %d of %d bytes", len(fr.Handoff.History), len(big))
	}

	// And the write side enforces the absolute cap.
	tooBig := Handoff{Key: "k", History: make([]byte, MaxHandoffPayload)}
	if err := f.WriteHandoff(tooBig); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over-cap handoff write: got %v, want ErrFrameTooLarge", err)
	}
}

// TestHelloKeyRoundTrip: a hello carries the routing key behind its
// key flag.
func TestHelloKeyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	f := NewFramer(&buf, 4)
	want := Hello{Version: Version, Threads: 4, Workload: "queue-buggy", Scale: 2, Seed: 11, Witness: true, Key: "queue-buggy/11"}
	if err := f.WriteHello(want); err != nil {
		t.Fatal(err)
	}
	d := NewDeframer(&buf)
	fr, err := d.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Hello.Key != want.Key || fr.Hello.Workload != want.Workload || !fr.Hello.Witness {
		t.Fatalf("got %+v, want %+v", fr.Hello, want)
	}
}

// TestPrependSpliceTimestamps is the handoff-splice decode property on
// a Timestamps stream, read the way a receiving node reads it: a
// Handoff frame carrying the stream's prefix arrives with the live tail
// right behind it, so the connection's deframer has already buffered
// tail bytes when it prepends the history. Hello, history and tail must
// then decode as one stream — every tail Events frame still has its
// send stamp stripped and surfaced, not fed to the delta decoder as
// event data.
func TestPrependSpliceTimestamps(t *testing.T) {
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
	var tick int64
	f.now = func() int64 { tick++; return tick }
	if err := f.WriteHello(Hello{Version: Version, Threads: w.NumThreads, Workload: w.Name, Seed: 3, Timestamps: true, Key: "q/3"}); err != nil {
		t.Fatal(err)
	}
	var sent []vm.Event
	frames := 0
	split := 0 // byte offset after hello + first events frame
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		sent = eb.AppendEvents(sent, w.Prog.Code)
		if err := f.WriteColumns(eb); err != nil {
			t.Fatal(err)
		}
		if frames++; frames == 1 {
			split = buf.Len()
		}
	}))
	if _, err := m.Run(1 << 22); err != nil {
		t.Fatal(err)
	}
	if frames < 2 {
		t.Fatalf("need at least 2 events frames to splice, got %d", frames)
	}
	stream := buf.Bytes()

	// The connection: a Handoff frame with the prefix as its history,
	// then the live tail.
	var conn bytes.Buffer
	if err := NewFramer(&conn, 1).WriteHandoff(Handoff{Key: "q/3", Origin: "n1", Epoch: 2, History: stream[:split]}); err != nil {
		t.Fatal(err)
	}
	conn.Write(stream[split:])
	d := NewDeframer(&conn)
	d.ExpectHandoffs()
	fr, err := d.ReadFrame()
	if err != nil || fr.Type != FrameHandoff {
		t.Fatalf("handoff: %v type=%v", err, fr.Type)
	}
	if d.r.Buffered() == 0 {
		t.Fatal("no tail bytes buffered behind the handoff frame; the splice is not exercised")
	}
	d.Prepend(fr.Handoff.History)

	fr, err = d.ReadFrame()
	if err != nil || fr.Type != FrameHello || !fr.Hello.Timestamps {
		t.Fatalf("hello: %v %+v", err, fr.Hello)
	}
	d.SetProgram(w.Prog, w.NumThreads)
	var got []vm.Event
	eb := vm.NewEventBatch(0)
	stamp := uint64(0)
	for {
		fr, err = d.ReadFrameInto(eb)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame %d after splice: %v", stamp, err)
		}
		if fr.Type == FrameEvents {
			stamp++
			if fr.SendNanos != stamp {
				t.Fatalf("events frame stamp %d, want %d (timestamps flag lost across the splice?)", fr.SendNanos, stamp)
			}
			got = eb.AppendEvents(got, w.Prog.Code)
		}
	}
	if stamp != uint64(frames) {
		t.Fatalf("decoded %d events frames, sent %d", stamp, frames)
	}
	if !reflect.DeepEqual(got, sent) {
		t.Fatalf("spliced decode diverged: %d events vs %d sent", len(got), len(sent))
	}
}

// TestHelloHopsRoundTrip: the relay hop counter survives the wire, and
// an unrelayed hello leaves the flag clear.
func TestHelloHopsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	f := NewFramer(&buf, 2)
	if err := f.WriteHello(Hello{Version: Version, Threads: 2, Workload: "queue-buggy", Key: "q/1", Hops: 2}); err != nil {
		t.Fatal(err)
	}
	d := NewDeframer(&buf)
	fr, err := d.ReadFrame()
	if err != nil || fr.Hello.Hops != 2 || fr.Hello.Key != "q/1" {
		t.Fatalf("hop round trip: %v %+v", err, fr.Hello)
	}

	buf.Reset()
	if err := f.WriteHello(Hello{Version: Version, Threads: 2, Workload: "queue-buggy"}); err != nil {
		t.Fatal(err)
	}
	d = NewDeframer(&buf)
	if fr, err = d.ReadFrame(); err != nil || fr.Hello.Hops != 0 {
		t.Fatalf("unrelayed hello: %v hops=%d", err, fr.Hello.Hops)
	}
}

// TestHelloKeyTooLong: both sides refuse a routing key past MaxKeyLen —
// the writer before framing, the decoder on a hand-crafted frame — so
// the handoff payload arithmetic (key + capped history < frame cap)
// holds against hostile clients too.
func TestHelloKeyTooLong(t *testing.T) {
	long := strings.Repeat("k", MaxKeyLen+1)
	var buf bytes.Buffer
	f := NewFramer(&buf, 2)
	if err := f.WriteHello(Hello{Version: Version, Threads: 2, Key: long, Workload: "w"}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("write side accepted an oversized key: %v", err)
	}

	p := binary.AppendUvarint(nil, Version)
	p = binary.AppendUvarint(p, 2) // threads
	p = binary.AppendUvarint(p, 0) // workload ""
	p = binary.AppendUvarint(p, 0) // scale
	p = binary.AppendUvarint(p, 0) // seed
	p = append(p, 8)               // key flag
	p = binary.AppendUvarint(p, uint64(len(long)))
	p = append(p, long...)
	frame := append([]byte(nil), Magic[:]...)
	frame = append(frame, byte(FrameHello))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(p)))
	frame = append(frame, p...)
	d := NewDeframer(bytes.NewReader(frame))
	if _, err := d.ReadFrame(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("decode side accepted an oversized key: %v", err)
	}
}

// TestReadRawFrameRelay: ReadRawFrame sees every frame of a stream
// without a program installed, and re-emitting its header+payload views
// reproduces the input byte-for-byte — the relay path's contract.
func TestReadRawFrameRelay(t *testing.T) {
	var buf bytes.Buffer
	f := NewFramer(&buf, 2)
	if err := f.WriteHello(Hello{Version: Version, Threads: 2, Workload: "queue-buggy", Key: "q/1"}); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteError("noise"); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteGoodbye(); err != nil {
		t.Fatal(err)
	}
	in := append([]byte(nil), buf.Bytes()...)

	var out bytes.Buffer
	d := NewDeframer(bytes.NewReader(in))
	var types []FrameType
	for {
		ft, hdr, payload, err := d.ReadRawFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, ft)
		out.Write(hdr)
		out.Write(payload)
	}
	if !bytes.Equal(out.Bytes(), in) {
		t.Fatalf("relay did not reproduce the stream: %d vs %d bytes", out.Len(), len(in))
	}
	want := []FrameType{FrameHello, FrameError, FrameGoodbye}
	if len(types) != len(want) {
		t.Fatalf("got %d frames, want %d", len(types), len(want))
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("frame %d: got %v want %v", i, types[i], want[i])
		}
	}
}
