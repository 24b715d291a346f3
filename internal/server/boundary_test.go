package server

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// Trust-boundary tests: what a served stream may carry beyond what the
// wire decoder itself validates.

// serveRaw plays stream — raw wire bytes — into ServeConn over a pipe
// and returns the server's first reply frame. The writer runs on its
// own goroutine: a server that ends the session early stops reading,
// and the pipe's remaining writes then fail instead of blocking.
func serveRaw(t *testing.T, e *Engine, stream []byte) wire.Frame {
	t.Helper()
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		e.ServeConn(srv)
		close(done)
	}()
	go func() { _, _ = cli.Write(stream) }()
	d := wire.NewDeframer(cli)
	d.ExpectResults()
	fr, err := d.ReadFrame()
	if err != nil {
		t.Fatalf("reading the server's reply: %v", err)
	}
	cli.Close()
	<-done
	return fr
}

// TestServeRejectsOutOfRangeAddrs re-aims every memory row of a
// pgsql-oltp recording past the workload's MemWords from its fourth
// frame on. The VM faults on such an access, so only a forged stream
// carries one; the session must end on the first such frame with an
// Error frame, before its rows reach a shard — the three frames before
// it are all the engine ingested.
func TestServeRejectsOutOfRangeAddrs(t *testing.T) {
	const seed, good = 1000, 3
	w, err := workloads.ByName("pgsql-oltp", 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	batches := collectBatches(t, w, seed)
	var stream bytes.Buffer
	f := wire.NewFramer(&stream, w.NumThreads)
	if err := f.WriteHello(hello(w, seed, false)); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i, eb := range batches {
		if i < good {
			want += uint64(eb.Len())
		} else {
			for r, fl := range eb.Flags {
				if fl&(vm.FlagLoad|vm.FlagStore) != 0 {
					eb.Addr[r] += w.MemWords
				}
			}
		}
		if err := f.WriteColumns(eb); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WriteGoodbye(); err != nil {
		t.Fatal(err)
	}

	e := New(Options{Shards: 1})
	defer shutdown(t, e)
	fr := serveRaw(t, e, stream.Bytes())
	if fr.Type != wire.FrameError || !strings.Contains(fr.Errmsg, wire.ErrBadFrame.Error()) || !strings.Contains(fr.Errmsg, "address") {
		t.Fatalf("reply %v %q, want an Error frame naming the address", fr.Type, fr.Errmsg)
	}
	if c := e.Counters(); c.Events != want {
		t.Fatalf("engine ingested %d events; want the %d events of the %d frames before the first re-aimed one",
			c.Events, want, good)
	}
}

// TestServeRejectsOversizedFrame: an Events frame declaring
// wire.MaxFrameEvents+1 rows ends the stream with an Error frame; the
// decoder refuses it before sizing a batch.
func TestServeRejectsOversizedFrame(t *testing.T) {
	w, err := workloads.ByName("queue-fixed", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := wire.NewFramer(&stream, w.NumThreads).WriteHello(hello(w, 1, false)); err != nil {
		t.Fatal(err)
	}
	payload := binary.AppendUvarint(nil, wire.MaxFrameEvents+1)
	stream.Write(wire.Magic[:])
	stream.WriteByte(byte(wire.FrameEvents))
	stream.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))))
	stream.Write(payload)

	e := New(Options{Shards: 1})
	defer shutdown(t, e)
	fr := serveRaw(t, e, stream.Bytes())
	if fr.Type != wire.FrameError || !strings.Contains(fr.Errmsg, wire.ErrBadFrame.Error()) {
		t.Fatalf("reply %v %q, want an Error frame for the malformed payload", fr.Type, fr.Errmsg)
	}
	if c := e.Counters(); c.Events != 0 {
		t.Fatalf("engine ingested %d events from an oversized frame", c.Events)
	}
}

// TestServeEmbeddedProgramUnregistered serves a stream whose Hello names
// no registry workload: the program and its memory size ride in the
// handshake. queue-buggy addresses words past the VM's default memory
// size, so its stream passes the session's address check only under
// the declared size. Detection must match the in-process run on
// everything that does not need ground truth.
func TestServeEmbeddedProgramUnregistered(t *testing.T) {
	const seed = 6
	w, err := workloads.ByName("queue-buggy", 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	var top int64
	for _, eb := range collectBatches(t, w, seed) {
		for _, a := range eb.Addr {
			top = max(top, a)
		}
	}
	if top < vm.DefaultMemWords {
		t.Fatalf("%s addresses words up to %d; the test needs one past the default %d", w.Name, top, vm.DefaultMemWords)
	}
	remote := *w
	remote.Name = "unregistered-" + w.Name

	e := New(Options{Shards: 1})
	defer shutdown(t, e)
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		e.ServeConn(srv)
		close(done)
	}()
	got, _, err := NewClient(cli).RunSample(&remote, seed, ReplayOptions{Witness: true, Scale: 1, EmbedProgram: true})
	cli.Close()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.Run(w, seed, report.Options{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.SVDStats != want.SVDStats || got.FRDStats != want.FRDStats {
		t.Fatalf("served stats differ from in-process:\n got svd %+v frd %+v\nwant svd %+v frd %+v",
			got.SVDStats, got.FRDStats, want.SVDStats, want.FRDStats)
	}
	if got.SVDStats.Instructions == 0 || len(got.SVD.TrueSites) != 0 {
		t.Fatalf("served %d instructions with %d true sites; want a run and no ground truth",
			got.SVDStats.Instructions, len(got.SVD.TrueSites))
	}
}
