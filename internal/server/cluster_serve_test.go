package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// Cluster differential tests: a stream that crosses nodes — forwarded
// at its Hello or handed off mid-flight — must produce a sample byte
// for byte identical to the in-process run, because the new owner
// replays exactly the client's bytes through deterministic detectors.

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// collectEvents replays the workload locally and returns the full event
// stream plus the finished VM (for the erroneous check, which needs the
// final memory image — the same split Client.RunSample makes).
func collectEvents(t *testing.T, w *workloads.Workload, seed uint64) ([]vm.Event, *vm.VM) {
	t.Helper()
	m, err := w.NewVM(seed)
	if err != nil {
		t.Fatal(err)
	}
	var evs []vm.Event
	m.Attach(vm.ObserverFunc(func(ev *vm.Event) { evs = append(evs, *ev) }))
	if _, err := m.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("vm did not finish")
	}
	return evs, m
}

// writeRows frames a run of recorded events as one Events frame.
func writeRows(f *wire.Framer, evs []vm.Event) error {
	eb := vm.NewEventBatch(len(evs))
	for i := range evs {
		eb.Append(&evs[i])
	}
	return f.WriteColumns(eb)
}

// startClusterNode builds an engine+router+server listening on TCP.
func startClusterNode(t *testing.T, id string, view *cluster.View, copts ClusterOptions) (*ClusterServer, net.Listener) {
	t.Helper()
	e := New(Options{Shards: 2})
	cs := NewClusterServer(e, cluster.NewRouter(id, view), copts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go cs.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		shutdown(t, e)
	})
	return cs, ln
}

// TestClusterHandoffDifferential moves a live stream from node A to
// node B after exactly cut events — one event, a prime mid-batch
// count, and a full batch — and requires the sample B publishes (and
// relays back through A) to be byte-identical to the in-process run.
// The net.Pipe rendezvous plus the engine's event odometer make the
// boundary deterministic: frame 1 is fully ingested under the old view
// before the new view lands, so the transferred history holds exactly
// cut events.
func TestClusterHandoffDifferential(t *testing.T) {
	const name = "queue-buggy"
	const seed = uint64(9)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	evs, m := collectEvents(t, w, seed)
	if len(evs) <= vm.DefaultBatchCap {
		t.Fatalf("workload too small to cut at the batch cap: %d events", len(evs))
	}
	want := inProcess(t, name, seed)

	for _, cut := range []int{1, 7, vm.DefaultBatchCap} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			// Node B: the stream's eventual owner.
			csB, lnB := startClusterNode(t, "nB",
				cluster.NewView(1, []cluster.Member{{ID: "nB", Addr: "unused"}}), ClusterOptions{})
			eB := csB.Engine()

			// Node A serves the client over a pipe; initially sole owner.
			eA := New(Options{Shards: 2})
			defer shutdown(t, eA)
			rtA := cluster.NewRouter("nA", cluster.NewView(1, []cluster.Member{{ID: "nA", Addr: "unused"}}))
			csA := NewClusterServer(eA, rtA, ClusterOptions{})
			cli, srv := net.Pipe()
			sessionDone := make(chan struct{})
			go func() { csA.ServeConn(srv); close(sessionDone) }()

			const key = "queue-buggy/9"
			f := wire.NewFramer(cli, w.NumThreads)
			d := wire.NewDeframer(cli)
			d.ExpectResults()
			if err := f.WriteHello(wire.Hello{
				Version: wire.Version, Threads: w.NumThreads, Workload: name,
				Scale: 1, Seed: seed, Witness: true, Key: key,
			}); err != nil {
				t.Fatal(err)
			}
			if err := writeRows(f, evs[:cut]); err != nil {
				t.Fatal(err)
			}
			// Frame 1 ingested locally under the old view, then move the
			// key to B: the next frame crosses the ownership boundary.
			waitFor(t, "frame 1 ingest", func() bool { return eA.Counters().Events >= uint64(cut) })
			rtA.ApplyAssignment(cluster.NewView(2,
				[]cluster.Member{{ID: "nB", Addr: lnB.Addr().String()}}).Assignment("test"))

			for i := cut; i < len(evs); i += vm.DefaultBatchCap {
				j := min(i+vm.DefaultBatchCap, len(evs))
				if err := writeRows(f, evs[i:j]); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.WriteGoodbye(); err != nil {
				t.Fatal(err)
			}
			fr, err := d.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if fr.Type != wire.FrameResult {
				t.Fatalf("expected result, got %s", fr.Type)
			}
			if fr.Result.Err != "" {
				t.Fatalf("server error: %s", fr.Result.Err)
			}
			var got report.Sample
			if err := json.Unmarshal(fr.Result.Sample, &got); err != nil {
				t.Fatal(err)
			}
			got.Erroneous, got.ErrorDetail = w.Check(m)
			diffSamples(t, fmt.Sprintf("handoff cut=%d", cut), &got, want)

			cli.Close()
			<-sessionDone
			if s := rtA.Snapshot(); s.HandoffsOut != 1 || s.HandoffsInFlight != 0 || s.Misroutes != 0 {
				t.Errorf("origin router: %+v", s)
			}
			// The owner's handoff session ends after it writes the
			// Result, which can reach the client first, so its in-flight
			// gauge settles on its own schedule (as in the chain test).
			waitFor(t, "owner handoff settled", func() bool { return csB.Router().Snapshot().HandoffsInFlight == 0 })
			if s := csB.Router().Snapshot(); s.HandoffsIn != 1 || s.HandoffsInFlight != 0 {
				t.Errorf("owner router: %+v", s)
			}
			if c := eA.Counters(); c.StreamsHandedOff != 1 {
				t.Errorf("origin handed off %d streams, want 1", c.StreamsHandedOff)
			}
			if n := eA.Report().Merged.Samples; n != 0 {
				t.Errorf("origin published %d samples, want 0", n)
			}
			if n := eB.Report().Merged.Samples; n != 1 {
				t.Errorf("owner published %d samples, want 1", n)
			}
		})
	}
}

// TestClusterHandoffTimestamps hands off a stream that negotiated send
// stamps: after the splice the live tail's Events frames still open
// with a stamp, which the new owner must keep stripping (the deframer
// that decoded the history's Hello decodes the tail) — otherwise every
// post-handoff frame decodes the stamp as event data. The sample must
// stay byte-identical and the result must still carry a latency digest.
func TestClusterHandoffTimestamps(t *testing.T) {
	const name = "queue-buggy"
	const seed = uint64(9)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	evs, m := collectEvents(t, w, seed)
	want := inProcess(t, name, seed)

	csB, lnB := startClusterNode(t, "nB",
		cluster.NewView(1, []cluster.Member{{ID: "nB", Addr: "unused"}}), ClusterOptions{})

	eA := New(Options{Shards: 2})
	defer shutdown(t, eA)
	rtA := cluster.NewRouter("nA", cluster.NewView(1, []cluster.Member{{ID: "nA", Addr: "unused"}}))
	csA := NewClusterServer(eA, rtA, ClusterOptions{})
	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() { csA.ServeConn(srv); close(sessionDone) }()

	const cut = 7
	f := wire.NewFramer(cli, w.NumThreads)
	d := wire.NewDeframer(cli)
	d.ExpectResults()
	if err := f.WriteHello(wire.Hello{
		Version: wire.Version, Threads: w.NumThreads, Workload: name,
		Scale: 1, Seed: seed, Witness: true, Timestamps: true, Key: "queue-buggy/ts/9",
	}); err != nil {
		t.Fatal(err)
	}
	if err := writeRows(f, evs[:cut]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frame 1 ingest", func() bool { return eA.Counters().Events >= cut })
	rtA.ApplyAssignment(cluster.NewView(2,
		[]cluster.Member{{ID: "nB", Addr: lnB.Addr().String()}}).Assignment("test"))

	for i := cut; i < len(evs); i += vm.DefaultBatchCap {
		j := min(i+vm.DefaultBatchCap, len(evs))
		if err := writeRows(f, evs[i:j]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WriteGoodbye(); err != nil {
		t.Fatal(err)
	}
	fr, err := d.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Type != wire.FrameResult || fr.Result.Err != "" {
		t.Fatalf("bad result: type=%s err=%q", fr.Type, fr.Result.Err)
	}
	if len(fr.Result.Latency) == 0 {
		t.Error("timestamps stream lost its latency digest across the handoff")
	}
	var got report.Sample
	if err := json.Unmarshal(fr.Result.Sample, &got); err != nil {
		t.Fatal(err)
	}
	got.Erroneous, got.ErrorDetail = w.Check(m)
	diffSamples(t, "timestamps handoff", &got, want)
	cli.Close()
	<-sessionDone
	if s := csB.Router().Snapshot(); s.HandoffsIn != 1 {
		t.Errorf("owner router: %+v", s)
	}
	if n := csB.Engine().Report().Merged.Samples; n != 1 {
		t.Errorf("owner published %d samples, want 1", n)
	}
}

// TestClusterHandoffChain moves one stream twice. A hands it to B after
// frame 1; B, serving it from A's shipped history plus the live tail A
// relays, hands it on to C once it has ingested a live frame. The
// stream negotiated send stamps, so the history/tail splice is crossed
// twice. The sample relayed back through B and A must match the
// in-process run and still carry its latency digest, and only C
// publishes.
func TestClusterHandoffChain(t *testing.T) {
	const name = "queue-buggy"
	const seed = uint64(9)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	evs, m := collectEvents(t, w, seed)
	want := inProcess(t, name, seed)
	const cut = 7
	if len(evs) <= cut+2*vm.DefaultBatchCap {
		t.Fatalf("workload too small for two moves: %d events", len(evs))
	}

	csB, lnB := startClusterNode(t, "nB",
		cluster.NewView(1, []cluster.Member{{ID: "nB", Addr: "unused"}}), ClusterOptions{})
	csC, lnC := startClusterNode(t, "nC",
		cluster.NewView(1, []cluster.Member{{ID: "nC", Addr: "unused"}}), ClusterOptions{})
	eA := New(Options{Shards: 2})
	defer shutdown(t, eA)
	rtA := cluster.NewRouter("nA", cluster.NewView(1, []cluster.Member{{ID: "nA", Addr: "unused"}}))
	csA := NewClusterServer(eA, rtA, ClusterOptions{})
	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() { csA.ServeConn(srv); close(sessionDone) }()

	f := wire.NewFramer(cli, w.NumThreads)
	d := wire.NewDeframer(cli)
	d.ExpectResults()
	if err := f.WriteHello(wire.Hello{
		Version: wire.Version, Threads: w.NumThreads, Workload: name,
		Scale: 1, Seed: seed, Witness: true, Timestamps: true, Key: "queue-buggy/chain/9",
	}); err != nil {
		t.Fatal(err)
	}
	if err := writeRows(f, evs[:cut]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frame 1 ingest on A", func() bool { return eA.Counters().Events >= cut })
	rtA.ApplyAssignment(cluster.NewView(2,
		[]cluster.Member{{ID: "nB", Addr: lnB.Addr().String()}}).Assignment("test"))

	// Frame 2 crosses A's boundary; B replays frame 1 and ingests it live.
	live := cut + vm.DefaultBatchCap
	if err := writeRows(f, evs[cut:live]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live frame ingest on B", func() bool { return csB.Engine().Counters().Events >= uint64(live) })
	csB.Router().ApplyAssignment(cluster.NewView(3,
		[]cluster.Member{{ID: "nC", Addr: lnC.Addr().String()}}).Assignment("test"))

	for i := live; i < len(evs); i += vm.DefaultBatchCap {
		j := min(i+vm.DefaultBatchCap, len(evs))
		if err := writeRows(f, evs[i:j]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WriteGoodbye(); err != nil {
		t.Fatal(err)
	}
	fr, err := d.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Type != wire.FrameResult || fr.Result.Err != "" {
		t.Fatalf("bad result: type=%s err=%q", fr.Type, fr.Result.Err)
	}
	if len(fr.Result.Latency) == 0 {
		t.Error("timestamps stream lost its latency digest across two handoffs")
	}
	var got report.Sample
	if err := json.Unmarshal(fr.Result.Sample, &got); err != nil {
		t.Fatal(err)
	}
	got.Erroneous, got.ErrorDetail = w.Check(m)
	diffSamples(t, "chain handoff", &got, want)
	cli.Close()
	<-sessionDone

	for _, n := range []struct {
		id      string
		cs      *ClusterServer
		out, in uint64
		samples int
	}{
		{"nA", csA, 1, 0, 0},
		{"nB", csB, 1, 1, 0},
		{"nC", csC, 0, 1, 1},
	} {
		waitFor(t, n.id+" handoffs settled", func() bool { return n.cs.Router().Snapshot().HandoffsInFlight == 0 })
		if s := n.cs.Router().Snapshot(); s.HandoffsOut != n.out || s.HandoffsIn != n.in {
			t.Errorf("%s handoffs out=%d in=%d, want %d/%d", n.id, s.HandoffsOut, s.HandoffsIn, n.out, n.in)
		}
		if got := n.cs.Engine().Report().Merged.Samples; got != n.samples {
			t.Errorf("%s published %d samples, want %d", n.id, got, n.samples)
		}
	}
}

// TestClusterHandoffStalledPeer: the key moves to a peer that accepts
// the handoff connection and never answers. The Assign exchange's
// deadline must end the wait, mark the peer down and keep the stream
// local, where it finishes with the in-process sample. The test bounds
// itself, so a stream that stays blocked fails it instead of hanging.
func TestClusterHandoffStalledPeer(t *testing.T) {
	const name = "queue-buggy"
	const seed = uint64(9)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	evs, m := collectEvents(t, w, seed)
	want := inProcess(t, name, seed)

	// The stalled peer accepts and holds connections, never writing.
	stalled, release := stalledPeer(t)

	eA := New(Options{Shards: 2})
	defer shutdown(t, eA)
	rtA := cluster.NewRouter("nA", cluster.NewView(1, []cluster.Member{{ID: "nA", Addr: "unused"}}))
	csA := NewClusterServer(eA, rtA, ClusterOptions{})
	moved := cluster.NewView(2, []cluster.Member{
		{ID: "nA", Addr: "unused"}, {ID: "nS", Addr: stalled},
	})
	key := keyOwnedBy(t, moved, "nS")
	cli, srv := net.Pipe()
	defer cli.Close()
	go csA.ServeConn(srv)

	const cut = 7
	f := wire.NewFramer(cli, w.NumThreads)
	if err := f.WriteHello(wire.Hello{
		Version: wire.Version, Threads: w.NumThreads, Workload: name,
		Scale: 1, Seed: seed, Witness: true, Key: key,
	}); err != nil {
		t.Fatal(err)
	}
	if err := writeRows(f, evs[:cut]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frame 1 ingest", func() bool { return eA.Counters().Events >= cut })
	rtA.ApplyAssignment(moved.Assignment("test"))

	type outcome struct {
		fr  wire.Frame
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		for i := cut; i < len(evs); i += vm.DefaultBatchCap {
			if err := writeRows(f, evs[i:min(i+vm.DefaultBatchCap, len(evs))]); err != nil {
				done <- outcome{err: err}
				return
			}
		}
		if err := f.WriteGoodbye(); err != nil {
			done <- outcome{err: err}
			return
		}
		d := wire.NewDeframer(cli)
		d.ExpectResults()
		fr, err := d.ReadFrame()
		done <- outcome{fr, err}
	}()
	var res outcome
	select {
	case res = <-done:
	case <-time.After(3 * peerTimeout):
		release() // unblock the session so the deferred cleanup can finish
		t.Fatalf("stream still blocked %v after its key moved to a silent peer; router %+v", 3*peerTimeout, rtA.Snapshot())
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.fr.Type != wire.FrameResult || res.fr.Result.Err != "" {
		t.Fatalf("bad result: type=%s err=%q", res.fr.Type, res.fr.Result.Err)
	}
	var got report.Sample
	if err := json.Unmarshal(res.fr.Result.Sample, &got); err != nil {
		t.Fatal(err)
	}
	got.Erroneous, got.ErrorDetail = w.Check(m)
	diffSamples(t, "stalled-peer stream", &got, want)
	if s := rtA.Snapshot(); s.MembersDown != 1 || s.HandoffsOut != 0 {
		t.Errorf("router after stalled handoff: %+v", s)
	}
	if n := eA.Report().Merged.Samples; n != 1 {
		t.Errorf("origin published %d samples, want 1", n)
	}
}

// stalledPeer listens on loopback and holds every connection it accepts
// without ever reading or writing. release closes the listener and the
// held connections; it may be called more than once.
func stalledPeer(t *testing.T) (addr string, release func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	release = func() {
		ln.Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	}
	t.Cleanup(release)
	return ln.Addr().String(), release
}

// TestClusterForwardStalledPeer: a keyed stream arrives at a node whose
// view routes the key to a peer that accepts connections and never
// answers. Forwarding reaches the owner through the Assign exchange, so
// its deadline marks the peer down and the stream is served locally
// with the in-process sample, instead of blocking forever on a relay.
// The test bounds itself, so a stream that stays blocked fails it
// instead of hanging.
func TestClusterForwardStalledPeer(t *testing.T) {
	const name = "queue-buggy"
	const seed = uint64(9)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := inProcess(t, name, seed)

	addr, release := stalledPeer(t)
	view := cluster.NewView(1, []cluster.Member{{ID: "nA", Addr: "unused"}, {ID: "nS", Addr: addr}})
	key := keyOwnedBy(t, view, "nS")
	eA := New(Options{Shards: 2})
	defer shutdown(t, eA)
	rtA := cluster.NewRouter("nA", view)
	csA := NewClusterServer(eA, rtA, ClusterOptions{})
	cli, srv := net.Pipe()
	defer cli.Close()
	go csA.ServeConn(srv)

	type outcome struct {
		got *report.Sample
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		got, _, err := NewClient(cli).RunSample(w, seed, ReplayOptions{Witness: true, Scale: 1, Key: key})
		done <- outcome{got, err}
	}()
	var res outcome
	select {
	case res = <-done:
	case <-time.After(3 * peerTimeout):
		release() // unblock the session so the deferred cleanup can finish
		t.Fatalf("forwarded stream still blocked %v after routing to a silent peer; router %+v", 3*peerTimeout, rtA.Snapshot())
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	diffSamples(t, "stalled-owner stream", res.got, want)
	if s := rtA.Snapshot(); s.MembersDown != 1 || s.Misroutes != 1 || s.ForwardedFrames != 0 {
		t.Errorf("router after stalled forward: %+v", s)
	}
	if n := eA.Report().Merged.Samples; n != 1 {
		t.Errorf("node published %d samples, want 1", n)
	}
}

// foreignTokenDial is a ClusterOptions.Dial whose every peer answers
// the Assign exchange with another cluster's token; it counts dials.
func foreignTokenDial(dials *atomic.Int32) func(string) (net.Conn, error) {
	return func(string) (net.Conn, error) {
		dials.Add(1)
		c, peer := net.Pipe()
		go func() {
			defer peer.Close()
			d := wire.NewDeframer(peer)
			d.ExpectAssigns()
			fr, err := d.ReadFrame()
			if err != nil || fr.Type != wire.FrameAssign {
				return
			}
			a := fr.Assign
			a.Token = "another cluster"
			_ = wire.NewFramer(peer, 1).WriteAssign(a)
			_, _ = io.Copy(io.Discard, peer)
		}()
		return c, nil
	}
}

// TestClusterForwardTokenMismatch: the key's owner answers the Assign
// exchange, but with another cluster's token. It is not marked down —
// something answered — so re-routing would pick it again; the stream is
// pinned where it arrived instead, and no later frame dials the owner.
func TestClusterForwardTokenMismatch(t *testing.T) {
	const name = "queue-fixed"
	const seed = uint64(6)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := inProcess(t, name, seed)

	view := cluster.NewView(1, []cluster.Member{{ID: "nA", Addr: "unused"}, {ID: "nX", Addr: "nX"}})
	key := keyOwnedBy(t, view, "nX")
	eA := New(Options{Shards: 2})
	defer shutdown(t, eA)
	var dials atomic.Int32
	csA := NewClusterServer(eA, cluster.NewRouter("nA", view), ClusterOptions{Dial: foreignTokenDial(&dials)})
	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() { csA.ServeConn(srv); close(sessionDone) }()
	got, _, err := NewClient(cli).RunSample(w, seed, ReplayOptions{Witness: true, Scale: 1, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	diffSamples(t, "token-mismatch stream", got, want)
	cli.Close()
	<-sessionDone

	if n := dials.Load(); n != 1 {
		t.Errorf("dialed the mismatched owner %d times, want 1", n)
	}
	if s := csA.Router().Snapshot(); s.MembersDown != 0 || s.Misroutes != 1 || s.ForwardedFrames != 0 {
		t.Errorf("router: %+v", s)
	}
	if n := eA.Report().Merged.Samples; n != 1 {
		t.Errorf("nA published %d samples, want 1", n)
	}
}

// TestClusterHandoffTokenMismatch: after frame 1 the stream's key moves
// to an owner that answers the Assign exchange with another cluster's
// token. It is not marked down — something answered — so re-checking
// the next frame would find it again; the stream is pinned locally
// instead, exactly as forward pins a misrouted one. Exactly one dial,
// no handoff, and the sample is the in-process one.
func TestClusterHandoffTokenMismatch(t *testing.T) {
	const name = "queue-buggy"
	const seed = uint64(9)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	evs, m := collectEvents(t, w, seed)
	want := inProcess(t, name, seed)

	eA := New(Options{Shards: 2})
	defer shutdown(t, eA)
	rtA := cluster.NewRouter("nA", cluster.NewView(1, []cluster.Member{{ID: "nA", Addr: "unused"}}))
	var dials atomic.Int32
	csA := NewClusterServer(eA, rtA, ClusterOptions{Dial: foreignTokenDial(&dials)})
	moved := cluster.NewView(2, []cluster.Member{{ID: "nA", Addr: "unused"}, {ID: "nX", Addr: "nX"}})
	key := keyOwnedBy(t, moved, "nX")
	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() { csA.ServeConn(srv); close(sessionDone) }()

	const cut = 7
	f := wire.NewFramer(cli, w.NumThreads)
	d := wire.NewDeframer(cli)
	d.ExpectResults()
	if err := f.WriteHello(wire.Hello{
		Version: wire.Version, Threads: w.NumThreads, Workload: name,
		Scale: 1, Seed: seed, Witness: true, Key: key,
	}); err != nil {
		t.Fatal(err)
	}
	if err := writeRows(f, evs[:cut]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frame 1 ingest", func() bool { return eA.Counters().Events >= cut })
	rtA.ApplyAssignment(moved.Assignment("test"))
	frames := 0
	for i := cut; i < len(evs); i += vm.DefaultBatchCap {
		if err := writeRows(f, evs[i:min(i+vm.DefaultBatchCap, len(evs))]); err != nil {
			t.Fatal(err)
		}
		frames++
	}
	if err := f.WriteGoodbye(); err != nil {
		t.Fatal(err)
	}
	fr, err := d.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Type != wire.FrameResult || fr.Result.Err != "" {
		t.Fatalf("bad result: type=%s err=%q", fr.Type, fr.Result.Err)
	}
	var got report.Sample
	if err := json.Unmarshal(fr.Result.Sample, &got); err != nil {
		t.Fatal(err)
	}
	got.Erroneous, got.ErrorDetail = w.Check(m)
	diffSamples(t, "token-mismatch handoff stream", &got, want)
	cli.Close()
	<-sessionDone

	if n := dials.Load(); n != 1 {
		t.Errorf("dialed the mismatched owner %d times over %d frames past the move, want 1", n, frames)
	}
	if s := rtA.Snapshot(); s.MembersDown != 0 || s.HandoffsOut != 0 || s.ForwardedFrames != 0 {
		t.Errorf("router: %+v", s)
	}
	if c := eA.Counters(); c.StreamsHandedOff != 0 {
		t.Errorf("handed off %d streams, want 0", c.StreamsHandedOff)
	}
	if n := eA.Report().Merged.Samples; n != 1 {
		t.Errorf("nA published %d samples, want 1", n)
	}
}

// TestClusterPeerAuth: the node-to-node plane is gated on the shared
// token. A connection that has not presented it cannot hand off a
// stream at all, and a forged Assign (any epoch) is rejected without
// touching the view — so a client that can reach the wire port cannot
// hijack routing. A token-valid Assign promotes the connection and the
// full handoff path works.
func TestClusterPeerAuth(t *testing.T) {
	const token = "s3cret"
	members := []cluster.Member{{ID: "nA", Addr: "a:1"}, {ID: "nB", Addr: "b:1"}}
	e := New(Options{Shards: 1})
	defer shutdown(t, e)
	rt := cluster.NewRouter("nA", cluster.NewView(1, members))
	cs := NewClusterServer(e, rt, ClusterOptions{PeerToken: token})

	dialSession := func() (net.Conn, chan struct{}) {
		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() { cs.ServeConn(srv); close(done) }()
		return cli, done
	}

	t.Run("forged assign rejected", func(t *testing.T) {
		cli, done := dialSession()
		f := wire.NewFramer(cli, 1)
		forged := cluster.NewView(99, members[:1]).Assignment("evil")
		forged.Token = "wrong"
		if err := f.WriteAssign(forged); err != nil {
			t.Fatal(err)
		}
		d := wire.NewDeframer(cli)
		fr, err := d.ReadFrame()
		if err != nil || fr.Type != wire.FrameError {
			t.Fatalf("want error frame, got %v type %v", err, fr.Type)
		}
		cli.Close()
		<-done
		if v := rt.View(); v.Epoch != 1 {
			t.Fatalf("forged assign moved the view to epoch %d", v.Epoch)
		}
	})

	t.Run("handoff before auth rejected", func(t *testing.T) {
		cli, done := dialSession()
		f := wire.NewFramer(cli, 1)
		if err := f.WriteHandoff(wire.Handoff{Key: "k", Origin: "evil", History: []byte("junk")}); err != nil {
			t.Fatal(err)
		}
		d := wire.NewDeframer(cli)
		fr, err := d.ReadFrame()
		if err != nil || fr.Type != wire.FrameError {
			t.Fatalf("want error frame, got %v type %v", err, fr.Type)
		}
		cli.Close()
		<-done
		if s := rt.Snapshot(); s.HandoffsIn != 0 {
			t.Fatalf("unauthenticated handoff counted: %+v", s)
		}
	})

	t.Run("token unlocks handoff", func(t *testing.T) {
		cli, done := dialSession()
		f := wire.NewFramer(cli, 1)
		d := wire.NewDeframer(cli)
		d.ExpectHandoffs()
		d.ExpectResults()
		a := cluster.NewView(1, members).Assignment("nB")
		a.Token = token
		if err := f.WriteAssign(a); err != nil {
			t.Fatal(err)
		}
		fr, err := d.ReadFrame()
		if err != nil || fr.Type != wire.FrameAssign {
			t.Fatalf("assign reply: %v type %v", err, fr.Type)
		}
		if fr.Assign.Token != token {
			t.Fatalf("reply not authenticated: %+v", fr.Assign)
		}

		// A minimal but valid handoff: hello + goodbye history. The
		// promoted connection must adopt it and answer with the result.
		w, err := workloads.ByName("queue-buggy", 1, 9)
		if err != nil {
			t.Fatal(err)
		}
		var hist bytes.Buffer
		hf := wire.NewFramer(&hist, w.NumThreads)
		if err := hf.WriteHello(wire.Hello{
			Version: wire.Version, Threads: w.NumThreads, Workload: w.Name,
			Scale: 1, Seed: 9, Key: "auth/1",
		}); err != nil {
			t.Fatal(err)
		}
		if err := hf.WriteGoodbye(); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteHandoff(wire.Handoff{Key: "auth/1", Origin: "nB", Epoch: 1, History: hist.Bytes()}); err != nil {
			t.Fatal(err)
		}
		fr, err = d.ReadFrame()
		if err != nil || fr.Type != wire.FrameResult || fr.Result.Err != "" {
			t.Fatalf("handoff result: %v type %v err %q", err, fr.Type, fr.Result.Err)
		}
		cli.Close()
		<-done
		if s := rt.Snapshot(); s.HandoffsIn != 1 {
			t.Fatalf("authenticated handoff not counted: %+v", s)
		}
	})
}

// TestClusterHopLimitBreaksPingPong wires two nodes whose views
// disagree about a key's owner. A still runs the shared base view and
// routes the key to B; B has adopted a newer view in which B itself was
// marked down, so it routes every key to A. Relayed Hellos would bounce
// between the two, but the forward path reaches B through the Assign
// exchange first: A learns B's epoch-2 view, in which A owns the key,
// and serves the stream itself before a single frame is relayed, with
// the sample still byte-identical. TestClusterHopGuard covers the hop
// limit that bounds relay chains when views stay diverged.
func TestClusterHopLimitBreaksPingPong(t *testing.T) {
	const name = "queue-fixed"
	const seed = uint64(6)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := inProcess(t, name, seed)

	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	viewA := cluster.NewView(1, []cluster.Member{
		{ID: "nA", Addr: "unused"}, {ID: "nB", Addr: lnB.Addr().String()},
	})
	viewB := cluster.NewView(2, []cluster.Member{
		{ID: "nA", Addr: lnA.Addr().String()},
	})
	key := keyOwnedBy(t, viewA, "nB")

	eA := New(Options{Shards: 2})
	defer shutdown(t, eA)
	csA := NewClusterServer(eA, cluster.NewRouter("nA", viewA), ClusterOptions{})
	go csA.Serve(lnA)
	defer lnA.Close()

	eB := New(Options{Shards: 2})
	defer shutdown(t, eB)
	csB := NewClusterServer(eB, cluster.NewRouter("nB", viewB), ClusterOptions{})
	go csB.Serve(lnB)
	defer lnB.Close()

	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() { csA.ServeConn(srv); close(sessionDone) }()

	c := NewClient(cli)
	got, _, err := c.RunSample(w, seed, ReplayOptions{Witness: true, Scale: 1, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	diffSamples(t, "hop-limited stream", got, want)
	cli.Close()
	<-sessionDone

	if n := eA.Report().Merged.Samples; n != 1 {
		t.Errorf("nA published %d samples, want 1", n)
	}
	if n := eB.Report().Merged.Samples; n != 0 {
		t.Errorf("nB published %d samples, want 0", n)
	}
	sA, sB := csA.Router().Snapshot(), csB.Router().Snapshot()
	if sA.Misroutes != 1 || sB.Misroutes != 0 {
		t.Errorf("misroutes A=%d B=%d, want 1/0", sA.Misroutes, sB.Misroutes)
	}
	if sA.Epoch != 2 {
		t.Errorf("nA converged to epoch %d, want 2", sA.Epoch)
	}
	if sB.HandoffsOut != 0 || sA.HandoffsIn != 0 || sA.ForwardedFrames != 0 {
		t.Errorf("handoffs out(B)=%d in(A)=%d, forwarded(A)=%d, want 0/0/0", sB.HandoffsOut, sA.HandoffsIn, sA.ForwardedFrames)
	}
}

// TestClusterHopGuard: a Hello that has already crossed maxStreamHops
// relays and reaches a node that does not own its key is served there.
// The node never dials the owner, so nodes whose views stay diverged
// cannot bounce a stream between each other.
func TestClusterHopGuard(t *testing.T) {
	const name = "queue-fixed"
	const seed = uint64(6)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	evs, m := collectEvents(t, w, seed)
	want := inProcess(t, name, seed)

	view := cluster.NewView(1, []cluster.Member{{ID: "nA", Addr: "unused"}, {ID: "nB", Addr: "nB"}})
	key := keyOwnedBy(t, view, "nB")
	eA := New(Options{Shards: 2})
	defer shutdown(t, eA)
	var dials atomic.Int32
	csA := NewClusterServer(eA, cluster.NewRouter("nA", view), ClusterOptions{Dial: func(string) (net.Conn, error) {
		dials.Add(1)
		return nil, errors.New("dial refused")
	}})
	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() { csA.ServeConn(srv); close(sessionDone) }()

	f := wire.NewFramer(cli, w.NumThreads)
	d := wire.NewDeframer(cli)
	d.ExpectResults()
	go func() {
		// net.Pipe is unbuffered: write while the test reads the result.
		_ = f.WriteHello(wire.Hello{
			Version: wire.Version, Threads: w.NumThreads, Workload: name,
			Scale: 1, Seed: seed, Witness: true, Key: key, Hops: maxStreamHops,
		})
		for i := 0; i < len(evs); i += vm.DefaultBatchCap {
			_ = writeRows(f, evs[i:min(i+vm.DefaultBatchCap, len(evs))])
		}
		_ = f.WriteGoodbye()
	}()
	fr, err := d.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Type != wire.FrameResult || fr.Result.Err != "" {
		t.Fatalf("bad result: type=%s err=%q", fr.Type, fr.Result.Err)
	}
	var got report.Sample
	if err := json.Unmarshal(fr.Result.Sample, &got); err != nil {
		t.Fatal(err)
	}
	got.Erroneous, got.ErrorDetail = w.Check(m)
	diffSamples(t, "hop-limited stream", &got, want)
	cli.Close()
	<-sessionDone

	if n := dials.Load(); n != 0 {
		t.Errorf("a Hello at the hop limit dialed the owner %d times", n)
	}
	if s := csA.Router().Snapshot(); s.Misroutes != 1 || s.MembersDown != 0 || s.ForwardedFrames != 0 {
		t.Errorf("router: %+v", s)
	}
	if n := eA.Report().Merged.Samples; n != 1 {
		t.Errorf("nA published %d samples, want 1", n)
	}
}

// TestClusterStickyStream: when the history buffer overflows before
// ownership moves, the stream must finish where its state is — no
// handoff, locally published sample, still byte-identical.
func TestClusterStickyStream(t *testing.T) {
	const name = "queue-buggy"
	const seed = uint64(9)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	evs, m := collectEvents(t, w, seed)
	want := inProcess(t, name, seed)

	_, lnB := startClusterNode(t, "nB",
		cluster.NewView(1, []cluster.Member{{ID: "nB", Addr: "unused"}}), ClusterOptions{})

	eA := New(Options{Shards: 1})
	defer shutdown(t, eA)
	rtA := cluster.NewRouter("nA", cluster.NewView(1, []cluster.Member{{ID: "nA", Addr: "unused"}}))
	// A history cap smaller than any frame: the stream is sticky from
	// its first events frame on.
	csA := NewClusterServer(eA, rtA, ClusterOptions{})
	csA.historyLimit = 16
	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() { csA.ServeConn(srv); close(sessionDone) }()

	f := wire.NewFramer(cli, w.NumThreads)
	d := wire.NewDeframer(cli)
	d.ExpectResults()
	if err := f.WriteHello(wire.Hello{
		Version: wire.Version, Threads: w.NumThreads, Workload: name,
		Scale: 1, Seed: seed, Witness: true, Key: "sticky/1",
	}); err != nil {
		t.Fatal(err)
	}
	if err := writeRows(f, evs[:7]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frame 1 ingest", func() bool { return eA.Counters().Events >= 7 })
	rtA.ApplyAssignment(cluster.NewView(2,
		[]cluster.Member{{ID: "nB", Addr: lnB.Addr().String()}}).Assignment("test"))
	for i := 7; i < len(evs); i += vm.DefaultBatchCap {
		j := min(i+vm.DefaultBatchCap, len(evs))
		if err := writeRows(f, evs[i:j]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WriteGoodbye(); err != nil {
		t.Fatal(err)
	}
	fr, err := d.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Type != wire.FrameResult || fr.Result.Err != "" {
		t.Fatalf("bad result: type=%s err=%q", fr.Type, fr.Result.Err)
	}
	var got report.Sample
	if err := json.Unmarshal(fr.Result.Sample, &got); err != nil {
		t.Fatal(err)
	}
	got.Erroneous, got.ErrorDetail = w.Check(m)
	diffSamples(t, "sticky stream", &got, want)
	cli.Close()
	<-sessionDone
	if s := rtA.Snapshot(); s.HandoffsOut != 0 {
		t.Errorf("sticky stream handed off: %+v", s)
	}
	if n := eA.Report().Merged.Samples; n != 1 {
		t.Errorf("sticky stream published %d samples locally, want 1", n)
	}
}

// keyOwnedBy searches for a stream key the view routes to the wanted
// node — how tests pin a deterministic route without fixing the hash.
func keyOwnedBy(t *testing.T, v *cluster.View, id string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("probe/%d", i)
		if m, ok := v.Owner(key); ok && m.ID == id {
			return key
		}
	}
	t.Fatalf("no key routed to %s in 10000 probes", id)
	return ""
}

// TestClusterForwardDifferential connects a client to the wrong node: a
// two-member view where the stream's key belongs to the peer. The
// session must relay the raw bytes to the owner and the relayed-back
// sample must be byte-identical to the in-process run.
func TestClusterForwardDifferential(t *testing.T) {
	const name = "apache-buggy"
	const seed = uint64(4)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := inProcess(t, name, seed)

	// B listens first so the shared view can carry its real address.
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	members := []cluster.Member{
		{ID: "nA", Addr: "unused"},
		{ID: "nB", Addr: lnB.Addr().String()},
	}
	view := cluster.NewView(1, members)

	eB := New(Options{Shards: 2})
	defer shutdown(t, eB)
	csB := NewClusterServer(eB, cluster.NewRouter("nB", view), ClusterOptions{})
	go csB.Serve(lnB)
	defer lnB.Close()

	eA := New(Options{Shards: 2})
	defer shutdown(t, eA)
	rtA := cluster.NewRouter("nA", view)
	csA := NewClusterServer(eA, rtA, ClusterOptions{})
	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() { csA.ServeConn(srv); close(sessionDone) }()

	key := keyOwnedBy(t, view, "nB")
	c := NewClient(cli)
	got, stats, err := c.RunSample(w, seed, ReplayOptions{Witness: true, Scale: 1, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events == 0 {
		t.Fatal("replay sent no events")
	}
	diffSamples(t, "forwarded stream", got, want)
	cli.Close()
	<-sessionDone

	if s := rtA.Snapshot(); s.Misroutes != 1 || s.ForwardedFrames == 0 || s.HandoffsOut != 0 {
		t.Errorf("relay router: %+v", s)
	}
	if n := eA.Report().Merged.Samples; n != 0 {
		t.Errorf("relay node published %d samples, want 0", n)
	}
	if n := eB.Report().Merged.Samples; n != 1 {
		t.Errorf("owner published %d samples, want 1", n)
	}
}

// TestClusterFailoverServesLocally: the key's owner is unreachable, so
// the session marks it down and serves the stream itself — availability
// over placement, and the view epoch advances so the removal spreads.
func TestClusterFailoverServesLocally(t *testing.T) {
	const name = "queue-fixed"
	const seed = uint64(6)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := inProcess(t, name, seed)

	// A dead address: listen, learn the port, close.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	view := cluster.NewView(1, []cluster.Member{
		{ID: "nA", Addr: "unused"},
		{ID: "nB", Addr: deadAddr},
	})
	eA := New(Options{Shards: 2})
	defer shutdown(t, eA)
	rtA := cluster.NewRouter("nA", view)
	csA := NewClusterServer(eA, rtA, ClusterOptions{})
	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() { csA.ServeConn(srv); close(sessionDone) }()

	key := keyOwnedBy(t, view, "nB")
	c := NewClient(cli)
	got, _, err := c.RunSample(w, seed, ReplayOptions{Witness: true, Scale: 1, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	diffSamples(t, "failover stream", got, want)
	cli.Close()
	<-sessionDone

	s := rtA.Snapshot()
	if s.MembersDown != 1 || s.Misroutes != 1 {
		t.Errorf("router after failover: %+v", s)
	}
	if s.Epoch != view.Epoch+1 {
		t.Errorf("epoch %d after mark-down, want %d", s.Epoch, view.Epoch+1)
	}
	if n := eA.Report().Merged.Samples; n != 1 {
		t.Errorf("survivor published %d samples, want 1", n)
	}
}

// TestClusterAssignExchange drives the wire-level membership exchange:
// a newer view is adopted and echoed back; a stale one is answered with
// the newer view unchanged.
func TestClusterAssignExchange(t *testing.T) {
	members := []cluster.Member{{ID: "nA", Addr: "a:1"}, {ID: "nB", Addr: "b:1"}}
	eA := New(Options{Shards: 1})
	defer shutdown(t, eA)
	rtA := cluster.NewRouter("nA", cluster.NewView(1, members))
	csA := NewClusterServer(eA, rtA, ClusterOptions{})
	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() { csA.ServeConn(srv); close(sessionDone) }()

	f := wire.NewFramer(cli, 1)
	d := wire.NewDeframer(cli)
	d.ExpectHandoffs()

	newer := cluster.NewView(7, members[:1]).Assignment("nB")
	if err := f.WriteAssign(newer); err != nil {
		t.Fatal(err)
	}
	fr, err := d.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Type != wire.FrameAssign || fr.Assign.Epoch != 7 || fr.Assign.Origin != "nA" {
		t.Fatalf("assign reply: %+v", fr.Assign)
	}
	if v := rtA.View(); v.Epoch != 7 || len(v.Members) != 1 {
		t.Fatalf("router did not adopt the newer view: %+v", v)
	}

	stale := cluster.NewView(2, members).Assignment("nB")
	if err := f.WriteAssign(stale); err != nil {
		t.Fatal(err)
	}
	fr, err = d.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Assign.Epoch != 7 {
		t.Fatalf("stale assign changed the view: reply epoch %d", fr.Assign.Epoch)
	}
	cli.Close()
	<-sessionDone
}

// TestClusterGatherReport: two nodes each detect their own streams; the
// gathered cluster report's merged digest must be byte-identical to a
// single-process merge over the union of the in-process samples.
func TestClusterGatherReport(t *testing.T) {
	cases := []struct {
		name string
		seed uint64
	}{
		{"queue-buggy", 31},
		{"apache-buggy", 32},
		{"queue-fixed", 33},
	}

	var engines []*Engine
	var members []cluster.Member
	for i := 0; i < 2; i++ {
		e := New(Options{Shards: 2})
		defer shutdown(t, e)
		engines = append(engines, e)
		mux := http.NewServeMux()
		mux.Handle("/digest", e.DigestHandler())
		hs := httptest.NewServer(mux)
		defer hs.Close()
		members = append(members, cluster.Member{
			ID:       fmt.Sprintf("n%d", i),
			Addr:     "unused",
			HTTPAddr: strings.TrimPrefix(hs.URL, "http://"),
		})
	}

	// Spray the streams: case i runs on node i%2, keyless (local serve).
	var want []*report.Sample
	for i, tc := range cases {
		e := engines[i%2]
		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() { e.ServeConn(srv); close(done) }()
		w, err := workloads.ByName(tc.name, 1, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(cli)
		if _, _, err := c.RunSample(w, tc.seed, ReplayOptions{Witness: true, Scale: 1}); err != nil {
			t.Fatal(err)
		}
		cli.Close()
		<-done
		want = append(want, inProcess(t, tc.name, tc.seed))
	}

	cs := NewClusterServer(engines[0], cluster.NewRouter("n0", cluster.NewView(1, members)), ClusterOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cr := cs.GatherReport(ctx)
	if len(cr.Nodes) != 2 {
		t.Fatalf("gathered %d nodes", len(cr.Nodes))
	}
	for _, n := range cr.Nodes {
		if n.Err != "" {
			t.Fatalf("node %s: %s", n.ID, n.Err)
		}
	}
	if cr.Merged.Samples != len(cases) {
		t.Fatalf("merged %d samples, want %d", cr.Merged.Samples, len(cases))
	}

	report.SortSamples(want)
	wantJS, err := json.Marshal(report.MergeSamples(want))
	if err != nil {
		t.Fatal(err)
	}
	gotJS, err := json.Marshal(cr.Merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJS) != string(wantJS) {
		t.Errorf("gathered merge differs from single-process merge:\n got: %s\nwant: %s", gotJS, wantJS)
	}
}

// TestClusterObservability pins the cluster families on /metrics and
// the cluster panel on /statusz — and that a standalone engine emits
// neither.
func TestClusterObservability(t *testing.T) {
	members := []cluster.Member{{ID: "nA", Addr: "a:1"}, {ID: "nB", Addr: "b:1"}}
	e := New(Options{Shards: 1})
	defer shutdown(t, e)
	rt := cluster.NewRouter("nA", cluster.NewView(3, members))
	NewClusterServer(e, rt, ClusterOptions{})
	rt.NoteMisroute()
	rt.NoteForwarded(5)
	rt.NoteHandoffOut()
	rt.NoteHandoffIn()

	var sb strings.Builder
	o := obs.NewOpenMetricsWriter(&sb, "svdd")
	e.WriteMetrics(o)
	if err := o.EOF(); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, fam := range []string{
		"cluster_misroutes", "cluster_forwarded", "cluster_handoffs",
		"cluster_handoffs_in_flight", "cluster_members_down",
		"cluster_epoch", "cluster_ring_version", "cluster_members",
	} {
		if !strings.Contains(body, "svdd_"+fam) {
			t.Errorf("metrics missing family %s", fam)
		}
	}
	for _, series := range []string{
		`svdd_cluster_misroutes_total 1`,
		`svdd_cluster_forwarded_total 5`,
		`svdd_cluster_handoffs_total{direction="in"} 1`,
		`svdd_cluster_handoffs_total{direction="out"} 1`,
		`svdd_cluster_epoch 3`,
		`svdd_cluster_members 2`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics missing series %q:\n%s", series, body)
		}
	}

	rr := httptest.NewRecorder()
	e.StatuszHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	if !strings.Contains(rr.Body.String(), "<h2>Cluster</h2>") {
		t.Error("statusz html has no cluster panel")
	}
	rr = httptest.NewRecorder()
	e.StatuszHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz?format=text", nil))
	txt := rr.Body.String()
	if !strings.Contains(txt, "cluster node=nA epoch=3 ring_version=3 members=2") {
		t.Errorf("statusz text has no cluster line:\n%s", txt)
	}
	if !strings.Contains(txt, "cluster_member id=nB") {
		t.Errorf("statusz text has no member lines:\n%s", txt)
	}

	// Standalone engines stay silent on both surfaces.
	e2 := New(Options{Shards: 1})
	defer shutdown(t, e2)
	sb.Reset()
	o = obs.NewOpenMetricsWriter(&sb, "svdd")
	e2.WriteMetrics(o)
	if err := o.EOF(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "cluster_") {
		t.Error("standalone engine emits cluster families")
	}
	rr = httptest.NewRecorder()
	e2.StatuszHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	if strings.Contains(rr.Body.String(), "<h2>Cluster</h2>") {
		t.Error("standalone statusz shows a cluster panel")
	}
}
