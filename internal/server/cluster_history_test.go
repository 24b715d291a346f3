package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// countingWriter counts the bytes written through it.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// recordConn keeps what each Write call on a connection carried.
type recordConn struct {
	net.Conn
	mu    sync.Mutex
	calls [][]byte
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.calls = append(c.calls, bytes.Clone(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// wholeFrames requires every recorded Write to be exactly one frame and
// returns how many there were.
func (c *recordConn) wholeFrames(t *testing.T, label string) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, p := range c.calls {
		if len(p) < 9 || [4]byte(p[:4]) != wire.Magic || int(binary.LittleEndian.Uint32(p[5:9])) != len(p)-9 {
			t.Fatalf("%s: write %d of %d bytes is not one whole frame", label, i, len(p))
		}
	}
	return len(c.calls)
}

// TestClusterRelayOneWritePerFrame: a misrouted stream relayed to its
// owner crosses the peer connection one Write per frame — the Assign
// exchange, the re-emitted Hello, every Events frame and the Goodbye —
// and the owner's Result comes back to the client in one Write too.
func TestClusterRelayOneWritePerFrame(t *testing.T) {
	const name = "queue-fixed"
	const seed = uint64(6)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := inProcess(t, name, seed)

	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	view := cluster.NewView(1, []cluster.Member{{ID: "nA", Addr: "unused"}, {ID: "nB", Addr: lnB.Addr().String()}})
	eB := New(Options{Shards: 1})
	defer shutdown(t, eB)
	go NewClusterServer(eB, cluster.NewRouter("nB", view), ClusterOptions{}).Serve(lnB)
	defer lnB.Close()

	var peers []*recordConn
	var peersMu sync.Mutex
	eA := New(Options{Shards: 1})
	defer shutdown(t, eA)
	rtA := cluster.NewRouter("nA", view)
	csA := NewClusterServer(eA, rtA, ClusterOptions{Dial: func(addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, peerTimeout)
		if err != nil {
			return nil, err
		}
		rc := &recordConn{Conn: c}
		peersMu.Lock()
		peers = append(peers, rc)
		peersMu.Unlock()
		return rc, nil
	}})
	cli, srv := net.Pipe()
	toClient := &recordConn{Conn: srv}
	sessionDone := make(chan struct{})
	go func() { csA.ServeConn(toClient); close(sessionDone) }()

	got, _, err := NewClient(cli).RunSample(w, seed, ReplayOptions{Witness: true, Scale: 1, Key: keyOwnedBy(t, view, "nB")})
	if err != nil {
		t.Fatal(err)
	}
	diffSamples(t, "relayed stream", got, want)
	cli.Close()
	<-sessionDone

	peersMu.Lock()
	defer peersMu.Unlock()
	if len(peers) != 1 {
		t.Fatalf("%d peer connections, want 1", len(peers))
	}
	fwd := rtA.Snapshot().ForwardedFrames
	if n := peers[0].wholeFrames(t, "to owner"); uint64(n) != 1+fwd {
		t.Errorf("%d writes to the owner, want the assign plus %d forwarded frames", n, fwd)
	}
	if n := toClient.wholeFrames(t, "to client"); n != 1 {
		t.Errorf("%d writes back to the client, want the one result", n)
	}
}

// clusterStream is one keyed stream of a concurrent cluster test.
type clusterStream struct {
	name  string
	seed  uint64
	cut   int  // events sent before the view changes
	moves bool // whether the new view routes the key to nB
}

// TestClusterConcurrentHandoffs serves four keyed streams through one
// ClusterServer at once, all recording histories from the shared chunk
// pool. A view change mid-stream moves two of them to another node, one
// with a history of several chunks; the other two finish locally. Every
// sample must be byte-identical to report.Run.
func TestClusterConcurrentHandoffs(t *testing.T) {
	streams := []clusterStream{
		{"queue-buggy", 9, 7, true},
		{"mysql-prepared-buggy", 1, 100_000, true},
		{"queue-fixed", 6, vm.DefaultBatchCap, false},
		{"mysql-prepared-fixed", 1, 100_000, false},
	}
	csB, lnB := startClusterNode(t, "nB",
		cluster.NewView(1, []cluster.Member{{ID: "nB", Addr: "unused"}}), ClusterOptions{})
	eA := New(Options{Shards: 2})
	defer shutdown(t, eA)
	rtA := cluster.NewRouter("nA", cluster.NewView(1, []cluster.Member{{ID: "nA", Addr: "unused"}}))
	csA := NewClusterServer(eA, rtA, ClusterOptions{})
	moved := cluster.NewView(2, []cluster.Member{{ID: "nA", Addr: "unused"}, {ID: "nB", Addr: lnB.Addr().String()}})

	// Distinct keys, routed as each stream needs under the new view.
	var cuts uint64
	keys := make([]string, len(streams))
	for i, s := range streams {
		owner := "nA"
		if s.moves {
			owner = "nB"
		}
		for k := 0; keys[i] == ""; k++ {
			key := fmt.Sprintf("%s/%d/%d", s.name, s.seed, k)
			if m, _ := moved.Owner(key); m.ID == owner {
				keys[i] = key
			}
		}
		cuts += uint64(s.cut)
	}

	var atCut, done, sessions sync.WaitGroup
	viewMoved := make(chan struct{})
	moveView := sync.OnceFunc(func() { close(viewMoved) })
	defer moveView() // a failed wait below must not strand the streams
	for i, s := range streams {
		w, err := workloads.ByName(s.name, 1, s.seed)
		if err != nil {
			t.Fatal(err)
		}
		evs, m := collectEvents(t, w, s.seed)
		want := inProcess(t, s.name, s.seed)
		cli, srv := net.Pipe()
		sessions.Add(1)
		go func() { defer sessions.Done(); csA.ServeConn(srv) }()
		atCut.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			defer cli.Close()
			cutDone := false
			reached := func() {
				if !cutDone {
					cutDone = true
					atCut.Done()
				}
			}
			defer reached()
			f := wire.NewFramer(cli, w.NumThreads)
			if err := f.WriteHello(wire.Hello{
				Version: wire.Version, Threads: w.NumThreads, Workload: s.name,
				Scale: 1, Seed: s.seed, Witness: true, Key: keys[i],
			}); err != nil {
				t.Error(err)
				return
			}
			for at := 0; at < len(evs); {
				if at == s.cut {
					reached()
					<-viewMoved
				}
				next := min(at+vm.DefaultBatchCap, len(evs))
				if at < s.cut {
					next = min(next, s.cut)
				}
				if err := writeRows(f, evs[at:next]); err != nil {
					t.Error(err)
					return
				}
				at = next
			}
			if err := f.WriteGoodbye(); err != nil {
				t.Error(err)
				return
			}
			d := wire.NewDeframer(cli)
			d.ExpectResults()
			fr, err := d.ReadFrame()
			if err != nil || fr.Type != wire.FrameResult || fr.Result.Err != "" {
				t.Errorf("%s: bad result: %v %v %q", s.name, err, fr.Type, fr.Result.Err)
				return
			}
			var got report.Sample
			if err := json.Unmarshal(fr.Result.Sample, &got); err != nil {
				t.Error(err)
				return
			}
			got.Erroneous, got.ErrorDetail = w.Check(m)
			diffSamples(t, s.name, &got, want)
		}()
	}
	atCut.Wait()
	waitFor(t, "pre-cut ingest", func() bool { return eA.Counters().Events >= cuts })
	rtA.ApplyAssignment(moved.Assignment("test"))
	moveView()
	done.Wait()
	// A handed-off session counts its handoff done only once the relayed
	// Result has reached the client, so wait for the origin's sessions.
	sessions.Wait()

	waitFor(t, "owner handoffs settled", func() bool { return csB.Router().Snapshot().HandoffsInFlight == 0 })
	if s := rtA.Snapshot(); s.HandoffsOut != 2 || s.HandoffsInFlight != 0 {
		t.Errorf("origin router: %+v", s)
	}
	if s := csB.Router().Snapshot(); s.HandoffsIn != 2 {
		t.Errorf("owner router: %+v", s)
	}
	if n := eA.Report().Merged.Samples; n != 2 {
		t.Errorf("origin published %d samples, want 2", n)
	}
	if n := csB.Engine().Report().Merged.Samples; n != 2 {
		t.Errorf("owner published %d samples, want 2", n)
	}
}

// TestClusterHistoryAllocs is the host-independent guard on the cost of
// recording cluster histories: a warm ClusterServer serving the same
// keyed pgsql-oltp stream again and again allocates less per stream
// than the stream's recorded history (1.3 MB). The history is the
// stream's largest buffer by far, so a history that allocates its
// length per stream — let alone one that grows by append, about five
// times its length — fails. The chunks come back to the pool at stream
// end, so a warm node records without allocating; under -race the pool
// drops about a quarter of them, which still fits.
func TestClusterHistoryAllocs(t *testing.T) {
	const name = "pgsql-oltp"
	const seed = uint64(1)
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.NewVM(seed)
	if err != nil {
		t.Fatal(err)
	}
	// Record the stream once, so the client side allocates nothing.
	var rec bytes.Buffer
	f := wire.NewFramer(&rec, w.NumThreads)
	if err := f.WriteHello(wire.Hello{
		Version: wire.Version, Threads: w.NumThreads, Workload: name, Scale: 1, Seed: seed, Key: "pgsql/1",
	}); err != nil {
		t.Fatal(err)
	}
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		if err := f.WriteColumns(eb); err != nil {
			t.Fatal(err)
		}
	}))
	if _, err := m.Run(1 << 24); err != nil || !m.Done() {
		t.Fatalf("recording run: %v", err)
	}
	history := rec.Len() // everything but the Goodbye is recorded
	if err := f.WriteGoodbye(); err != nil {
		t.Fatal(err)
	}
	stream := rec.Bytes()

	e := New(Options{Shards: 1})
	defer shutdown(t, e)
	cs := NewClusterServer(e, cluster.NewRouter("nA", cluster.NewView(1, []cluster.Member{{ID: "nA", Addr: "unused"}})), ClusterOptions{})
	cli, srv := net.Pipe()
	defer cli.Close()
	go cs.ServeConn(srv)
	d := wire.NewDeframer(cli)
	d.ExpectResults()
	serve := func() {
		if _, err := cli.Write(stream); err != nil {
			t.Fatal(err)
		}
		fr, err := d.ReadFrame()
		if err != nil || fr.Type != wire.FrameResult || fr.Result.Err != "" {
			t.Fatalf("bad result: %v %v %q", err, fr.Type, fr.Result.Err)
		}
	}
	serve() // warm: detectors, codec state, pooled chunks
	serve()

	// TotalAlloc counts the whole process, so anything else still running
	// in it (another test's goroutines winding down) can only add to a
	// round, and two collections between streams empty the pool. The
	// node's own cost is the least of a few rounds; an append-grown
	// history fails every one.
	const streams, rounds = 4, 3
	perStream := uint64(math.MaxUint64)
	for r := 0; r < rounds && perStream >= uint64(history); r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < streams; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		n := (after.TotalAlloc - before.TotalAlloc) / streams
		t.Logf("round %d, %d-byte history: %d bytes allocated per stream (%.2f of the history) in %v, %d GCs", r, history, n,
			float64(n)/float64(history), time.Since(start)/streams, after.NumGC-before.NumGC)
		perStream = min(perStream, n)
	}
	if perStream >= uint64(history) {
		t.Errorf("a warm cluster node allocated %d bytes per stream, at least the %d-byte history it records", perStream, history)
	}
}
