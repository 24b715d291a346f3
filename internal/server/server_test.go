package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// collectBatches runs a workload locally and returns copies of its
// columnar batches at the VM's own boundaries — the raw material the
// engine ingests.
func collectBatches(t *testing.T, w *workloads.Workload, seed uint64) []*vm.EventBatch {
	t.Helper()
	batches, err := recordBatches(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	return batches
}

// ingestCopy ingests a copy of b; the test keeps b.
func ingestCopy(st *Stream, b *vm.EventBatch) {
	eb := st.GetBatch()
	eb.CopyFrom(b)
	st.IngestBatch(eb)
}

// recordBatches is collectBatches without the testing.T, for use from
// non-test goroutines (t.Fatal is main-goroutine-only).
func recordBatches(w *workloads.Workload, seed uint64) ([]*vm.EventBatch, error) {
	m, err := w.NewVM(seed)
	if err != nil {
		return nil, err
	}
	var batches []*vm.EventBatch
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		cp := vm.NewEventBatch(eb.Len())
		cp.CopyFrom(eb)
		batches = append(batches, cp)
	}))
	_, err = m.Run(1 << 24)
	return batches, err
}

func hello(w *workloads.Workload, seed uint64, witness bool) wire.Hello {
	return wire.Hello{
		Version: wire.Version, Threads: w.NumThreads,
		Workload: w.Name, Scale: 1, Seed: seed, Witness: witness,
	}
}

// TestEngineMatchesInProcess ingests a workload's batches through the
// engine's direct stream API and requires the published sample to carry
// the same detection results as report.Run on the same seed.
func TestEngineMatchesInProcess(t *testing.T) {
	const seed = 5
	w, err := workloads.ByName("queue-buggy", 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Shards: 2})
	defer shutdown(t, e)

	st, err := e.OpenStream(hello(w, seed, true), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range collectBatches(t, w, seed) {
		ingestCopy(st, b)
	}
	got, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}

	want, err := report.Run(w, seed, report.Options{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	// The engine never sees the finished VM, so the consistency check
	// stays unjudged; everything else must agree.
	want.Erroneous, want.ErrorDetail = false, ""
	gotJS, _ := json.Marshal(got)
	wantJS, _ := json.Marshal(want)
	if string(gotJS) != string(wantJS) {
		t.Errorf("engine sample differs from in-process run:\n got %s\nwant %s", gotJS, wantJS)
	}
	if c := e.Counters(); c.StreamsClosed != 1 || c.Events == 0 || c.BatchesShed != 0 {
		t.Errorf("counters: %+v", c)
	}
}

// TestShedPolicy drives batches at a one-deep queue far faster than the
// worker can chew them: some must shed, and the stream must report the
// overload instead of publishing wrong counts.
func TestShedPolicy(t *testing.T) {
	const seed = 2
	w, err := workloads.ByName("apache-buggy", 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Shards: 1, QueueDepth: 1, Policy: PolicyShed})
	defer shutdown(t, e)

	batches := collectBatches(t, w, seed)
	st, err := e.OpenStream(hello(w, seed, false), "")
	if err != nil {
		t.Fatal(err)
	}
	// Replay the stream several times over: the producer side is a
	// memcpy, the consumer side runs two detectors, so a 1-deep queue
	// cannot keep up.
	for i := 0; i < 4; i++ {
		for _, b := range batches {
			ingestCopy(st, b)
		}
	}
	if _, err := st.Close(); err == nil || !strings.Contains(err.Error(), "shed") {
		t.Fatalf("overloaded stream closed with %v, want shed error", err)
	}
	c := e.Counters()
	if c.BatchesShed == 0 || c.StreamsShed != 1 {
		t.Errorf("shed counters: %+v", c)
	}
	if len(e.Samples()) != 0 {
		t.Errorf("poisoned stream published a sample")
	}
}

// TestBlockPolicyLosesNothing pushes the same overload through the
// blocking policy: every batch must arrive.
func TestBlockPolicyLosesNothing(t *testing.T) {
	const seed = 2
	w, err := workloads.ByName("queue-fixed", 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Shards: 1, QueueDepth: 1, Policy: PolicyBlock})
	defer shutdown(t, e)

	batches := collectBatches(t, w, seed)
	var events uint64
	st, err := e.OpenStream(hello(w, seed, false), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		ingestCopy(st, b)
		events += uint64(b.Len())
	}
	if _, err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); c.Events != events || c.BatchesShed != 0 {
		t.Errorf("got %+v, want %d events and no sheds", c, events)
	}
}

// TestRouting: explicit keys route deterministically, and distinct
// engine-assigned ids round-robin across shards.
func TestRouting(t *testing.T) {
	e := New(Options{Shards: 4})
	defer shutdown(t, e)
	if a, b := e.route("client-7", 0), e.route("client-7", 99); a != b {
		t.Errorf("same key routed to different shards")
	}
	seen := map[int]bool{}
	for id := uint64(0); id < 4; id++ {
		seen[e.route("", id).id] = true
	}
	if len(seen) != 4 {
		t.Errorf("round-robin covered %d of 4 shards", len(seen))
	}
}

func TestResolveErrors(t *testing.T) {
	e := New(Options{})
	defer shutdown(t, e)
	if _, err := e.OpenStream(wire.Hello{Version: wire.Version, Threads: 2, Workload: "no-such"}, ""); err == nil {
		t.Error("unknown workload without program: want error")
	}
	w, err := workloads.ByName("queue-fixed", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := hello(w, 0, false)
	h.Threads = w.NumThreads + 1
	if _, err := e.OpenStream(h, ""); err == nil {
		t.Error("thread-count mismatch: want error")
	}
}

// TestEmbeddedProgramStream runs a stream the server has no registry
// entry for: the program rides in the handshake, detection still runs,
// and with no ground truth every site classifies as a false positive.
func TestEmbeddedProgramStream(t *testing.T) {
	const seed = 4
	w, err := workloads.ByName("queue-buggy", 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	defer shutdown(t, e)
	h := wire.Hello{Version: wire.Version, Threads: w.NumThreads, Seed: seed, Program: w.Prog}
	st, err := e.OpenStream(h, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range collectBatches(t, w, seed) {
		ingestCopy(st, b)
	}
	s, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if s.SVDStats.Instructions == 0 {
		t.Error("no instructions observed")
	}
	if len(s.SVD.TrueSites) != 0 || len(s.FRD.TrueSites) != 0 {
		t.Error("sites classified as true without ground truth")
	}
}

func TestShutdownDrains(t *testing.T) {
	w, err := workloads.ByName("queue-fixed", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Shards: 2})
	st, err := e.OpenStream(hello(w, 1, false), "")
	if err != nil {
		t.Fatal(err)
	}

	// With a stream still open, a short-deadline Shutdown must give up
	// with the context's error, not hang.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown with open stream: %v", err)
	}
	// Draining refuses new streams immediately.
	if _, err := e.OpenStream(hello(w, 2, false), ""); err == nil {
		t.Fatal("open during drain: want error")
	}
	if _, err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := e.Shutdown(ctx2); err != nil {
		t.Fatalf("final shutdown: %v", err)
	}
}

// TestShutdownDrainsQuietConns: at the drain deadline CloseConns must end
// every session still open — one connection that never sent a frame,
// one stopped mid-stream (Hello and events, no Goodbye) — so Serve
// returns within the deadline plus slack and both peers see their
// connection close. Without it one quiet client holds Serve, and with it
// svdd's SIGINT drain, open until the client hangs up. Both accept loops
// run through the same code, so both are covered.
func TestShutdownDrainsQuietConns(t *testing.T) {
	w, err := workloads.ByName("queue-fixed", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	batches := collectBatches(t, w, 1)
	for _, mode := range []string{"engine", "cluster"} {
		t.Run(mode, func(t *testing.T) {
			e := New(Options{Shards: 2})
			defer shutdown(t, e)
			serve := e.Serve
			if mode == "cluster" {
				view := cluster.NewView(1, []cluster.Member{{ID: "n1", Addr: "unused"}})
				serve = NewClusterServer(e, cluster.NewRouter("n1", view), ClusterOptions{}).Serve
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- serve(ln) }()

			idle, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer idle.Close()
			mid, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer mid.Close()
			f := wire.NewFramer(mid, w.NumThreads)
			if err := f.WriteHello(hello(w, 1, false)); err != nil {
				t.Fatal(err)
			}
			if err := f.WriteColumns(batches[0]); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "mid-stream ingest", func() bool { return e.Counters().Events > 0 })
			waitFor(t, "both sessions", func() bool {
				e.mu.Lock()
				defer e.mu.Unlock()
				return len(e.conns) == 2
			})

			ln.Close()
			const deadline = 200 * time.Millisecond
			start := time.Now()
			timer := time.AfterFunc(deadline, e.CloseConns)
			defer timer.Stop()
			select {
			case err := <-served:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(deadline + 2*time.Second):
				t.Fatal("Serve still waiting on sessions after CloseConns")
			}
			if el := time.Since(start); el < deadline {
				t.Fatalf("Serve returned after %v, before the deadline, with sessions open", el)
			}
			for name, c := range map[string]net.Conn{"idle": idle, "mid-stream": mid} {
				if err := c.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
					t.Fatal(err)
				}
				_, err := io.ReadAll(c)
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					t.Errorf("%s connection still open after CloseConns", name)
				}
			}
		})
	}
}

// TestReportHandler exercises the query surface end to end: samples in,
// JSON out, witnesses deep-copied into the digest.
func TestReportHandler(t *testing.T) {
	const seed = 5
	w, err := workloads.ByName("queue-buggy", 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	defer shutdown(t, e)
	st, err := e.OpenStream(hello(w, seed, true), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range collectBatches(t, w, seed) {
		ingestCopy(st, b)
	}
	if _, err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	e.ReportHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/report", nil))
	var rep Report
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatalf("query surface returned invalid JSON: %v", err)
	}
	if rep.Merged.Samples != 1 || rep.Counters.StreamsClosed != 1 {
		t.Errorf("report: %+v", rep)
	}
	if rep.Merged.SVD.Violations == 0 {
		t.Errorf("queue-buggy produced no violations in the merged digest")
	}
}

func shutdown(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}
