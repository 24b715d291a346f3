package server

import (
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workloads"
)

// TestLoopbackLatencyTracing runs the full wire stack with timestamps
// negotiated and requires (a) the served sample to stay bit-identical to
// an in-process run — the stamps must be invisible to detection — and
// (b) a latency report covering every sent batch to come back.
func TestLoopbackLatencyTracing(t *testing.T) {
	const name, seed = "queue-buggy", 5
	e := New(Options{Shards: 2, Telemetry: true})
	defer shutdown(t, e)

	cli, srv := net.Pipe()
	go e.ServeConn(srv)
	defer cli.Close()
	c := NewClient(cli)

	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := c.RunSample(w, seed, ReplayOptions{Witness: true, Scale: 1, Timestamps: true})
	if err != nil {
		t.Fatal(err)
	}
	diffSamples(t, "stamped stream", got, inProcess(t, name, seed))

	if stats.Latency == nil {
		t.Fatal("no latency report on a stamped stream")
	}
	if stats.Latency.Batches != stats.Batches {
		t.Errorf("latency digest covers %d batches, replay sent %d", stats.Latency.Batches, stats.Batches)
	}
	sum := stats.Latency.Summary()
	if sum.Count != stats.Batches || sum.Max == 0 {
		t.Errorf("latency summary %+v over %d batches", sum, stats.Batches)
	}

	// An unstamped stream on the same engine gets no report.
	got2, stats2, err := c.RunSample(w, seed, ReplayOptions{Witness: true, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	diffSamples(t, "unstamped stream", got2, inProcess(t, name, seed))
	if stats2.Latency != nil {
		t.Errorf("latency report on an unstamped stream: %+v", stats2.Latency)
	}
}

// TestSnapshotDuringIngest hammers every read surface — Snapshot,
// WriteMetrics, /statusz in both formats, /report — from scraper
// goroutines while multiple streams ingest concurrently. Under -race
// this is the proof of the "scrape anytime" contract.
func TestSnapshotDuringIngest(t *testing.T) {
	cases := []struct {
		name string
		seed uint64
	}{
		{"queue-buggy", 31},
		{"queue-fixed", 32},
		{"apache-buggy", 33},
	}
	sink := obs.NewSink(obs.SinkOptions{})
	e := New(Options{Shards: 2, Telemetry: true, Obs: sink})
	defer shutdown(t, e)

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 3; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := e.Snapshot()
				if len(sn.Shards) != 2 {
					t.Error("snapshot lost its shard table")
					return
				}
				for _, s := range sn.Streams {
					if s.Events > 0 && s.Frames == 0 {
						t.Errorf("stream %d has events without frames", s.ID)
						return
					}
				}
				var sb strings.Builder
				o := obs.NewOpenMetricsWriter(&sb, "svdd")
				e.WriteMetrics(o)
				if err := o.EOF(); err != nil {
					t.Errorf("metrics write: %v", err)
					return
				}
				rr := httptest.NewRecorder()
				e.StatuszHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
				if rr.Code != 200 || !strings.Contains(rr.Body.String(), "<h1>svdd</h1>") {
					t.Errorf("statusz: code %d", rr.Code)
					return
				}
				rr = httptest.NewRecorder()
				e.StatuszHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz?format=text", nil))
				if !strings.Contains(rr.Body.String(), "svdd version=") {
					t.Error("statusz text lost its header line")
					return
				}
				if rep := e.Report(); rep.Obs == nil {
					t.Error("report dropped the obs snapshot")
					return
				}
			}
		}()
	}

	var producers sync.WaitGroup
	for _, tc := range cases {
		producers.Add(1)
		go func() {
			defer producers.Done()
			w, err := workloads.ByName(tc.name, 1, tc.seed)
			if err != nil {
				t.Error(err)
				return
			}
			st, err := e.OpenStream(hello(w, tc.seed, false), "")
			if err != nil {
				t.Error(err)
				return
			}
			now := uint64(time.Now().UnixNano())
			batches, err := recordBatches(w, tc.seed)
			if err != nil {
				t.Error(err)
				return
			}
			for _, b := range batches {
				eb := st.GetBatch()
				eb.CopyFrom(b)
				st.NoteWireBytes(b.Len() * 4)
				st.IngestBatchAt(eb, now)
			}
			if _, err := st.Close(); err != nil {
				t.Error(err)
				return
			}
			if lr := st.Latency(); lr == nil || lr.Batches == 0 {
				t.Errorf("%s: no latency digest after stamped ingest", tc.name)
			}
		}()
	}
	producers.Wait()
	close(stop)
	scrapers.Wait()

	sn := e.Snapshot()
	if len(sn.Streams) != 0 {
		t.Errorf("%d streams still open after close", len(sn.Streams))
	}
	var batches, events uint64
	for _, s := range sn.Shards {
		batches += s.Batches
		events += s.Events
		if s.Batches > 0 && s.StepNs.Count != s.Batches {
			t.Errorf("shard %d: %d batches but %d step observations", s.ID, s.Batches, s.StepNs.Count)
		}
	}
	c := e.Counters()
	if batches != c.Batches || events != c.Events {
		t.Errorf("shard stats (%d batches, %d events) disagree with counters %+v", batches, events, c)
	}
}

// TestShedVisibleInSnapshot overloads a shed-policy engine and requires
// the overload to be visible everywhere it should be: stream odometer,
// poisoned flag, statusz page, counters — while the stream is still
// open, which is when an operator needs to see it.
func TestShedVisibleInSnapshot(t *testing.T) {
	const seed = 2
	w, err := workloads.ByName("apache-buggy", 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Shards: 1, QueueDepth: 1, Policy: PolicyShed, Telemetry: true})
	defer shutdown(t, e)

	batches := collectBatches(t, w, seed)
	st, err := e.OpenStream(hello(w, seed, false), "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for _, b := range batches {
			ingestCopy(st, b)
		}
	}

	// Scrape before closing: the poisoned stream must show up live.
	sn := e.Snapshot()
	if len(sn.Streams) != 1 {
		t.Fatalf("snapshot shows %d open streams, want 1", len(sn.Streams))
	}
	s := sn.Streams[0]
	if s.Shed == 0 || !s.Poisoned {
		t.Errorf("open stream snapshot misses the overload: %+v", s)
	}
	if sn.Counters.BatchesShed != s.Shed {
		t.Errorf("engine counts %d shed batches, stream %d", sn.Counters.BatchesShed, s.Shed)
	}

	rr := httptest.NewRecorder()
	e.StatuszHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz?format=text", nil))
	body := rr.Body.String()
	if !strings.Contains(body, "state=poisoned") {
		t.Errorf("statusz text does not flag the poisoned stream:\n%s", body)
	}
	if !strings.Contains(body, fmt.Sprintf("batches_shed=%d", s.Shed)) {
		t.Errorf("statusz text does not carry the shed counter:\n%s", body)
	}
	rr = httptest.NewRecorder()
	e.StatuszHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	if !strings.Contains(rr.Body.String(), "poisoned") {
		t.Error("statusz html does not flag the poisoned stream")
	}

	var sb strings.Builder
	o := obs.NewOpenMetricsWriter(&sb, "svdd")
	e.WriteMetrics(o)
	if err := o.EOF(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "svdd_stream_poisoned") {
		t.Error("metrics exposition misses the poisoned gauge")
	}

	if _, err := st.Close(); err == nil || !strings.Contains(err.Error(), "shed") {
		t.Fatalf("overloaded stream closed with %v, want shed error", err)
	}
}

// TestReportMergesObsHistograms is the regression test for the report
// path dropping sink telemetry: streams pinned to different shards must
// all contribute to the histograms the Report surfaces.
func TestReportMergesObsHistograms(t *testing.T) {
	sink := obs.NewSink(obs.SinkOptions{})
	e := New(Options{Shards: 2, Obs: sink})
	defer shutdown(t, e)

	seeds := []uint64{7, 8, 9, 10} // round-robin lands both shards
	var wantShards []int
	for _, seed := range seeds {
		w, err := workloads.ByName("queue-buggy", 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.OpenStream(hello(w, seed, false), "")
		if err != nil {
			t.Fatal(err)
		}
		wantShards = append(wantShards, st.sh.id)
		for _, b := range collectBatches(t, w, seed) {
			ingestCopy(st, b)
		}
		if _, err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	shardsSeen := map[int]bool{}
	for _, id := range wantShards {
		shardsSeen[id] = true
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("test setup: all streams landed on one shard (%v)", wantShards)
	}

	rep := e.Report()
	if rep.Obs == nil {
		t.Fatal("Report carries no obs snapshot despite a configured sink")
	}
	if rep.Obs.Samples != uint64(len(seeds)) {
		t.Errorf("obs snapshot folded %d samples, want %d", rep.Obs.Samples, len(seeds))
	}
	h, ok := rep.Obs.Histograms["cu_lifetime_instrs"]
	if !ok || h.Count == 0 {
		t.Errorf("obs histograms missing or empty in the report: %+v", rep.Obs.Histograms)
	}
	// The sink's aggregate must cover every stream, i.e. match a
	// sink-side read — proving no shard's recorder was dropped.
	direct := sink.Snapshot()
	if direct.Histograms["cu_lifetime_instrs"].Count != h.Count {
		t.Errorf("report histogram count %d differs from sink %d",
			h.Count, direct.Histograms["cu_lifetime_instrs"].Count)
	}
	if rep.Ingest.Counters.StreamsClosed != uint64(len(seeds)) {
		t.Errorf("ingest snapshot in report: %+v", rep.Ingest.Counters)
	}
}

// TestSnapshotStreamOrdering: the stream table is sorted hottest-first,
// and odometers reflect what was ingested.
func TestSnapshotStreamOrdering(t *testing.T) {
	w, err := workloads.ByName("queue-fixed", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Shards: 1, Telemetry: true})
	defer shutdown(t, e)

	batches := collectBatches(t, w, 1)
	small, err := e.OpenStream(hello(w, 1, false), "")
	if err != nil {
		t.Fatal(err)
	}
	big, err := e.OpenStream(hello(w, 1, false), "")
	if err != nil {
		t.Fatal(err)
	}
	ingestCopy(small, batches[0])
	for _, b := range batches {
		ingestCopy(big, b)
	}

	// Ingest is async; poll until the counters surface.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sn := e.Snapshot()
		if len(sn.Streams) == 2 && sn.Streams[0].Events > sn.Streams[1].Events {
			if sn.Streams[0].ID != big.id {
				t.Errorf("hottest stream is %d, want %d", sn.Streams[0].ID, big.id)
			}
			if sn.Streams[0].Frames != uint64(len(batches)) {
				t.Errorf("hot stream frames = %d, want %d", sn.Streams[0].Frames, len(batches))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream table never settled: %+v", sn.Streams)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := small.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := big.Close(); err != nil {
		t.Fatal(err)
	}
}
