package server

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// Journal integration tests: serve real traffic over loopback with a
// journal attached, then verify the capture replays to byte-identical
// verdicts and feeds the offline differential.

// serveJournaled runs the given workloads through a journaled engine
// over a net.Pipe and returns after every stream completes. Detector
// options are the defaults, witnesses on, matching replayEngine below.
func serveJournaled(t *testing.T, jw *journal.Writer, cases []struct {
	name string
	seed uint64
}) {
	t.Helper()
	e := New(Options{Shards: 2, Journal: jw, StreamBase: jw.StreamBase()})
	defer shutdown(t, e)

	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() {
		e.ServeConn(srv)
		close(sessionDone)
	}()
	c := NewClient(cli)
	for _, tc := range cases {
		w, err := workloads.ByName(tc.name, 1, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.RunSample(w, tc.seed, ReplayOptions{Witness: true, Scale: 1}); err != nil {
			t.Fatalf("%s seed %d: %v", tc.name, tc.seed, err)
		}
	}
	cli.Close()
	select {
	case <-sessionDone:
	case <-time.After(5 * time.Second):
		t.Fatal("session did not end after client hangup")
	}

	// The engine report carries the journal's store stats in its ingest
	// snapshot.
	if js := e.Report().Ingest.Journal; js == nil || js.AppendedRecords == 0 {
		t.Fatalf("journaled engine report shows no journal appends: %+v", js)
	}
}

// replayEngine builds the engine a replay must use: same detector
// options as serveJournaled's live engine.
func replayEngine() *Engine {
	return New(Options{Shards: 1})
}

func TestJournaledServeThenReplayVerify(t *testing.T) {
	cases := []struct {
		name string
		seed uint64
	}{
		{"queue-buggy", 5},
		{"queue-fixed", 3},
		{"apache-buggy", 2},
	}
	p := journal.InMemory()
	jw, err := journal.OpenWriter(p, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	serveJournaled(t, jw, cases)
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := journal.OpenReader(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := len(r.Streams()); got != len(cases) {
		t.Fatalf("journal holds %d streams, want %d", got, len(cases))
	}

	e := replayEngine()
	defer shutdown(t, e)
	sum, err := e.ReplayJournal(r)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Replayed != len(cases) || !sum.Ok() {
		js, _ := json.MarshalIndent(sum, "", "  ")
		t.Fatalf("replay summary not clean:\n%s", js)
	}
	if sum.Matched != len(cases) {
		js, _ := json.MarshalIndent(sum, "", "  ")
		t.Fatalf("matched %d of %d:\n%s", sum.Matched, len(cases), js)
	}
}

// TestReplayAcrossRestart simulates the SIGKILL drill in-process: serve
// half the load into a journal, abandon the writer without Close and
// leave half a record at the end of the last segment (the crash),
// reopen the journal (recovery truncates it), serve the rest with the
// recovered StreamBase, then verify the combined capture end to end.
func TestReplayAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	p, err := journal.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	jw, err := journal.OpenWriter(p, journal.Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	serveJournaled(t, jw, []struct {
		name string
		seed uint64
	}{
		{"queue-buggy", 5},
		{"queue-fixed", 3},
	})
	// Crash: no jw.Close(). FsyncInterval < 0 means every append hit
	// the file, as a SIGKILL after the last batch would leave it; the
	// SIGKILL landed mid-write, so the last segment ends in a partial
	// record.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.svdj"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	last, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := last.Write([]byte("torn record header")); err != nil {
		t.Fatal(err)
	}
	if err := last.Close(); err != nil {
		t.Fatal(err)
	}

	jw2, err := journal.OpenWriter(p, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if jw2.StreamBase() < 2 {
		t.Fatalf("StreamBase after recovery = %d, want >= 2", jw2.StreamBase())
	}
	if rec := jw2.Recovery(); rec.Repaired != 1 || rec.TruncatedBytes != int64(len("torn record header")) {
		t.Fatalf("recovery did not cut the torn record: %+v", rec)
	}
	serveJournaled(t, jw2, []struct {
		name string
		seed uint64
	}{
		{"apache-buggy", 2},
	})
	if err := jw2.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := journal.OpenReader(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	streams := r.Streams()
	if len(streams) != 3 {
		t.Fatalf("journal holds %d streams after restart, want 3", len(streams))
	}
	seen := map[uint64]bool{}
	for _, s := range streams {
		if seen[s.Stream] {
			t.Fatalf("stream id %d reused across restart", s.Stream)
		}
		seen[s.Stream] = true
	}

	e := replayEngine()
	defer shutdown(t, e)
	sum, err := e.ReplayJournal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Ok() || sum.Matched != 3 {
		js, _ := json.MarshalIndent(sum, "", "  ")
		t.Fatalf("post-restart replay not clean:\n%s", js)
	}
}

// TestReplayOlderVersionSkew: a journal whose first stream opens with a
// version-3 Hello — a capture from a build that spoke the row-major
// payload — replays that stream as an ErrVersionSkew error and goes on
// to verify the next stream, which this build served. svdreplay -verify
// reports the same summary.
func TestReplayOlderVersionSkew(t *testing.T) {
	p := journal.InMemory()
	jw, err := journal.OpenWriter(p, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var old bytes.Buffer
	if err := wire.NewFramer(&old, 4).WriteHello(wire.Hello{Version: 3, Threads: 4, Workload: "queue-buggy", Scale: 1, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		kind    journal.Kind
		payload []byte
	}{
		{journal.KindHello, old.Bytes()},
		{journal.KindGoodbye, append(append([]byte(nil), wire.Magic[:]...), byte(wire.FrameGoodbye), 0, 0, 0, 0)},
		{journal.KindResult, []byte(`{}`)},
	} {
		if _, err := jw.Append(journal.Meta{Kind: rec.kind, Stream: 0}, nil, rec.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	jw, err = journal.OpenWriter(p, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	serveJournaled(t, jw, []struct {
		name string
		seed uint64
	}{{"queue-fixed", 3}})
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := journal.OpenReader(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	e := replayEngine()
	defer shutdown(t, e)
	sum, err := e.ReplayJournal(r)
	if err != nil {
		t.Fatal(err)
	}
	js, _ := json.MarshalIndent(sum, "", "  ")
	if sum.Replayed != 2 || sum.Errors != 1 || sum.Matched != 1 {
		t.Fatalf("want one skewed and one matched stream:\n%s", js)
	}
	if skew := sum.Streams[0]; skew.Stream != 0 || !strings.Contains(skew.Err, wire.ErrVersionSkew.Error()) {
		t.Fatalf("stream 0 should fail with version skew:\n%s", js)
	}
}

// TestReplayIncompleteStream journals a stream whose producer hangs up
// without a goodbye (the mid-flight kill) and expects replay to step
// its events and report the stream incomplete — not diverged, not an
// error.
func TestReplayIncompleteStream(t *testing.T) {
	p := journal.InMemory()
	jw, err := journal.OpenWriter(p, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	serveJournaled(t, jw, []struct {
		name string
		seed uint64
	}{
		{"queue-buggy", 5},
	})

	// Hand-drive a second stream on the wire and hang up mid-stream.
	// This second engine shares the first one's journal writer, so it
	// gets a disjoint id range — StreamBase is the caller's contract.
	e := New(Options{Shards: 1, Journal: jw, StreamBase: 1000})
	defer shutdown(t, e)
	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() {
		e.ServeConn(srv)
		close(sessionDone)
	}()
	w, err := workloads.ByName("queue-buggy", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := wire.NewFramer(cli, w.NumThreads)
	if err := f.WriteHello(wire.Hello{
		Version: wire.Version, Threads: w.NumThreads, Workload: w.Name, Scale: 1, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := w.NewVM(7)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		if err := f.WriteColumns(eb); err != nil {
			t.Error(err)
		}
	}))
	if _, err := m.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	cli.Close() // no goodbye: the session aborts the stream
	select {
	case <-sessionDone:
	case <-time.After(5 * time.Second):
		t.Fatal("session did not end after hangup")
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := journal.OpenReader(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	streams := r.Streams()
	if len(streams) != 2 {
		t.Fatalf("journal holds %d streams, want 2", len(streams))
	}

	re := replayEngine()
	defer shutdown(t, re)
	sum, err := re.ReplayJournal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Ok() || sum.Matched != 1 || sum.Incomplete != 1 {
		js, _ := json.MarshalIndent(sum, "", "  ")
		t.Fatalf("replay summary:\n%s", js)
	}
	for _, rs := range sum.Streams {
		if rs.Incomplete && rs.Events == 0 {
			t.Fatalf("incomplete stream replayed no events: %+v", rs)
		}
	}
}

// TestJournalObservability scrapes a journaled engine's metrics and
// statusz: the journal families must appear on /metrics and the panel
// on /statusz, and an unjournaled engine must emit neither.
func TestJournalObservability(t *testing.T) {
	p := journal.InMemory()
	jw, err := journal.OpenWriter(p, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	e := New(Options{Shards: 1, Journal: jw, StreamBase: jw.StreamBase()})
	defer shutdown(t, e)

	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() {
		e.ServeConn(srv)
		close(sessionDone)
	}()
	c := NewClient(cli)
	w, err := workloads.ByName("queue-fixed", 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RunSample(w, 9, ReplayOptions{Scale: 1}); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	<-sessionDone

	var sb strings.Builder
	o := obs.NewOpenMetricsWriter(&sb, "svdd")
	e.WriteMetrics(o)
	if err := o.EOF(); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, fam := range []string{
		"journal_segments", "journal_active_bytes", "journal_total_bytes",
		"journal_appended_records", "journal_appended_bytes",
		"journal_rotations", "journal_recycled_segments",
		"journal_append_errors", "journal_fsync_ns",
	} {
		if !strings.Contains(body, "svdd_"+fam) {
			t.Errorf("metrics missing family %s", fam)
		}
	}

	rr := httptest.NewRecorder()
	e.StatuszHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	if !strings.Contains(rr.Body.String(), "<h2>Journal</h2>") {
		t.Error("statusz html has no journal panel")
	}
	rr = httptest.NewRecorder()
	e.StatuszHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz?format=text", nil))
	if !strings.Contains(rr.Body.String(), "journal dir=") {
		t.Errorf("statusz text has no journal line:\n%s", rr.Body.String())
	}

	// The families are conditional: a journal-less engine stays silent.
	e2 := New(Options{Shards: 1})
	defer shutdown(t, e2)
	sb.Reset()
	o = obs.NewOpenMetricsWriter(&sb, "svdd")
	e2.WriteMetrics(o)
	if err := o.EOF(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "journal_") {
		t.Error("unjournaled engine emits journal families")
	}
	rr = httptest.NewRecorder()
	e2.StatuszHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	if strings.Contains(rr.Body.String(), "<h2>Journal</h2>") {
		t.Error("unjournaled statusz shows a journal panel")
	}
}

// TestDecodeAndDifferential decodes a journaled stream to rows and runs
// the offline differential over it: the offline reference and the
// default online sweep must agree that the buggy queue violates and
// produce overlapping static sites.
func TestDecodeAndDifferential(t *testing.T) {
	p := journal.InMemory()
	jw, err := journal.OpenWriter(p, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	serveJournaled(t, jw, []struct {
		name string
		seed uint64
	}{
		{"queue-buggy", 5},
	})
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := journal.OpenReader(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	e := replayEngine()
	defer shutdown(t, e)
	stream := r.Streams()[0].Stream
	w, evs, err := e.DecodeStreamEvents(r, stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("decoded no events")
	}
	rep, err := offline.Differential(w.Prog, w.NumThreads, evs, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OfflineViolations == 0 {
		t.Fatal("offline reference found no violations in queue-buggy")
	}
	if len(rep.Rows) != len(offline.DefaultConfigs()) {
		t.Fatalf("differential ran %d configs", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Config.Detector == "svd" && row.Violations == 0 {
			t.Fatalf("config %s found no violations", row.Config.Name)
		}
		if row.Config.Detector == "svd" && row.SharedSites == 0 {
			t.Fatalf("config %s shares no sites with the offline reference", row.Config.Name)
		}
		if row.ElapsedNs <= 0 {
			t.Fatalf("config %s has no timing", row.Config.Name)
		}
	}
}

// TestReplayJournalAnchored: a capture served WITHOUT witnesses is
// re-detected on a ForceWitness engine, which anchors every violation
// to the journal record whose batch produced it and re-derives its
// witness. This is svdreplay -anchors in miniature — and the reason it
// runs on its own engine, since forcing witnesses changes the sample
// encoding -verify compares. The serving daemon anchors nothing, so the
// oracles are the journal itself: one anchor per violation and race the
// journaled verdict counted (each up to its retention cap), every anchor
// resolving to an Events record, and every witness's reporting access
// inside its anchor's batch.
func TestReplayJournalAnchored(t *testing.T) {
	p := journal.InMemory()
	jw, err := journal.OpenWriter(p, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Shards: 2, Journal: jw, StreamBase: jw.StreamBase()})
	defer shutdown(t, e)
	cli, srv := net.Pipe()
	sessionDone := make(chan struct{})
	go func() {
		e.ServeConn(srv)
		close(sessionDone)
	}()
	c := NewClient(cli)
	for _, tc := range []struct {
		name string
		seed uint64
	}{{"queue-buggy", 9}, {"apache-buggy", 2}} {
		w, err := workloads.ByName(tc.name, 1, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.RunSample(w, tc.seed, ReplayOptions{Scale: 1}); err != nil {
			t.Fatal(err)
		}
	}
	cli.Close()
	<-sessionDone
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := journal.OpenReader(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ae := New(Options{Shards: 1, ForceWitness: true})
	defer shutdown(t, ae)
	streams, err := ae.ReplayJournalAnchored(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 2 {
		t.Fatalf("anchored replay covered %d streams, want 2", len(streams))
	}
	detectors := map[string]int{}
	for _, as := range streams {
		if as.Err != "" || as.Incomplete {
			t.Fatalf("anchored replay not clean: %+v", as)
		}
		js, liveErr, ok := r.Result(as.Stream)
		if !ok || liveErr != "" {
			t.Fatalf("stream %d: no journaled verdict (%q)", as.Stream, liveErr)
		}
		var live report.Sample
		if err := json.Unmarshal(js, &live); err != nil {
			t.Fatal(err)
		}
		want := min(live.SVDStats.Violations, 1<<16) + min(live.FRDStats.Races, 1<<16)
		if uint64(len(as.Anchors)) != want {
			t.Fatalf("stream %d: replay anchored %d violations, the journaled verdict counts %d", as.Stream, len(as.Anchors), want)
		}
		for i, a := range as.Anchors {
			detectors[a.Detector]++
			if a.Detector != "svd" && a.Detector != "frd" {
				t.Fatalf("anchor %d with bad detector: %+v", i, a)
			}
			if a.LastSeq < a.FirstSeq {
				t.Fatalf("anchor %d seq range inverted: %+v", i, a)
			}
			if a.Witness == nil {
				t.Fatalf("anchor %d has no re-derived witness", i)
			}
			if a.Witness.Detector != a.Detector {
				t.Fatalf("anchor %d: witness detector %q != %q", i, a.Witness.Detector, a.Detector)
			}
			if a.Witness.Seq < a.FirstSeq || a.Witness.Seq > a.LastSeq {
				t.Fatalf("anchor %d: witness seq %d outside its batch [%d, %d]", i, a.Witness.Seq, a.FirstSeq, a.LastSeq)
			}
			m, _, err := r.ReadAt(a.Loc)
			if err != nil {
				t.Fatalf("anchor %d does not resolve: %v", i, err)
			}
			if m.Kind != journal.KindEvents || m.Stream != as.Stream || m.FirstSeq != a.FirstSeq || m.LastSeq != a.LastSeq {
				t.Fatalf("anchor %d resolves to wrong record: %+v vs %+v", i, m, a)
			}
		}
	}
	if detectors["svd"] == 0 || detectors["frd"] == 0 {
		t.Fatalf("anchors by detector %v: the buggy workloads should anchor both", detectors)
	}
}

// TestRetiredStreamHeap: a closed stream leaves only its fold in the
// engine's run digest behind. Witness-on queue-fixed streams carry
// megabytes of witnesses each; after a warm-up, 16 more journaled
// streams may grow the live heap by at most 128 KB apiece.
func TestRetiredStreamHeap(t *testing.T) {
	prov, err := journal.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jw, err := journal.OpenWriter(prov, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	e := New(Options{Shards: 2, Journal: jw, StreamBase: jw.StreamBase(), Obs: obs.NewSink(obs.SinkOptions{}), Telemetry: true})
	defer shutdown(t, e)
	seed := uint64(0)
	serve := func(n int) {
		cli, srv := net.Pipe()
		sessionDone := make(chan struct{})
		go func() { e.ServeConn(srv); close(sessionDone) }()
		c := NewClient(cli)
		for i := 0; i < n; i++ {
			seed++
			w, err := workloads.ByName("queue-fixed", 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.RunSample(w, seed, ReplayOptions{Witness: true, Scale: 1}); err != nil {
				t.Fatal(err)
			}
		}
		cli.Close()
		<-sessionDone
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	serve(8)
	before := heap()
	const streams = 16
	serve(streams)
	after := heap()
	if n := e.Report().Merged.Samples; n != 8+streams {
		t.Fatalf("digest holds %d samples, want %d", n, 8+streams)
	}
	if after > before && (after-before)/streams > 128<<10 {
		t.Fatalf("live heap grew %d KB per retired stream (%d -> %d bytes)", (after-before)/streams>>10, before, after)
	}
	t.Logf("live heap %d -> %d bytes over %d streams", before, after, streams)
}
