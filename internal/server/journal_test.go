package server

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/offline"
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

	// Satellite: the engine report carries the journal section with
	// per-stream anchors (queue-buggy produces violations).
	rep := e.Report()
	if rep.Journal == nil {
		t.Fatal("journaled engine report has no journal section")
	}
	if rep.Journal.Stats.AppendedRecords == 0 {
		t.Fatal("journal stats report no appends after a served run")
	}
	var anchored int
	for _, sa := range rep.Journal.Streams {
		anchored += len(sa.Anchors)
		for _, a := range sa.Anchors {
			if a.Detector != "svd" && a.Detector != "frd" {
				t.Fatalf("anchor with bad detector: %+v", a)
			}
			if a.LastSeq < a.FirstSeq {
				t.Fatalf("anchor seq range inverted: %+v", a)
			}
		}
	}
	if anchored == 0 {
		t.Fatal("no violation anchors recorded for buggy workloads")
	}
	// Anchors pair with witnesses when retained (streams ran Witness).
	var withWitness int
	for _, sa := range rep.Journal.Streams {
		for _, a := range sa.Anchors {
			if a.Witness != nil {
				withWitness++
			}
		}
	}
	if withWitness == 0 {
		t.Fatal("no anchor carries its witness")
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
// half the load into a journal, abandon the writer without Close (the
// crash), reopen the journal (recovery), serve the rest with the
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
	// the file, as a SIGKILL after the last batch would leave it.

	jw2, err := journal.OpenWriter(p, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if jw2.StreamBase() < 2 {
		t.Fatalf("StreamBase after recovery = %d, want >= 2", jw2.StreamBase())
	}
	if rec := jw2.Recovery(); rec.Repaired == 0 {
		t.Fatalf("recovery repaired nothing: %+v", rec)
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

// TestReplayJournalAnchored: a capture served WITHOUT witnesses still
// anchors its violations; the anchored replay re-detects it on a
// ForceWitness engine and re-derives a witness for every anchor, at the
// same journal coordinates the live daemon recorded. This is svdreplay
// -anchors in miniature — and the reason it runs on its own engine,
// since forcing witnesses changes the sample encoding -verify compares.
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
	w, err := workloads.ByName("queue-buggy", 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RunSample(w, 9, ReplayOptions{Scale: 1}); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	<-sessionDone

	live := e.Report().Journal.Streams
	if len(live) != 1 || len(live[0].Anchors) == 0 {
		t.Fatalf("live engine recorded no anchors: %+v", live)
	}
	for _, a := range live[0].Anchors {
		if a.Witness != nil {
			t.Fatal("witnessless serve attached a witness")
		}
	}
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
	if len(streams) != 1 {
		t.Fatalf("anchored replay covered %d streams, want 1", len(streams))
	}
	as := streams[0]
	if as.Err != "" || as.Incomplete {
		t.Fatalf("anchored replay not clean: %+v", as)
	}
	if len(as.Anchors) != len(live[0].Anchors) {
		t.Fatalf("replay anchored %d violations, live anchored %d", len(as.Anchors), len(live[0].Anchors))
	}
	for i, a := range as.Anchors {
		la := live[0].Anchors[i]
		if a.Detector != la.Detector || a.Index != la.Index || a.Loc != la.Loc ||
			a.FirstSeq != la.FirstSeq || a.LastSeq != la.LastSeq {
			t.Fatalf("anchor %d diverges from live: replay %+v live %+v", i, a, la)
		}
		if a.Witness == nil {
			t.Fatalf("anchor %d has no re-derived witness", i)
		}
		if a.Witness.Detector != a.Detector {
			t.Fatalf("anchor %d: witness detector %q != %q", i, a.Witness.Detector, a.Detector)
		}
		m, _, err := r.ReadAt(a.Loc)
		if err != nil {
			t.Fatalf("anchor %d does not resolve: %v", i, err)
		}
		if m.Kind != journal.KindEvents || m.FirstSeq != a.FirstSeq || m.LastSeq != a.LastSeq {
			t.Fatalf("anchor %d resolves to wrong record: %+v vs %+v", i, m, a)
		}
	}
}
