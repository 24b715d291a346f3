package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// Detector reuse: each shard keeps one idle detector pair, reset by the
// close job and taken by the next matching open job. These tests hold
// served results to report.Run across reuse, and hold the idle pair to
// its budget and its telemetry to the stream that used it.

// ingestPaced ingests copies of batches, waiting before each one for
// the shard to have taken every queued job (the open job included), so
// even a one-deep shedding queue never overflows.
func ingestPaced(st *Stream, batches []*vm.EventBatch) {
	for _, b := range batches {
		for len(st.sh.jobs) > 0 {
			runtime.Gosched()
		}
		ingestCopy(st, b)
	}
}

// TestShardReusesDetectors serves mixed workloads and witness settings
// back to back on one shard of a shedding engine — each kind of stream
// right after an aborted, a shed and a released one too — and requires
// every published sample to be byte-identical to report.Run. The
// samples are compared only after the last stream has closed, so one
// that shared storage with a later stream's reused detectors would
// show. The reuse counter must count every stream whose workload,
// scale and witness setting match the stream closed just before it.
func TestShardReusesDetectors(t *testing.T) {
	e := New(Options{Shards: 1, QueueDepth: 1, Policy: PolicyShed, Obs: obs.NewSink(obs.SinkOptions{})})
	defer shutdown(t, e)
	type step struct {
		name    string
		seed    uint64
		witness bool
		end     string // "close", "abort", "shed" or "release"
	}
	steps := []step{
		{"queue-buggy", 1, true, "close"},
		{"queue-buggy", 2, true, "close"},
		{"queue-buggy", 3, true, "abort"},
		{"queue-buggy", 4, true, "close"},
		{"apache-buggy", 1, false, "close"},
		{"apache-buggy", 2, false, "shed"},
		{"apache-buggy", 3, false, "close"},
		{"queue-fixed", 1, true, "release"},
		{"queue-fixed", 2, true, "close"},
		{"mysql-prepared-buggy", 1, true, "close"},
		{"mysql-tables", 1, false, "close"},
		{"mysql-tables", 2, true, "close"},
		{"queue-buggy", 5, false, "close"},
		{"queue-buggy", 6, true, "close"},
		{"queue-buggy", 7, true, "close"},
		{"pgsql-oltp", 1, false, "close"},
	}
	type served struct {
		step
		w      *workloads.Workload
		sample *report.Sample
	}
	var got []served
	var wantReuses uint64
	for i, s := range steps {
		if i > 0 && s.name == steps[i-1].name && s.witness == steps[i-1].witness {
			wantReuses++
		}
		w, err := workloads.ByName(s.name, 1, s.seed)
		if err != nil {
			t.Fatal(err)
		}
		batches := collectBatches(t, w, s.seed)
		st, err := e.OpenStream(hello(w, s.seed, s.witness), "")
		if err != nil {
			t.Fatal(err)
		}
		switch s.end {
		case "close":
			ingestPaced(st, batches)
			sample, err := st.Close()
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.name, s.seed, err)
			}
			got = append(got, served{s, w, sample})
		case "abort":
			ingestPaced(st, batches[:len(batches)/2])
			st.Abort()
		case "release":
			ingestPaced(st, batches[:len(batches)/2])
			st.Release()
		case "shed":
			for r := 0; r < 4; r++ {
				for _, b := range batches {
					ingestCopy(st, b)
				}
			}
			if _, err := st.Close(); err == nil || !strings.Contains(err.Error(), "shed") {
				t.Fatalf("%s seed %d closed with %v, want a shed error", s.name, s.seed, err)
			}
		}
	}
	for _, g := range got {
		want, err := report.Run(g.w, g.seed, report.Options{Witness: g.witness})
		if err != nil {
			t.Fatal(err)
		}
		want.Erroneous, want.ErrorDetail = false, ""
		gotJS, _ := json.Marshal(g.sample)
		wantJS, _ := json.Marshal(want)
		if !bytes.Equal(gotJS, wantJS) {
			t.Errorf("%s seed %d witness %v: served sample differs from report.Run\n got %.300s\nwant %.300s",
				g.name, g.seed, g.witness, gotJS, wantJS)
		}
	}
	if c := e.Counters(); c.DetectorReuses != wantReuses {
		t.Errorf("detector reuses = %d, want %d", c.DetectorReuses, wantReuses)
	}
}

// loadPC returns the first load instruction's PC in w's program.
func loadPC(t *testing.T, w *workloads.Workload) int64 {
	t.Helper()
	for pc, in := range w.Prog.Code {
		if in.Op == isa.OpLoad {
			return int64(pc)
		}
	}
	t.Fatalf("%s has no load", w.Name)
	return 0
}

// loadsAt builds batches in which every thread loads each address once.
func loadsAt(w *workloads.Workload, pc int64, addrs []int64) []*vm.EventBatch {
	var out []*vm.EventBatch
	eb := vm.NewEventBatch(vm.DefaultBatchCap)
	seq := uint64(0)
	for _, a := range addrs {
		for cpu := 0; cpu < w.NumThreads; cpu++ {
			if eb.Len() == vm.DefaultBatchCap {
				out = append(out, eb)
				eb = vm.NewEventBatch(vm.DefaultBatchCap)
			}
			eb.AppendRaw(seq, int32(cpu), pc, vm.FlagLoad, a)
			seq++
		}
	}
	return append(out, eb)
}

// serveLoads runs one queue-fixed stream of loadsAt(addrs) to its result.
func serveLoads(t *testing.T, e *Engine, w *workloads.Workload, witness bool, addrs []int64) {
	t.Helper()
	st, err := e.OpenStream(hello(w, 1, witness), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range loadsAt(w, loadPC(t, w), addrs) {
		ingestCopy(st, b)
	}
	if _, err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSprayedStreamNotRetained: a stream whose loads cover its
// workload's whole memory makes every thread's block table materialize
// every page, far past the idle-pair budget. Its detectors are dropped
// at close, so the next stream builds new ones; an ordinary stream's
// are kept again.
func TestSprayedStreamNotRetained(t *testing.T) {
	w, err := workloads.ByName("queue-fixed", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var spray []int64
	for a := int64(0); a < w.MemWords; a += 256 {
		spray = append(spray, a)
	}
	small := []int64{1, 2, 3}
	e := New(Options{Shards: 1})
	defer shutdown(t, e)
	serveLoads(t, e, w, false, spray)
	serveLoads(t, e, w, false, small)
	if got := e.Counters().DetectorReuses; got != 0 {
		t.Fatalf("a stream reused the sprayed stream's detectors (%d reuses)", got)
	}
	serveLoads(t, e, w, false, small)
	if got := e.Counters().DetectorReuses; got != 1 {
		t.Fatalf("detector reuses after two ordinary streams = %d, want 1", got)
	}
}

// TestReusedStoreGauges: the block-store occupancy a stream's FlushObs
// reports covers the pages that stream touched, not pages its reused
// detectors kept from an earlier one. Two engines serve the same two
// streams; only the first lets the second reuse the first's detectors
// (the second engine switches the witness setting between them), and
// the store histograms must come out equal.
func TestReusedStoreGauges(t *testing.T) {
	w, err := workloads.ByName("queue-fixed", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wide []int64
	for a := int64(512); a <= 8*512; a += 512 {
		wide = append(wide, a)
	}
	narrow := []int64{1, 2, 3}
	gauges := func(firstWitness bool) (obs.Metrics, uint64) {
		sink := obs.NewSink(obs.SinkOptions{})
		e := New(Options{Shards: 1, Obs: sink})
		serveLoads(t, e, w, firstWitness, wide)
		serveLoads(t, e, w, false, narrow)
		reuses := e.Counters().DetectorReuses
		shutdown(t, e)
		return sink.Metrics(), reuses
	}
	reused, n := gauges(false)
	if n != 1 {
		t.Fatalf("second stream did not reuse the first's detectors (%d reuses)", n)
	}
	fresh, n := gauges(true)
	if n != 0 {
		t.Fatalf("control engine reused detectors (%d reuses)", n)
	}
	for _, h := range []struct {
		name      string
		got, want obs.Histogram
	}{
		{"store pages", reused.StorePages, fresh.StorePages},
		{"store slots", reused.StoreSlots, fresh.StoreSlots},
		{"store touched", reused.StoreTouched, fresh.StoreTouched},
	} {
		if !reflect.DeepEqual(h.got, h.want) {
			t.Errorf("%s with reused detectors = %+v, want %+v", h.name, h.got.Summarize(), h.want.Summarize())
		}
	}
}

// TestHostileScaleRefused: a Hello whose scale would have the server
// compile past the compiler's limits — pgsql-oltp at 8192 once panicked
// the daemon — or lay out a data segment larger than the workload's
// memory gets an Error frame, and the engine keeps serving.
func TestHostileScaleRefused(t *testing.T) {
	e := New(Options{Shards: 1})
	defer shutdown(t, e)
	for _, h := range []wire.Hello{
		{Version: wire.Version, Workload: "pgsql-oltp", Threads: 4, Scale: 8192},
		{Version: wire.Version, Workload: "queue-fixed", Threads: 4, Scale: 1024},
		{Version: wire.Version, Workload: "queue-fixed", Threads: 4, Scale: workloads.MaxScale + 1},
	} {
		var buf bytes.Buffer
		if err := wire.NewFramer(&buf, h.Threads).WriteHello(h); err != nil {
			t.Fatal(err)
		}
		fr := serveRaw(t, e, buf.Bytes())
		if fr.Type != wire.FrameError || !strings.Contains(fr.Errmsg, "scale") {
			t.Errorf("%s at scale %d: reply %s %q, want an Error frame about the scale", h.Workload, h.Scale, fr.Type, fr.Errmsg)
		}
	}
	w, err := workloads.ByName("queue-fixed", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	serveLoads(t, e, w, false, []int64{1, 2, 3})
}
