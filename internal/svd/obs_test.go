package svd

import (
	"testing"

	"repro/internal/obs"
)

func triple(readPC, remotePC, localPC int64, cpu int) LogEntry {
	return LogEntry{
		CPU:            cpu,
		Block:          100,
		ReadPC:         readPC,
		RemoteWritePC:  remotePC,
		RemoteWriteCPU: 1 - cpu,
		LocalWritePC:   localPC,
	}
}

// logEntry logs e as its reader thread would: through that thread's
// logTriple, as load and remote do.
func logEntry(d *Detector, e LogEntry) {
	d.threads[e.CPU].logTriple(logKey{readPC: e.ReadPC, remotePC: e.RemoteWritePC, localPC: e.LocalWritePC},
		e.RemoteWriteCPU, e.Block, e.ReadSeq, e.RemoteWriteSeq, e.LocalWriteSeq)
}

// TestMaxLogEntriesCap: the cap bounds retained distinct triples, but
// dynamic counting continues — both the global Stats counter and the
// per-triple Dynamic counts of the triples that made it under the cap.
func TestMaxLogEntriesCap(t *testing.T) {
	s := newScript(2, Options{MaxLogEntries: 2})
	d := s.d

	logEntry(d, triple(1, 2, 3, 0)) // A: retained
	logEntry(d, triple(4, 5, 6, 0)) // B: retained, cap full
	logEntry(d, triple(7, 8, 9, 0)) // C: dropped (over cap)
	logEntry(d, triple(1, 2, 3, 1)) // A again: dedup hit, cap irrelevant
	logEntry(d, triple(7, 8, 9, 0)) // C again: still dropped

	log := d.Log()
	if len(log) != 2 {
		t.Fatalf("retained %d triples, want 2 (cap)", len(log))
	}
	if got := d.Stats().LogEntries; got != 5 {
		t.Errorf("Stats().LogEntries = %d, want 5 dynamic occurrences", got)
	}
	a := log[0]
	if a.ReadPC != 1 || a.Dynamic != 2 {
		t.Errorf("triple A = %+v, want ReadPC 1 Dynamic 2", a)
	}
	if a.ReaderCPUs != 0b11 {
		t.Errorf("triple A ReaderCPUs = %b, want both threads", a.ReaderCPUs)
	}
	if b := log[1]; b.ReadPC != 4 || b.Dynamic != 1 {
		t.Errorf("triple B = %+v, want ReadPC 4 Dynamic 1", b)
	}
}

// TestLogDefensiveCopy: mutating the returned log must not corrupt the
// detector's retained entries.
func TestLogDefensiveCopy(t *testing.T) {
	s := newScript(2, Options{})
	logEntry(s.d, triple(1, 2, 3, 0))

	log := s.d.Log()
	log[0].ReadPC = 999
	log[0].Dynamic = 999

	again := s.d.Log()
	if again[0].ReadPC != 1 || again[0].Dynamic != 1 {
		t.Fatalf("mutation through returned slice leaked in: %+v", again[0])
	}
	if s.d.Log() == nil || &log[0] == &again[0] {
		t.Fatal("Log must return a fresh copy each call")
	}
}

// TestTraceEventsMatchStats drives the lost-update scenario with tracing
// on and checks the trace events correspond one-for-one with the
// detector's own counters — the acceptance criterion for the trace layer.
func TestTraceEventsMatchStats(t *testing.T) {
	sink := obs.NewSink(obs.SinkOptions{Tracing: true})
	rec := sink.NewRecorder("script")
	s := newScript(2, Options{Recorder: rec})

	const X, Y = 100, 108
	for round := int64(0); round < 3; round++ {
		pc := round * 8
		s.load(0, pc, rA, X+round)
		s.load(1, pc, rA, X+round)
		s.addi(1, pc+1, rA, rA)
		s.store(1, pc+2, rA, X+round)
		s.addi(0, pc+1, rA, rA)
		s.store(0, pc+2, rA, X+round)
	}
	s.load(0, 40, rB, Y) // independent CU, lives to the end

	// Force a shared-dependence cut so the retirement histograms fill:
	// T0 stores Z, T1 reads it (Stored → Stored_Shared), then T0 loads
	// its own stored-shared block, which must end T0's current unit.
	const Z = 200
	s.store(0, 50, rA, Z)
	s.load(1, 51, rB, Z)
	s.load(0, 52, rC, Z)
	if s.d.Stats().CUsCut == 0 {
		t.Fatal("stored-shared load did not cut a CU")
	}

	s.d.FlushObs()
	rec.Flush()

	st := s.d.Stats()
	tr := sink.Trace()
	if st.Violations == 0 {
		t.Fatal("scenario produced no violations")
	}
	for _, c := range []struct {
		event string
		want  uint64
	}{
		{"violation", st.Violations},
		{"cu_create", st.CUsCreated},
		{"cu_merge", st.CUsMerged},
		{"cu_cut", st.CUsCut},
		{"log_triple", st.LogEntries},
	} {
		if got := uint64(tr.CountName(c.event)); got != c.want {
			t.Errorf("trace has %d %q events, detector counted %d", got, c.event, c.want)
		}
	}

	m := sink.Metrics()
	if m.CUCuts != st.CUsCut || m.Violations != st.Violations {
		t.Errorf("sink metrics diverge from stats: %d/%d cuts, %d/%d violations",
			m.CUCuts, st.CUsCut, m.Violations, st.Violations)
	}
	if m.CULifetime.Count == 0 || m.CUFootprint.Count == 0 {
		t.Error("CU retirement histograms empty")
	}
	if m.ArenaAllocated != st.CUsAllocated || m.ArenaReused != st.CUsReused {
		t.Errorf("arena telemetry diverges: %d/%d allocated, %d/%d reused",
			m.ArenaAllocated, st.CUsAllocated, m.ArenaReused, st.CUsReused)
	}
	if m.StorePages.Count == 0 {
		t.Error("block-store occupancy histogram empty after FlushObs")
	}
}

// TestTelemetryPreservesDetection: attaching a recorder must not change
// what the detector reports.
func TestTelemetryPreservesDetection(t *testing.T) {
	runScenario := func(opts Options) Stats {
		s := newScript(2, opts)
		const X = 100
		s.load(0, 0, rA, X)
		s.load(1, 0, rA, X)
		s.addi(1, 1, rA, rA)
		s.store(1, 2, rA, X)
		s.addi(0, 1, rA, rA)
		s.store(0, 2, rA, X)
		return s.d.Stats()
	}
	plain := runScenario(Options{})
	sink := obs.NewSink(obs.SinkOptions{Tracing: true})
	traced := runScenario(Options{Recorder: sink.NewRecorder("x")})
	if plain != traced {
		t.Fatalf("telemetry changed detector behavior:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}
