package svd

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/workloads"
)

// table2Witness runs one Table 2 workload with the flight recorder on and
// returns the detector.
func table2Witness(t *testing.T, w *workloads.Workload, seed uint64, opts Options) *Detector {
	t.Helper()
	m, err := w.NewVM(seed)
	if err != nil {
		t.Fatal(err)
	}
	d := New(w.Prog, w.NumThreads, opts)
	m.SetColumnBlockShift(opts.BlockShift)
	m.AttachColumns(d)
	if _, err := m.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWitnessPairsWithEveryViolation is the acceptance check: on Table 2
// workloads every violation carries a witness, one-for-one and index-for-
// index, and each witness's conflicting access matches the violation's.
func TestWitnessPairsWithEveryViolation(t *testing.T) {
	var totalViolations uint64
	for _, wl := range []*workloads.Workload{
		workloads.ApacheLog(workloads.ApacheConfig{Threads: 4, Requests: 64, Buggy: true, Seed: 1}),
		workloads.MySQLPrepared(workloads.MySQLPreparedConfig{Threads: 4, Queries: 48, Buggy: true, Seed: 1}),
		workloads.MySQLTables(workloads.MySQLTablesConfig{Lockers: 3, Ops: 80}),
		workloads.PgSQLOLTP(workloads.PgSQLConfig{Warehouses: 4, Terminals: 4, Txns: 128, Seed: 1}),
	} {
		d := table2Witness(t, wl, 1, Options{Witness: true})
		st := d.Stats()
		totalViolations += st.Violations
		if st.Witnesses != st.Violations {
			t.Errorf("%s: witnesses = %d, violations = %d, want equal", wl.Name, st.Witnesses, st.Violations)
		}
		vs, ws := d.Violations(), d.Witnesses()
		if len(ws) != len(vs) {
			t.Fatalf("%s: retained %d witnesses for %d violations", wl.Name, len(ws), len(vs))
		}
		for i := range vs {
			v, w := vs[i], ws[i]
			if w.Detector != "svd" || w.Seq != v.Seq || w.CPU != v.CPU || w.PC != v.StorePC ||
				w.Block != v.Block || w.CU != v.CU {
				t.Fatalf("%s: witness %d does not pair with its violation:\n w=%+v\n v=%+v", wl.Name, i, w, v)
			}
			if w.Conflict.CPU != v.ConflictCPU || w.Conflict.PC != v.ConflictPC || w.Conflict.Seq != v.ConflictSeq {
				t.Fatalf("%s: witness %d conflict %+v does not match violation conflict cpu=%d pc=%d seq=%d",
					wl.Name, i, w.Conflict, v.ConflictCPU, v.ConflictPC, v.ConflictSeq)
			}
			checkWindow(t, wl.Name, i, w)
		}
	}
	if totalViolations == 0 {
		t.Fatal("no workload produced a violation; the pairing check is vacuous")
	}
}

// checkWindow verifies the interleaving slice's structural invariants.
func checkWindow(t *testing.T, name string, i int, w obs.Witness) {
	t.Helper()
	if len(w.Window) == 0 {
		t.Fatalf("%s: witness %d has an empty window", name, i)
	}
	var haveConflict, haveReport bool
	for j, a := range w.Window {
		if j > 0 && a.Seq < w.Window[j-1].Seq {
			t.Fatalf("%s: witness %d window out of order at %d: %+v", name, i, j, w.Window)
		}
		if a.Seq > w.Seq {
			t.Fatalf("%s: witness %d window extends past the report: %+v", name, i, a)
		}
		if a.CPU != w.CPU && a.CPU != w.Conflict.CPU {
			t.Fatalf("%s: witness %d window names a third thread: %+v", name, i, a)
		}
		if a.Seq == w.Conflict.Seq && a.CPU == w.Conflict.CPU {
			haveConflict = true
		}
		if a.Seq == w.Seq && a.CPU == w.CPU {
			haveReport = true
		}
	}
	if !haveConflict {
		t.Fatalf("%s: witness %d window misses the conflicting access", name, i)
	}
	if !haveReport {
		t.Fatalf("%s: witness %d window misses the reporting store", name, i)
	}
}

// TestWitnessDisabledCollectsNothing: without the option the detector
// keeps no rings, assembles no witnesses, and counts none.
func TestWitnessDisabledCollectsNothing(t *testing.T) {
	wl := workloads.ApacheLog(workloads.ApacheConfig{Threads: 4, Requests: 64, Buggy: true, Seed: 1})
	d := table2Witness(t, wl, 1, Options{})
	if d.Stats().Violations == 0 {
		t.Fatal("workload produced no violations; the test needs a violating run")
	}
	if d.Stats().Witnesses != 0 || d.Witnesses() != nil {
		t.Errorf("witnesses collected with recorder off: %d counted, %d retained",
			d.Stats().Witnesses, len(d.Witnesses()))
	}
	for _, ts := range d.threads {
		if ts.ring != nil {
			t.Error("thread ring allocated with recorder off")
		}
	}
}

// TestWitnessStaleInputAndFootprint: on a hand-scripted violation the
// witness carries the victim unit's footprint, the stale read, and the
// conflicting remote store.
func TestWitnessStaleInputAndFootprint(t *testing.T) {
	s := newScript(2, Options{Witness: true})
	const X, Y = 100, 200
	s.load(0, 10, rA, X)  // CU reads X (input)
	s.store(1, 20, rB, X) // remote store makes it stale
	s.store(0, 30, rA, Y) // store depending on the CU: violation

	d := s.d
	if d.Stats().Violations != 1 || d.Stats().Witnesses != 1 {
		t.Fatalf("violations=%d witnesses=%d, want 1/1", d.Stats().Violations, d.Stats().Witnesses)
	}
	w := d.Witnesses()[0]
	if w.Block != X || w.PC != 30 || w.CPU != 0 {
		t.Errorf("witness report = %+v", w)
	}
	if !reflect.DeepEqual(w.Inputs, []int64{X}) {
		t.Errorf("inputs = %v, want [%d]", w.Inputs, X)
	}
	if w.Stale == nil || w.Stale.PC != 10 || w.Stale.Write || w.Stale.Block != X {
		t.Errorf("stale input = %+v", w.Stale)
	}
	if w.Conflict.CPU != 1 || w.Conflict.PC != 20 || !w.Conflict.Write {
		t.Errorf("conflict = %+v", w.Conflict)
	}
	// Window: the load, the remote store, the reporting store — in order.
	if len(w.Window) != 3 {
		t.Fatalf("window = %+v", w.Window)
	}
	if w.Window[0].PC != 10 || w.Window[1].PC != 20 || w.Window[2].PC != 30 {
		t.Errorf("window order = %+v", w.Window)
	}
}

// TestWitnessConflictSurvivesRingEviction: with a tiny ring and many
// remote accesses after the conflict, the conflicting access is long
// evicted from the remote thread's ring — the witness must still carry it
// (prepended, keeping order).
func TestWitnessConflictSurvivesRingEviction(t *testing.T) {
	s := newScript(2, Options{Witness: true, WitnessRing: 4})
	const X = 100
	s.load(0, 10, rA, X)
	s.store(1, 20, rB, X) // the conflict
	for i := 0; i < 16; i++ {
		// Unrelated remote traffic churns cpu 1's ring past the conflict.
		s.store(1, 21, rB, int64(300+i))
	}
	s.store(0, 30, rA, 200) // violation

	ws := s.d.Witnesses()
	if len(ws) != 1 {
		t.Fatalf("witnesses = %d, want 1", len(ws))
	}
	checkWindow(t, "eviction", 0, ws[0])
	if ws[0].Conflict.PC != 20 {
		t.Errorf("conflict = %+v", ws[0].Conflict)
	}
}

// TestWitnessTelemetryMatchesStats: with a recorder attached, the trace
// carries exactly one witness instant per counted witness and the sink
// counter agrees with the detector's stats.
func TestWitnessTelemetryMatchesStats(t *testing.T) {
	sink := obs.NewSink(obs.SinkOptions{Tracing: true})
	rec := sink.NewRecorder("witness test")
	wl := workloads.ApacheLog(workloads.ApacheConfig{Threads: 4, Requests: 64, Buggy: true, Seed: 1})
	d := table2Witness(t, wl, 1, Options{Witness: true, Recorder: rec})
	rec.Flush()

	st := d.Stats()
	if st.Witnesses == 0 {
		t.Fatal("no witnesses; the test needs a violating run")
	}
	if got := sink.Metrics().Witnesses; got != st.Witnesses {
		t.Errorf("sink witnesses = %d, detector = %d", got, st.Witnesses)
	}
	if got := sink.Trace().CountName("witness"); uint64(got) != st.Witnesses {
		t.Errorf("trace witness instants = %d, detector = %d", got, st.Witnesses)
	}
}

// TestExamineDeterministic runs the detector and examiner twice over the
// same Table 2 workload and demands identical findings — ordering
// included. Guards against map-iteration order leaking into the report.
func TestExamineDeterministic(t *testing.T) {
	wl := workloads.MySQLPrepared(workloads.MySQLPreparedConfig{Threads: 4, Queries: 48, Buggy: true, Seed: 2})
	run := func() []Finding {
		d := table2Witness(t, wl, 3, Options{})
		return Examine(wl.Prog, d.Log())
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("no findings; the determinism check needs a populated log")
	}
	for trial := 0; trial < 3; trial++ {
		if again := run(); !reflect.DeepEqual(first, again) {
			t.Fatalf("examiner output changed between runs:\n first %+v\n again %+v", first, again)
		}
	}
}
