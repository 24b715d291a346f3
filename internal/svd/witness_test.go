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
// workloads under WitnessAll every violation carries a witness,
// one-for-one and index-for-index, and each witness's conflicting access
// matches the violation's. The site-pair groups fold every violation
// exactly once (their counts sum to Violations), Stats.Witnesses counts
// one exemplar per group, and the groups are the fold of the flat list.
func TestWitnessPairsWithEveryViolation(t *testing.T) {
	var totalViolations uint64
	for _, wl := range []*workloads.Workload{
		workloads.ApacheLog(workloads.ApacheConfig{Threads: 4, Requests: 64, Buggy: true, Seed: 1}),
		workloads.MySQLPrepared(workloads.MySQLPreparedConfig{Threads: 4, Queries: 48, Buggy: true, Seed: 1}),
		workloads.MySQLTables(workloads.MySQLTablesConfig{Lockers: 3, Ops: 80}),
		workloads.PgSQLOLTP(workloads.PgSQLConfig{Warehouses: 4, Terminals: 4, Txns: 128, Seed: 1}),
	} {
		d := table2Witness(t, wl, 1, Options{Witness: true, WitnessAll: true})
		st := d.Stats()
		totalViolations += st.Violations
		checkGroups(t, wl.Name, d)
		vs, ws := d.Violations(), d.AllWitnesses()
		if len(ws) != len(vs) {
			t.Fatalf("%s: retained %d witnesses for %d violations", wl.Name, len(ws), len(vs))
		}
		if got, want := obs.RankGroups(d.WitnessGroups()), obs.GroupWitnesses(ws); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: groups are not the fold of the flat witness list:\n got %+v\nwant %+v", wl.Name, got, want)
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

// checkGroups verifies the per-group invariants of a run whose groups
// stayed under the cap: counts sum to Violations, Stats.Witnesses counts
// one exemplar per group, pairs are distinct, and each exemplar reports
// at its group's pair.
func checkGroups(t *testing.T, name string, d *Detector) {
	t.Helper()
	st, gs := d.Stats(), d.WitnessGroups()
	var sum uint64
	seen := map[[2]int64]bool{}
	for i, g := range gs {
		sum += uint64(g.Count)
		k := [2]int64{g.PC, g.ConflictPC}
		if seen[k] {
			t.Fatalf("%s: group %d repeats site pair %v", name, i, k)
		}
		seen[k] = true
		if g.Detector != "svd" || g.First.Detector != "svd" || g.First.PC != g.PC || g.First.Conflict.PC != g.ConflictPC || g.Count < 1 {
			t.Fatalf("%s: group %d is malformed: %+v", name, i, g)
		}
		checkWindow(t, name, i, g.First)
	}
	if sum != st.Violations {
		t.Errorf("%s: group counts sum to %d, violations = %d, want equal", name, sum, st.Violations)
	}
	if st.Witnesses != uint64(len(gs)) {
		t.Errorf("%s: witnesses = %d, groups = %d, want equal", name, st.Witnesses, len(gs))
	}
}

// TestWitnessGroupCap: the number of groups stops at MaxViolations, a
// violation at a new pair past the cap is only counted in Stats, groups
// already open keep exact counts, and a clone carries the groups.
func TestWitnessGroupCap(t *testing.T) {
	wl := workloads.ApacheLog(workloads.ApacheConfig{Threads: 4, Requests: 64, Buggy: true, Seed: 1})
	full := table2Witness(t, wl, 1, Options{Witness: true})
	if len(full.WitnessGroups()) < 3 {
		t.Fatalf("workload opened %d groups; the cap check needs at least 3", len(full.WitnessGroups()))
	}
	capped := table2Witness(t, wl, 1, Options{Witness: true, MaxViolations: 2})
	gs := capped.WitnessGroups()
	if len(gs) != 2 || capped.Stats().Witnesses != 2 {
		t.Fatalf("capped run: %d groups, %d witnesses, want 2 and 2", len(gs), capped.Stats().Witnesses)
	}
	if !reflect.DeepEqual(gs, full.WitnessGroups()[:2]) {
		t.Errorf("capped groups differ from the first two uncapped ones:\n got %+v\nwant %+v", gs, full.WitnessGroups()[:2])
	}
	if capped.Stats().Violations != full.Stats().Violations {
		t.Errorf("capped run counted %d violations, uncapped %d", capped.Stats().Violations, full.Stats().Violations)
	}
	if c := full.Clone(); !reflect.DeepEqual(c.WitnessGroups(), full.WitnessGroups()) {
		t.Error("clone lost the witness groups")
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
	if d.Stats().Witnesses != 0 || d.WitnessGroups() != nil || d.AllWitnesses() != nil {
		t.Errorf("witnesses collected with recorder off: %d counted, %d groups retained",
			d.Stats().Witnesses, len(d.WitnessGroups()))
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
	if gs := d.WitnessGroups(); len(gs) != 1 || gs[0].Count != 1 {
		t.Fatalf("groups = %+v, want one group of 1", gs)
	}
	w := d.WitnessGroups()[0].First
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

	gs := s.d.WitnessGroups()
	if len(gs) != 1 {
		t.Fatalf("groups = %d, want 1", len(gs))
	}
	checkWindow(t, "eviction", 0, gs[0].First)
	if gs[0].First.Conflict.PC != 20 {
		t.Errorf("conflict = %+v", gs[0].First.Conflict)
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
	if n := len(d.WitnessGroups()); uint64(n) != st.Witnesses {
		t.Errorf("detector counted %d witnesses for %d groups", st.Witnesses, n)
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
