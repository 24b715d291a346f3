package frd

import (
	"testing"

	"repro/internal/workloads"
)

// TestWitnessPairsWithEveryRace is FRD's half of the flight-recorder
// acceptance check: each reported race carries a witness, one-for-one and
// index-for-index, whose first/second accesses match the race record.
func TestWitnessPairsWithEveryRace(t *testing.T) {
	wl := workloads.ApacheLog(workloads.ApacheConfig{Threads: 4, Requests: 64, Buggy: true, Seed: 1})
	m, err := wl.NewVM(1)
	if err != nil {
		t.Fatal(err)
	}
	d := New(wl.Prog, wl.NumThreads, Options{Witness: true})
	m.AttachColumns(d)
	if _, err := m.Run(1 << 24); err != nil {
		t.Fatal(err)
	}

	st := d.Stats()
	if st.Races == 0 {
		t.Fatal("no races; the pairing check needs a racy run")
	}
	if st.Witnesses != st.Races {
		t.Errorf("witnesses = %d, races = %d, want equal", st.Witnesses, st.Races)
	}
	rs, ws := d.Races(), d.Witnesses()
	if len(ws) != len(rs) {
		t.Fatalf("retained %d witnesses for %d races", len(ws), len(rs))
	}
	for i := range rs {
		r, w := rs[i], ws[i]
		if w.Detector != "frd" || w.Seq != r.SecondSeq || w.CPU != r.SecondCPU ||
			w.PC != r.SecondPC || w.Block != r.Block {
			t.Fatalf("witness %d does not pair with its race:\n w=%+v\n r=%+v", i, w, r)
		}
		if w.Conflict.CPU != r.FirstCPU || w.Conflict.PC != r.FirstPC ||
			w.Conflict.Seq != r.FirstSeq || w.Conflict.Write != r.FirstWr {
			t.Fatalf("witness %d conflict %+v does not match race first access %+v", i, w.Conflict, r)
		}
		var haveConflict, haveReport bool
		for j, a := range w.Window {
			if j > 0 && a.Seq < w.Window[j-1].Seq {
				t.Fatalf("witness %d window out of order: %+v", i, w.Window)
			}
			if a.Seq == w.Conflict.Seq && a.CPU == w.Conflict.CPU {
				haveConflict = true
			}
			if a.Seq == w.Seq && a.CPU == w.CPU {
				haveReport = true
			}
		}
		if !haveConflict || !haveReport {
			t.Fatalf("witness %d window misses conflict (%v) or report (%v): %+v",
				i, haveConflict, haveReport, w.Window)
		}
	}
}

// TestWitnessScriptedRace pins the witness fields on a two-access race.
func TestWitnessScriptedRace(t *testing.T) {
	s := newScript(2, Options{Witness: true})
	s.store(0, 1, 100)
	s.load(1, 2, 100)
	ws := s.d.Witnesses()
	if len(ws) != 1 {
		t.Fatalf("witnesses = %d, want 1", len(ws))
	}
	w := ws[0]
	if w.Detector != "frd" || w.CPU != 1 || w.PC != 2 || w.Block != 100 {
		t.Errorf("witness = %+v", w)
	}
	if w.Conflict.CPU != 0 || w.Conflict.PC != 1 || !w.Conflict.Write {
		t.Errorf("conflict = %+v", w.Conflict)
	}
	if w.Stale != nil || w.CU != 0 || w.Inputs != nil || w.Outputs != nil {
		t.Errorf("race witness carries CU fields: %+v", w)
	}
	if len(w.Window) != 2 || w.Window[0].PC != 1 || w.Window[1].PC != 2 {
		t.Errorf("window = %+v", w.Window)
	}
}

// TestWitnessDisabledCollectsNothing: the default detector keeps no rings
// and assembles no witnesses even when races fire.
func TestWitnessDisabledCollectsNothing(t *testing.T) {
	s := newScript(2, Options{})
	s.store(0, 1, 100)
	s.load(1, 2, 100)
	if s.d.Stats().Races != 1 {
		t.Fatal("script did not race")
	}
	if s.d.Stats().Witnesses != 0 || s.d.Witnesses() != nil || s.d.rings != nil {
		t.Errorf("witness machinery active with recorder off: %+v", s.d.Witnesses())
	}
}
