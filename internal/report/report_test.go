package report

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/workloads"
)

func TestRunClassifiesApacheBuggy(t *testing.T) {
	w := workloads.ApacheLog(workloads.ApacheConfig{Threads: 4, Requests: 48, Buggy: true, Seed: 1})
	found := false
	for seed := uint64(0); seed < 6 && !found; seed++ {
		s, err := Run(w, seed, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Erroneous && s.SVD.FoundBug {
			found = true
			if s.SVD.DynamicTrue == 0 {
				t.Error("found bug with zero dynamic true reports")
			}
			if len(s.SVD.TrueSites) == 0 {
				t.Error("found bug with zero true sites")
			}
			if !s.FRD.FoundBug {
				t.Error("FRD missed the bug SVD found")
			}
		}
	}
	if !found {
		t.Fatal("no sample manifested and detected the apache bug")
	}
}

func TestRunClassifiesBenignWorkload(t *testing.T) {
	w := workloads.MySQLTables(workloads.MySQLTablesConfig{Lockers: 3, Ops: 60})
	s, err := Run(w, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Erroneous {
		t.Fatalf("benign workload erroneous: %s", s.ErrorDetail)
	}
	if s.SVD.DynamicTrue != 0 || s.FRD.DynamicTrue != 0 {
		t.Error("bug-free workload produced 'true' detections")
	}
	if s.SVD.DynamicFalse != 0 {
		t.Errorf("SVD has %d dynamic FPs on the benign race", s.SVD.DynamicFalse)
	}
	if s.FRD.DynamicFalse == 0 {
		t.Error("FRD has no FPs on the benign race; the Figure 1 contrast is gone")
	}
}

func TestAggregateApparentFNs(t *testing.T) {
	samples := []*Sample{
		{
			Workload:     "x",
			Instructions: 1e6,
			Erroneous:    true,
			SVD:          DetectorResult{FoundBug: false},
			FRD:          DetectorResult{FoundBug: true},
		},
		{
			Workload:     "x",
			Instructions: 1e6,
			Erroneous:    true,
			SVD:          DetectorResult{FoundBug: false},
			FRD:          DetectorResult{FoundBug: true},
			LogFoundBug:  true, // a posteriori finding cancels the FN
		},
	}
	row := Aggregate("x", samples)
	if row.ApparentFNs != 1 {
		t.Errorf("apparent FNs = %d, want 1", row.ApparentFNs)
	}
	if row.MInsts != 2 {
		t.Errorf("MInsts = %f, want 2", row.MInsts)
	}
	if !row.LogFoundBug || row.SVDFoundBug {
		t.Errorf("found-bug flags wrong: %+v", row)
	}
}

func TestAggregateStaticSitesAreUnioned(t *testing.T) {
	samples := []*Sample{
		{Workload: "x", Instructions: 1000, SVD: DetectorResult{
			FalseSites: map[SiteKey]bool{svdSiteKey(10): true, svdSiteKey(20): true}, DynamicFalse: 5,
		}},
		{Workload: "x", Instructions: 1000, SVD: DetectorResult{
			FalseSites: map[SiteKey]bool{svdSiteKey(20): true, svdSiteKey(30): true}, DynamicFalse: 7,
		}},
	}
	row := Aggregate("x", samples)
	if row.SVDStaticFP != 3 {
		t.Errorf("static FPs = %d, want 3 (union)", row.SVDStaticFP)
	}
	if row.SVDDynFP != 12 {
		t.Errorf("dynamic FPs = %d, want 12 (sum)", row.SVDDynFP)
	}
}

func TestRates(t *testing.T) {
	r := Row{SVDDynFP: 50, FRDDynFP: 100, CUs: 2000, MInsts: 2}
	if got := r.SVDDynFPPerM(); got != 25 {
		t.Errorf("SVD dFP/M = %f", got)
	}
	if got := r.FRDDynFPPerM(); got != 50 {
		t.Errorf("FRD dFP/M = %f", got)
	}
	if got := r.CUsPerM(); got != 1000 {
		t.Errorf("CUs/M = %f", got)
	}
	empty := Row{}
	if empty.SVDDynFPPerM() != 0 {
		t.Error("zero-instruction row should rate 0")
	}
}

// TestTable2SmallScale runs the whole Table 2 pipeline at scale 1 and
// checks the headline shape of the paper's results.
func TestTable2SmallScale(t *testing.T) {
	rows, merged, err := Table2(Table2Config{Scale: 1, Samples: 2, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	if merged.Samples == 0 || merged.SVD.Instructions == 0 || merged.FRD.Instructions == 0 {
		t.Errorf("merged stats empty: %+v", merged)
	}
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Workload] = r
	}

	ab := byName["apache-buggy"]
	if ab.ErroneousSamples == 0 {
		t.Error("apache-buggy sample was not erroneous")
	}
	if !ab.SVDFoundBug {
		t.Error("SVD did not find the apache bug")
	}
	if ab.ApparentFNs != 0 {
		t.Errorf("apache-buggy apparent FNs = %d, want 0", ab.ApparentFNs)
	}

	mb := byName["mysql-prepared-buggy"]
	if !mb.LogFoundBug {
		t.Error("a posteriori log did not reveal the mysql bug")
	}
	if mb.ApparentFNs != 0 {
		t.Errorf("mysql apparent FNs = %d, want 0 (log finding counts)", mb.ApparentFNs)
	}

	mt := byName["mysql-tables"]
	if mt.SVDDynFP != 0 {
		t.Errorf("SVD dynamic FPs on mysql-tables = %d, want 0", mt.SVDDynFP)
	}
	if mt.FRDDynFP == 0 {
		t.Error("FRD has no FPs on mysql-tables; benign-race contrast missing")
	}

	pg := byName["pgsql-oltp"]
	if pg.FRDStaticFP != 0 {
		t.Errorf("FRD static FPs on pgsql = %d, want 0", pg.FRDStaticFP)
	}
	if pg.SVDStaticFP == 0 {
		t.Error("SVD static FPs on pgsql = 0; the Table 2 inversion is missing")
	}

	out := RenderTable(rows)
	for _, name := range []string{"apache-buggy", "mysql-tables", "pgsql-oltp"} {
		if !strings.Contains(out, name) {
			t.Errorf("rendered table missing %s:\n%s", name, out)
		}
	}
	if s := Summary(mb); !strings.Contains(s, "a posteriori") {
		t.Errorf("summary of the mysql row does not mention the log: %s", s)
	}

	// The table's bytes, not only its shape: a change of one count in
	// any row or merged counter moves a hash. A deliberate verdict change
	// re-records them and says why in CHANGES.md.
	for _, c := range []struct {
		what, want string
		v          any
	}{
		{"rows", "9a20a7efbce7c44ce77713ed53927100fd00154f8532ccd9651b14fb831f86b6", rows},
		{"merged", "67e53b726788fc04627ca673e20f8bef231eea83edb9a55e4931b35b3ca832ff", merged},
	} {
		b, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(b); got != c.want {
			t.Errorf("Table2 %s JSON hash %s, want %s", c.what, got, c.want)
		}
	}
}

// TestScalingSweepShape verifies the §7.3 claim on a small sweep: dynamic
// FPs grow with length while static FPs stay nearly flat.
func TestScalingSweepShape(t *testing.T) {
	pts, err := ScalingSweep([]int{1, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	byWorkload := map[string][]ScalingPoint{}
	for _, p := range pts {
		byWorkload[p.Workload] = append(byWorkload[p.Workload], p)
	}
	pg := byWorkload["pgsql-oltp"]
	if len(pg) != 2 {
		t.Fatalf("pgsql points = %d", len(pg))
	}
	if pg[1].DynFP <= pg[0].DynFP {
		t.Errorf("dynamic FPs did not grow with length: %d -> %d", pg[0].DynFP, pg[1].DynFP)
	}
	// Static sites track exercised code: growing the execution 4x must
	// not grow distinct sites 4x.
	if pg[0].StaticFP > 0 && pg[1].StaticFP > 3*pg[0].StaticFP {
		t.Errorf("static FPs grew with length: %d -> %d", pg[0].StaticFP, pg[1].StaticFP)
	}
}
