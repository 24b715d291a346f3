package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func acc(cpu int, seq uint64, block int64, write bool) WitnessAccess {
	return WitnessAccess{CPU: cpu, PC: int64(seq) * 10, Block: block, Write: write, Seq: seq}
}

func TestAccessRingWrapsAndSnapshots(t *testing.T) {
	r := NewAccessRing(4)
	for i := uint64(1); i <= 10; i++ {
		r.Add(acc(0, i, int64(i), false))
	}
	got := r.Snapshot(^uint64(0), nil)
	if len(got) != 4 {
		t.Fatalf("snapshot kept %d entries, want 4", len(got))
	}
	for i, a := range got {
		if want := uint64(7 + i); a.Seq != want {
			t.Errorf("entry %d seq = %d, want %d (oldest-first)", i, a.Seq, want)
		}
	}
	// maxSeq filters newer entries out.
	if got := r.Snapshot(8, nil); len(got) != 2 || got[0].Seq != 7 || got[1].Seq != 8 {
		t.Errorf("filtered snapshot = %+v", got)
	}
	// Reset empties the ring and keeps its buffer.
	r.Reset()
	if got := r.Snapshot(^uint64(0), nil); got != nil || len(r.buf) != 4 {
		t.Errorf("snapshot after Reset = %+v", got)
	}
	r.Add(acc(0, 11, 1, false))
	if got := r.Snapshot(^uint64(0), nil); len(got) != 1 || got[0].Seq != 11 {
		t.Errorf("snapshot after Reset and Add = %+v", got)
	}
	// A nil ring snapshots to nothing.
	var nilRing *AccessRing
	if got := nilRing.Snapshot(100, nil); got != nil {
		t.Errorf("nil ring snapshot = %+v", got)
	}
	// Zero size falls back to the default.
	if r := NewAccessRing(0); len(r.buf) != DefaultWitnessRing {
		t.Errorf("default ring size = %d", len(r.buf))
	}
}

func TestMergeWindow(t *testing.T) {
	a := []WitnessAccess{acc(0, 1, 1, false), acc(0, 4, 1, true), acc(0, 6, 1, false)}
	b := []WitnessAccess{acc(1, 2, 2, false), acc(1, 5, 2, true)}
	got := MergeWindow(a, b, 0)
	want := []uint64{1, 2, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("merged %d entries, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Seq != want[i] {
			t.Errorf("entry %d seq = %d, want %d", i, a.Seq, want[i])
		}
	}
	// Capping keeps the tail — the accesses nearest the report.
	capped := MergeWindow(a, b, 2)
	if len(capped) != 2 || capped[0].Seq != 5 || capped[1].Seq != 6 {
		t.Errorf("capped = %+v", capped)
	}
}

// refWindow is the window assembly Window fuses: snapshot both rings,
// merge, append the reporting access, prepend the conflict if missing.
func refWindow(a, b *AccessRing, maxSeq uint64, max int, last, conflict WitnessAccess) []WitnessAccess {
	win := MergeWindow(a.Snapshot(maxSeq, nil), b.Snapshot(maxSeq, nil), max)
	win = append(win, last)
	for _, x := range win {
		if x.Seq == conflict.Seq && x.CPU == conflict.CPU {
			return win
		}
	}
	return append([]WitnessAccess{conflict}, win...)
}

// TestWindowMatchesReference drives Window against refWindow over rings
// at every fill level around wraparound, with and without a second
// ring, trimming on and off, maxSeq cutting into the rings, sequence
// numbers out of order, and conflicts present, evicted or never seen.
func TestWindowMatchesReference(t *testing.T) {
	rng := uint64(12345)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	cases := 0
	for size := 1; size <= 9; size += 2 {
		for fillA := 0; fillA <= 2*size+1; fillA++ {
			for _, withB := range []bool{false, true} {
				a, b := NewAccessRing(size), NewAccessRing(size)
				seq := uint64(0)
				for i := 0; i < fillA || (withB && i < fillA+int(next(5))); i++ {
					seq += 1 + next(3)
					s := seq
					if next(8) == 0 {
						s -= next(seq) // out of order
					}
					if i < fillA {
						a.Add(acc(0, s, int64(next(4)), next(2) == 0))
					}
					if withB && next(2) == 0 {
						b.Add(acc(1, s+1, int64(next(4)), true))
					}
				}
				var rb *AccessRing
				if withB {
					rb = b
				}
				for _, max := range []int{0, 1, size - 1, size + 3} {
					for _, cut := range []uint64{seq + 10, seq / 2, 0} {
						last := acc(0, seq+20, 1, true)
						conflicts := []WitnessAccess{acc(1, seq/2+1, 1, true), acc(1, seq+50, 2, false), acc(0, 0, 0, false)}
						if withB {
							if snap := b.Snapshot(^uint64(0), nil); len(snap) > 0 {
								conflicts = append(conflicts, snap[len(snap)-1], snap[0])
							}
						}
						for _, c := range conflicts {
							got := Window(a, rb, cut, max, last, c)
							want := refWindow(a, rb, cut, max, last, c)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("size %d fill %d b %v max %d cut %d conflict %+v:\n got %+v\nwant %+v",
									size, fillA, withB, max, cut, c, got, want)
							}
							cases++
						}
					}
				}
			}
		}
	}
	if cases == 0 {
		t.Fatal("no cases ran")
	}
}

func TestWitnessJSONRoundtrip(t *testing.T) {
	stale := acc(0, 3, 7, false)
	w := Witness{
		Detector: "svd", Seq: 9, CPU: 0, PC: 90, Block: 7, CU: 42,
		Inputs: []int64{7, 8}, Outputs: []int64{9},
		Stale:    &stale,
		Conflict: acc(1, 5, 7, true),
		Window:   []WitnessAccess{acc(0, 3, 7, false), acc(1, 5, 7, true), acc(0, 9, 7, true)},
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back Witness
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, back) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", back, w)
	}
	// The wire names are part of the contract (tooling parses them).
	for _, field := range []string{`"detector"`, `"stale_input"`, `"conflict"`, `"window"`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("marshaled witness missing %s: %s", field, data)
		}
	}
}

func TestGroupWitnessesOrdering(t *testing.T) {
	mk := func(pc, cpc int64) Witness {
		return Witness{Detector: "svd", PC: pc, Conflict: WitnessAccess{PC: cpc}}
	}
	ws := []Witness{mk(10, 20), mk(30, 40), mk(10, 20), mk(10, 20), mk(30, 40), mk(50, 60)}
	groups := GroupWitnesses(ws)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	if groups[0].PC != 10 || groups[0].Count != 3 {
		t.Errorf("top group = %+v", groups[0])
	}
	if groups[1].PC != 30 || groups[1].Count != 2 {
		t.Errorf("second group = %+v", groups[1])
	}
	if groups[2].PC != 50 || groups[2].Count != 1 {
		t.Errorf("third group = %+v", groups[2])
	}
}

// TestWitnessGroupSet: a GroupSet keeps groups in first-seen order with
// the first witness at each pair as the exemplar; Bump changes nothing
// for an unseen pair; a clone is independent of later folds.
func TestWitnessGroupSet(t *testing.T) {
	var s GroupSet
	if s.Bump("svd", 10, 20) || s.Len() != 0 || s.Groups() != nil {
		t.Fatal("empty set bumped an unseen pair")
	}
	first := Witness{Detector: "svd", Seq: 1, PC: 10, Conflict: WitnessAccess{PC: 20}}
	s.Open(first)
	s.Open(Witness{Detector: "frd", Seq: 2, PC: 10, Conflict: WitnessAccess{PC: 20}})
	c := s.Clone()
	if !s.Bump("svd", 10, 20) || !s.Bump("svd", 10, 20) || s.Bump("svd", 20, 10) {
		t.Fatal("Bump disagrees with the open pairs")
	}
	gs := s.Groups()
	if len(gs) != 2 || gs[0].Count != 3 || gs[0].First.Seq != first.Seq || gs[1].Detector != "frd" || gs[1].Count != 1 {
		t.Fatalf("groups = %+v", gs)
	}
	if cg := c.Groups(); len(cg) != 2 || cg[0].Count != 1 {
		t.Fatalf("clone followed later bumps: %+v", cg)
	}
	// RankGroups sorts a copy: the set keeps first-seen order.
	if r := RankGroups(gs); r[0].Count != 3 || s.Groups()[1].Detector != "frd" {
		t.Fatalf("ranked %+v from %+v", r, s.Groups())
	}
}

func TestRenderForensicReport(t *testing.T) {
	stale := acc(1, 3, 7, false)
	ws := []Witness{{
		Detector: "svd", Seq: 9, CPU: 1, PC: 90, Block: 7, CU: 42,
		Inputs: []int64{7}, Stale: &stale,
		Conflict: acc(0, 5, 7, true),
		Window:   []WitnessAccess{acc(1, 3, 7, false), acc(0, 5, 7, true), {CPU: 1, PC: 90, Block: 7, Write: true, Seq: 9}},
	}}
	out := RenderForensicReport(GroupWitnesses(ws), ForensicOptions{
		Sym:      func(b int64) string { return "shared_var" },
		Annotate: func(g WitnessGroup) string { return "examiner: note" },
	})
	for _, want := range []string{
		"1 witnesses at 1 site pairs",
		"serializability violation",
		"shared_var",
		"victim CU 42",
		"stale input",
		"<- conflicting access",
		"<- reports here",
		"examiner: note",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// FRD witnesses render as data races.
	frd := []WitnessGroup{{Detector: "frd", PC: 90, ConflictPC: 5, Count: 4,
		First: Witness{Detector: "frd", Seq: 9, CPU: 1, PC: 90, Block: 7, Conflict: acc(0, 5, 7, true)}}}
	if out := RenderForensicReport(frd, ForensicOptions{}); !strings.Contains(out, "data race") {
		t.Errorf("frd witness not rendered as data race:\n%s", out)
	}
	// The header counts every folded report, not just the exemplars.
	if out := RenderForensicReport(frd, ForensicOptions{}); !strings.HasPrefix(out, "forensic report: 4 witnesses at 1 site pairs\n") {
		t.Errorf("header does not sum the group counts:\n%s", out)
	}
}

func TestRecorderWitnessTrace(t *testing.T) {
	sink := NewSink(SinkOptions{Tracing: true})
	r := sink.NewRecorder("s")
	w := Witness{
		Detector: "svd", Seq: 9, CPU: 1, PC: 90, Block: 7,
		Conflict: acc(0, 5, 7, true),
		Window:   []WitnessAccess{acc(0, 5, 7, true)},
	}
	r.Witness(&w)
	r.Witness(&w)
	r.Flush()

	if got := sink.Metrics().Witnesses; got != 2 {
		t.Fatalf("Witnesses counter = %d, want 2", got)
	}
	tr := sink.Trace()
	// Exactly one instant event per counted witness.
	if got := tr.CountName("witness"); got != 2 {
		t.Fatalf("witness instants = %d, want 2", got)
	}
	var starts, ends int
	for _, e := range tr.Events() {
		if e.Name != "witness_flow" {
			continue
		}
		switch e.Ph {
		case PhaseFlowStart:
			starts++
			if e.TS != w.Conflict.Seq || e.TID != int64(w.Conflict.CPU) {
				t.Errorf("flow start at ts=%d tid=%d, want conflict ts=%d tid=%d", e.TS, e.TID, w.Conflict.Seq, w.Conflict.CPU)
			}
		case PhaseFlowEnd:
			ends++
			if e.TS != w.Seq || e.TID != int64(w.CPU) {
				t.Errorf("flow end at ts=%d tid=%d, want report ts=%d tid=%d", e.TS, e.TID, w.Seq, w.CPU)
			}
		}
		if e.ID == 0 {
			t.Error("flow event with zero id")
		}
	}
	if starts != 2 || ends != 2 {
		t.Fatalf("flow events: %d starts, %d ends, want 2 each", starts, ends)
	}

	// A nil recorder swallows witnesses safely.
	var nr *Recorder
	nr.Witness(&w)

	// The flow id must appear in the serialized JSON with the binding point.
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"bp":"e"`) {
		t.Error("flow end missing binding point in JSON")
	}
	if !strings.Contains(sb.String(), `"id":`) {
		t.Error("flow events missing id in JSON")
	}
}
