package report

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/workloads"
)

// TestMergeSamplesClonesWitnesses pins the deep copy in MergeSamples: the
// merged digest is handed to concurrent readers (the detection server's
// query surface serves it while shards still publish), so sharing the
// samples' exemplar backing arrays would be a data race. A struct copy
// aliases Inputs/Outputs/Window/Stale; the merge must clone them.
func TestMergeSamplesClonesWitnesses(t *testing.T) {
	stale := &obs.WitnessAccess{CPU: 1, PC: 10, Block: 7, Seq: 3}
	s := &Sample{
		SVDWitnesses: []obs.WitnessGroup{{Detector: "svd", Count: 3, First: obs.Witness{
			Detector: "svd",
			Inputs:   []int64{1, 2, 3},
			Outputs:  []int64{4},
			Window:   []obs.WitnessAccess{{CPU: 0, PC: 5, Block: 1, Seq: 9}},
			Stale:    stale,
		}}},
		FRDWitnesses: []obs.WitnessGroup{{Detector: "frd", Count: 1, First: obs.Witness{
			Detector: "frd",
			Window:   []obs.WitnessAccess{{CPU: 2, PC: 6, Block: 2, Seq: 11}},
		}}},
	}
	m := MergeSamples([]*Sample{s})
	if len(m.Witnesses) != 2 || m.Witnesses[0].Count != 3 {
		t.Fatalf("merged %d groups (%+v), want 2", len(m.Witnesses), m.Witnesses)
	}

	m.Witnesses[0].First.Inputs[0] = -1
	m.Witnesses[0].First.Outputs[0] = -1
	m.Witnesses[0].First.Window[0].PC = -1
	m.Witnesses[0].First.Stale.PC = -1
	m.Witnesses[1].First.Window[0].PC = -1

	w := s.SVDWitnesses[0].First
	if w.Inputs[0] != 1 || w.Outputs[0] != 4 || w.Window[0].PC != 5 || w.Stale.PC != 10 {
		t.Errorf("mutating the merged digest reached the sample's witness: %+v", w)
	}
	if s.FRDWitnesses[0].First.Window[0].PC != 6 {
		t.Errorf("mutating the merged digest reached the FRD witness")
	}
	if stale.PC != 10 {
		t.Errorf("merged digest aliases the Stale pointer")
	}
}

// TestMergeSamplesCap: the digest stays bounded however many witness
// groups the samples carry.
func TestMergeSamplesCap(t *testing.T) {
	many := make([]obs.WitnessGroup, MaxMergedWitnesses)
	s := &Sample{SVDWitnesses: many, FRDWitnesses: many}
	m := MergeSamples([]*Sample{s, s})
	if len(m.Witnesses) != MaxMergedWitnesses {
		t.Errorf("digest holds %d groups, want cap %d", len(m.Witnesses), MaxMergedWitnesses)
	}
}

// mergeTestSamples runs a small violating workload over several seeds
// with witnesses on, so the merged digest's order-sensitive witness fold
// is actually exercised by the property tests below.
func mergeTestSamples(t *testing.T) []*Sample {
	t.Helper()
	wl := workloads.ApacheLog(workloads.ApacheConfig{
		Threads: 4, Requests: 32, Buggy: true, Seed: 3,
	})
	samples, err := RunMany(wl, Seeds(1, 6), Options{Witness: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var witnesses int
	for _, s := range samples {
		witnesses += len(s.SVDWitnesses) + len(s.FRDWitnesses)
	}
	if witnesses == 0 {
		t.Fatal("no witnesses; the property tests need a violating workload")
	}
	return samples
}

func mergedJSON(t *testing.T, samples []*Sample) string {
	t.Helper()
	js, err := json.Marshal(MergeSamples(samples))
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// TestMergeSamplesOrderInsensitiveAfterSort is the cluster contract:
// nodes hand the gatherer their samples in arbitrary arrival order, and
// SortSamples + MergeSamples must still produce a byte-identical digest.
// Without the sort the capped witness fold is order-sensitive, so this
// property is exactly what makes a scatter-gather /report comparable
// against a single-process run.
func TestMergeSamplesOrderInsensitiveAfterSort(t *testing.T) {
	samples := mergeTestSamples(t)
	SortSamples(samples)
	want := mergedJSON(t, samples)

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		shuffled := append([]*Sample(nil), samples...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		SortSamples(shuffled)
		if got := mergedJSON(t, shuffled); got != want {
			t.Fatalf("trial %d: shuffled+sorted merge differs from sorted merge", trial)
		}
	}
}

// TestMergeSamplesPartitionInvariant: splitting the sample set into
// per-node partials, concatenating the partials, and sorting before the
// merge yields the same digest as merging the whole set directly — the
// gatherer never needs to know how streams were sharded.
func TestMergeSamplesPartitionInvariant(t *testing.T) {
	samples := mergeTestSamples(t)
	SortSamples(samples)
	want := mergedJSON(t, samples)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		nodes := 1 + rng.Intn(4)
		parts := make([][]*Sample, nodes)
		for _, s := range samples {
			n := rng.Intn(nodes)
			parts[n] = append(parts[n], s)
		}
		var gathered []*Sample
		for _, p := range parts {
			gathered = append(gathered, p...)
		}
		SortSamples(gathered)
		if got := mergedJSON(t, gathered); got != want {
			t.Fatalf("trial %d: %d-way partition merge differs from direct merge", trial, nodes)
		}
	}
}

// TestSortSamplesOrdering pins the sort key — (Workload, Seed), nils
// first — and that sorting is a no-op on already-sorted input.
func TestSortSamplesOrdering(t *testing.T) {
	mk := func(w string, seed uint64) *Sample { return &Sample{Workload: w, Seed: seed} }
	samples := []*Sample{mk("b", 2), nil, mk("a", 9), mk("b", 1), nil, mk("a", 3)}
	SortSamples(samples)
	wantOrder := []*Sample{nil, nil, mk("a", 3), mk("a", 9), mk("b", 1), mk("b", 2)}
	for i, s := range samples {
		w := wantOrder[i]
		if (s == nil) != (w == nil) {
			t.Fatalf("pos %d: nil placement wrong", i)
		}
		if s != nil && (s.Workload != w.Workload || s.Seed != w.Seed) {
			t.Errorf("pos %d: got %s/%d want %s/%d", i, s.Workload, s.Seed, w.Workload, w.Seed)
		}
	}
	before := append([]*Sample(nil), samples...)
	SortSamples(samples)
	for i := range samples {
		if samples[i] != before[i] {
			t.Errorf("re-sorting a sorted slice moved element %d", i)
		}
	}
}

// TestMergeSamplesEmpty: empty and all-nil inputs are no-ops — the
// digest of nothing is the zero value, and nil entries never count.
func TestMergeSamplesEmpty(t *testing.T) {
	for _, in := range [][]*Sample{nil, {}, {nil, nil}} {
		m := MergeSamples(in)
		if m.Samples != 0 || len(m.Witnesses) != 0 {
			t.Errorf("merge of %v counted %d samples, %d witnesses", in, m.Samples, len(m.Witnesses))
		}
	}
	SortSamples(nil) // must not panic
	one := &Sample{Workload: "w", Seed: 1}
	m := MergeSamples([]*Sample{nil, one, nil})
	if m.Samples != 1 {
		t.Errorf("nil entries counted: %d samples, want 1", m.Samples)
	}
}

// TestMergeSamplesScaleTie: one workload and seed at two scales are two
// different samples that agree on (Workload, Seed). Both carry
// witnesses, so if the sort key stopped there their order would stay
// the arrival order and the capped witness fold would differ between
// arrivals. Every permutation of a set containing the pair, merged
// without any caller-side sort, must give byte-identical JSON.
func TestMergeSamplesScaleTie(t *testing.T) {
	var tie []*Sample
	for _, scale := range []int{1, 2} {
		w, err := workloads.ByName("queue-buggy", scale, 3)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Run(w, 3, Options{Witness: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.SVDWitnesses)+len(s.FRDWitnesses) == 0 {
			t.Fatalf("queue-buggy scale %d has no witnesses; the tie would not show", scale)
		}
		tie = append(tie, s)
	}
	if tie[0].Instructions == tie[1].Instructions {
		t.Fatalf("scales 1 and 2 ran the same %d instructions", tie[0].Instructions)
	}
	samples := append(mergeTestSamples(t), tie...)
	samples = append(samples, nil)
	want := mergedJSON(t, samples)

	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 16; trial++ {
		shuffled := append([]*Sample(nil), samples...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if got := mergedJSON(t, shuffled); got != want {
			t.Fatalf("trial %d: merge of a permuted sample set differs", trial)
		}
	}

	pair := []*Sample{tie[1], tie[0]}
	SortSamples(pair)
	if pair[0] != tie[0] {
		t.Errorf("SortSamples kept scale 2 (%d instructions) before scale 1 (%d)", tie[1].Instructions, tie[0].Instructions)
	}
}

// referenceMerge is the merge the digest replaces, kept as its oracle:
// stably sort the whole sample set, sum the counters, and take the
// first MaxMergedWitnesses witness groups in that order, SVD's before
// FRD's within a sample, never combining groups across samples.
func referenceMerge(samples []*Sample) MergedStats {
	samples = append([]*Sample(nil), samples...)
	SortSamples(samples)
	var m MergedStats
	for _, s := range samples {
		if s == nil {
			continue
		}
		m.Samples++
		m.SVD.Add(s.SVDStats)
		m.FRD.Add(s.FRDStats)
		for _, gs := range [][]obs.WitnessGroup{s.SVDWitnesses, s.FRDWitnesses} {
			for _, g := range gs {
				if len(m.Witnesses) < MaxMergedWitnesses {
					m.Witnesses = append(m.Witnesses, g)
				}
			}
		}
	}
	return m
}

// TestDigestMatchesSortedMerge is the digest's spec. Over witness-on
// Table-2 samples, the queue-buggy scale-tie pair, one sample repeated
// (a key tie) and a nil, three computations must give byte-identical
// JSON: folding Add over a random permutation, merging the digests of a
// random partition after each went through JSON (as cluster peers ship
// them), and the sort-then-take-256 reference.
func TestDigestMatchesSortedMerge(t *testing.T) {
	var samples []*Sample
	for _, e := range Table2Workloads(Table2Config{Scale: 1, Samples: 2, Seed: 3}) {
		ss, err := RunMany(e.W, Seeds(3, e.Samples), Options{Witness: true}, 2)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, ss...)
	}
	// Samples carry one group per site pair, not one witness per
	// report; queue-buggy opens about 38 per sample, so eight seeds of
	// it push the total past the cap.
	qb, err := workloads.ByName("queue-buggy", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := RunMany(qb, Seeds(5, 8), Options{Witness: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	samples = append(samples, ss...)
	for _, scale := range []int{1, 2} {
		w, err := workloads.ByName("queue-buggy", scale, 3)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Run(w, 3, Options{Witness: true})
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s)
	}
	samples = append(samples, samples[0], nil)
	var witnesses int
	for _, s := range samples {
		if s != nil {
			witnesses += len(s.SVDWitnesses) + len(s.FRDWitnesses)
		}
	}
	if witnesses <= MaxMergedWitnesses {
		t.Fatalf("only %d witness groups; the cap would not be exercised", witnesses)
	}
	js := func(m MergedStats) string {
		t.Helper()
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := js(referenceMerge(samples))

	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 8; trial++ {
		perm := append([]*Sample(nil), samples...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var d Digest
		for _, s := range perm {
			d.Add(s)
		}
		if len(d.Keys) != len(d.Witnesses) || !sort.SliceIsSorted(d.Keys, func(i, j int) bool { return d.Keys[i].less(d.Keys[j]) }) {
			t.Fatalf("trial %d: %d keys for %d witnesses, or keys out of order", trial, len(d.Keys), len(d.Witnesses))
		}
		if got := js(d.MergedStats); got != want {
			t.Fatalf("trial %d: folding a permutation differs from the sorted merge", trial)
		}

		parts := make([]Digest, 1+rng.Intn(4))
		for _, s := range perm {
			parts[rng.Intn(len(parts))].Add(s)
		}
		var g Digest
		for _, p := range parts {
			b, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			var peer Digest
			if err := json.Unmarshal(b, &peer); err != nil {
				t.Fatal(err)
			}
			g.Merge(peer)
		}
		if got := js(g.MergedStats); got != want {
			t.Fatalf("trial %d: merging %d partition digests differs from the sorted merge", trial, len(parts))
		}
	}
}
