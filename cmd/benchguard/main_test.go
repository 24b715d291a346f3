package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestParseBench: minima for ns/op, maxima for allocs/op, GOMAXPROCS
// suffix stripped, custom metrics between ns/op and the -benchmem
// columns tolerated.
func TestParseBench(t *testing.T) {
	out := `
goos: linux
BenchmarkHotPathSVDStep-8   	19741086	        60.93 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotPathSVDStep-8   	20000000	        58.10 ns/op	       8 B/op	       1 allocs/op
BenchmarkServerIngest/shards=2-8	     100	  13300000 ns/op	   8470000 events/sec	    1024 B/op	       3 allocs/op
BenchmarkWireEncode 	    2000	    449634 ns/op
PASS
`
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	svd := got["BenchmarkHotPathSVDStep"]
	if svd.NS != 58.10 {
		t.Errorf("ns minimum: got %v, want 58.10", svd.NS)
	}
	if !svd.HasAllocs || svd.Allocs != 1 {
		t.Errorf("allocs maximum: got %+v, want 1 (the noisier repeat)", svd)
	}
	ingest := got["BenchmarkServerIngest/shards=2"]
	if ingest.NS != 13300000 || !ingest.HasAllocs || ingest.Allocs != 3 {
		t.Errorf("custom-metric line misparsed: %+v", ingest)
	}
	enc := got["BenchmarkWireEncode"]
	if enc.HasAllocs {
		t.Errorf("line without -benchmem claimed allocs: %+v", enc)
	}
}

// TestEntryRoundTrip: plain-number entries stay plain, object entries
// keep tolerance and ceiling through a marshal/unmarshal cycle.
func TestEntryRoundTrip(t *testing.T) {
	ceiling := 0.0
	in := map[string]entry{
		"plain":  {NS: 42},
		"tuned":  {NS: 31.09, Tolerance: 0.2},
		"capped": {NS: 100, Tolerance: 0.3, Allocs: &ceiling},
	}
	data, err := marshalSorted(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"plain": 42`) {
		t.Errorf("plain entry did not stay a bare number:\n%s", data)
	}
	var out map[string]entry
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out["tuned"].Tolerance != 0.2 {
		t.Errorf("tolerance lost: %+v", out["tuned"])
	}
	c := out["capped"]
	if c.Allocs == nil || *c.Allocs != 0 || c.Tolerance != 0.3 {
		t.Errorf("ceiling lost: %+v", c)
	}
}

// TestEntryMaxNSRoundTrip: a max_ns ceiling marshals as an object (even
// alone), survives the round trip, and -record's merge preserves it
// while re-measuring ns.
func TestEntryMaxNSRoundTrip(t *testing.T) {
	in := map[string]entry{
		"pinned": {NS: 23.9, MaxNS: 25},
	}
	data, err := marshalSorted(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"max_ns":25`) {
		t.Errorf("max_ns missing from marshaled entry:\n%s", data)
	}
	var out map[string]entry
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if p := out["pinned"]; p.MaxNS != 25 || p.NS != 23.9 {
		t.Errorf("ceiling lost in round trip: %+v", p)
	}

	// The -record merge path: measured ns replaces the baseline, the
	// ceiling is policy and must ride along untouched.
	e := out["pinned"]
	e.NS = 24.4
	if e.MaxNS != 25 {
		t.Errorf("merge dropped the ceiling: %+v", e)
	}
}

// TestCheckMaxNS: under the ceiling passes, over it regresses, entries
// without one pass silently. No tolerance applies.
func TestCheckMaxNS(t *testing.T) {
	cases := []struct {
		name          string
		got           float64
		base          entry
		wantRegressed bool
	}{
		{"under", 23.9, entry{NS: 23, MaxNS: 25}, false},
		{"exact", 25, entry{NS: 23, MaxNS: 25}, false},
		{"over", 25.01, entry{NS: 23, MaxNS: 25}, true},
		{"no-ceiling", 1e9, entry{NS: 23}, false},
	}
	for _, tc := range cases {
		note, regressed := checkMaxNS(measurement{NS: tc.got}, tc.base, 0, 1)
		if regressed != tc.wantRegressed {
			t.Errorf("%s: regressed=%v (%s), want %v", tc.name, regressed, note, tc.wantRegressed)
		}
		if tc.base.MaxNS == 0 && note != "" {
			t.Errorf("%s: entry without a ceiling must pass silently, got %q", tc.name, note)
		}
	}
}

// TestEntryRelativeBound: over/ratio survive the round trip, and an
// entry with only a relative bound still marshals as an object.
func TestEntryRelativeBound(t *testing.T) {
	ceiling := 0.0
	in := map[string]entry{
		"rel": {NS: 200, Allocs: &ceiling, Over: "BenchmarkBase", Ratio: 0.03},
	}
	data, err := marshalSorted(in)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]entry
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	r := out["rel"]
	if r.Over != "BenchmarkBase" || r.Ratio != 0.03 || r.Allocs == nil {
		t.Errorf("relative bound lost in round trip: %+v", r)
	}
}

// TestCheckRelative exercises the got-vs-reference bound the guard
// applies: within budget passes, over budget regresses, and a missing
// reference is a failure, not a silent skip.
func TestCheckRelative(t *testing.T) {
	base := entry{Over: "BenchmarkBase", Ratio: 0.03}
	cases := []struct {
		name          string
		measured      map[string]measurement
		wantOK        bool
		wantRegressed bool
	}{
		{"within", map[string]measurement{"BenchmarkBase": {NS: 100}, "BenchmarkRel": {NS: 102}}, true, false},
		{"exceeds", map[string]measurement{"BenchmarkBase": {NS: 100}, "BenchmarkRel": {NS: 104}}, false, true},
		{"missing-ref", map[string]measurement{"BenchmarkRel": {NS: 102}}, false, false},
	}
	for _, tc := range cases {
		note, ok, regressed := checkRelative(tc.measured["BenchmarkRel"], base, tc.measured, 1)
		if ok != tc.wantOK || regressed != tc.wantRegressed {
			t.Errorf("%s: ok=%v regressed=%v (%s), want ok=%v regressed=%v",
				tc.name, ok, regressed, note, tc.wantOK, tc.wantRegressed)
		}
	}
	if note, ok, _ := checkRelative(measurement{NS: 5}, entry{}, nil, 1); !ok || note != "" {
		t.Errorf("entry without a bound must pass silently, got ok=%v note=%q", ok, note)
	}
}

// TestDriftFactor pins the clamp: a faster host gets no slack, drift
// scales linearly up to 1.5x, and degenerate probe readings neutralize
// to 1.
func TestDriftFactor(t *testing.T) {
	cases := []struct {
		host, recorded, want float64
	}{
		{0.8, 1.0, 1.0}, // faster host never tightens
		{1.0, 1.0, 1.0}, // same speed
		{1.2, 1.0, 1.2}, // 20% slower host: the flake this exists for
		{3.0, 1.0, 1.5}, // clamp ceiling
		{0, 1.0, 1.0},   // probe failed
		{1.0, 0, 1.0},   // baseline has no probe reading
	}
	for _, tc := range cases {
		if got := driftFactor(tc.host, tc.recorded); got != tc.want {
			t.Errorf("driftFactor(%v, %v) = %v, want %v", tc.host, tc.recorded, got, tc.want)
		}
	}
}

// TestCheckMaxNSDrift: the 25 ns ceiling scaled by a 20%-slower host
// admits 28 ns but still rejects 31 ns — the exact flake scenario the
// calibration probe exists to absorb, without loosening the pinned
// budget on an equal-speed host.
func TestCheckMaxNSDrift(t *testing.T) {
	base := entry{NS: 23.8, MaxNS: 25}
	if _, regressed := checkMaxNS(measurement{NS: 28}, base, 0, 1.2); regressed {
		t.Error("28 ns over a 25*1.2=30 ns drifted ceiling flagged as regression")
	}
	if _, regressed := checkMaxNS(measurement{NS: 31}, base, 0, 1.2); !regressed {
		t.Error("31 ns under a 30 ns drifted ceiling passed")
	}
	if _, regressed := checkMaxNS(measurement{NS: 25.01}, base, 0, 1); !regressed {
		t.Error("drift 1 must keep the pinned ceiling exact")
	}
}

// TestCheckRelativeDrift: the 3% telemetry budget scales with drift the
// same way — 4% overhead passes on a 1.5x-drifted host (budget 4.5%)
// and still fails at drift 1.
func TestCheckRelativeDrift(t *testing.T) {
	base := entry{Over: "BenchmarkBase", Ratio: 0.03}
	measured := map[string]measurement{
		"BenchmarkBase": {NS: 100},
		"BenchmarkRel":  {NS: 104},
	}
	if _, ok, regressed := checkRelative(measured["BenchmarkRel"], base, measured, 1.5); !ok || regressed {
		t.Error("4% overhead over a 4.5% drifted budget failed")
	}
	if _, ok, regressed := checkRelative(measured["BenchmarkRel"], base, measured, 1); ok || !regressed {
		t.Error("4% overhead over the exact 3% budget passed")
	}
}

// TestRecordWritesCalibration: -record stores the probe reading under
// the reserved key and refreshes it on re-record, while the reserved
// key never collides with parsed benchmarks.
func TestRecordWritesCalibration(t *testing.T) {
	path := t.TempDir() + "/baseline.json"
	if _, err := recordBaseline(path, map[string]measurement{"BenchmarkX": {NS: 10}}, 1.25); err != nil {
		t.Fatal(err)
	}
	b, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if cal := b[calibrationKey]; cal.NS != 1.25 {
		t.Fatalf("calibration not recorded: %+v", b)
	}
	if b["BenchmarkX"].NS != 10 {
		t.Fatalf("benchmark baseline lost: %+v", b)
	}
	// Re-record on a different host: the probe reading must refresh
	// (it is a measurement, not policy).
	if _, err := recordBaseline(path, map[string]measurement{"BenchmarkX": {NS: 11}}, 0.9); err != nil {
		t.Fatal(err)
	}
	b, err = readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if cal := b[calibrationKey]; cal.NS != 0.9 {
		t.Fatalf("re-record kept the stale calibration: %+v", b[calibrationKey])
	}
}

// TestCalibrationProbe sanity: the probe measures something positive
// and finite, and repeated runs land within the same order of
// magnitude (it times fixed serial work, not the scheduler).
func TestCalibrationProbe(t *testing.T) {
	a, b := calibrationProbe(), calibrationProbe()
	if a <= 0 || b <= 0 {
		t.Fatalf("probe returned nonpositive readings: %v, %v", a, b)
	}
	if ratio := a / b; ratio > 3 || ratio < 1.0/3 {
		t.Errorf("probe readings unstable: %v vs %v", a, b)
	}
}

// TestCheckMaxNSCalNSReference: an entry carrying its own cal_ns pins
// the ceiling's drift to the budget's reference host, overriding the
// file-level recording-host drift — so re-recording baselines on a
// slower machine cannot silently re-anchor the budget.
func TestCheckMaxNSCalNSReference(t *testing.T) {
	base := entry{NS: 30, MaxNS: 25, CalNS: 2.0}
	// Host probe 2.6 vs reference 2.0 -> drift 1.3, ceiling 32.5.
	if _, regressed := checkMaxNS(measurement{NS: 31}, base, 2.6, 1.0); regressed {
		t.Error("31 ns under the 32.5 ns reference-drifted ceiling flagged")
	}
	if _, regressed := checkMaxNS(measurement{NS: 33}, base, 2.6, 1.0); !regressed {
		t.Error("33 ns over the 32.5 ns reference-drifted ceiling passed")
	}
	// Faster host than the reference: clamp to the pinned ceiling.
	if _, regressed := checkMaxNS(measurement{NS: 25.1}, base, 1.5, 1.0); !regressed {
		t.Error("fast host must keep the pinned 25 ns ceiling exact")
	}
	// cal_ns survives the entry round trip and the -record merge.
	data, err := marshalSorted(map[string]entry{"pinned": base})
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]entry
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out["pinned"].CalNS != 2.0 || out["pinned"].MaxNS != 25 {
		t.Errorf("cal_ns lost in round trip: %+v", out["pinned"])
	}
}

// TestUnmeasuredEntriesFail: a baseline entry the run did not measure is
// reported by name (the calibration key excepted), so a deleted
// benchmark cannot leave an unchecked bound behind.
func TestUnmeasuredEntriesFail(t *testing.T) {
	baseline := map[string]entry{
		"BenchmarkKept":     {NS: 10},
		"BenchmarkOrphan":   {NS: 20},
		"BenchmarkAnOrphan": {NS: 30},
		calibrationKey:      {NS: 9.5},
	}
	measured := map[string]measurement{
		"BenchmarkKept": {NS: 10},
		"BenchmarkNew":  {NS: 5}, // no baseline: skipped, not a failure
	}
	got := unmeasured(baseline, measured)
	want := []string{"BenchmarkAnOrphan", "BenchmarkOrphan"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("unmeasured = %v, want %v", got, want)
	}
	measured["BenchmarkOrphan"] = measurement{NS: 20}
	measured["BenchmarkAnOrphan"] = measurement{NS: 30}
	if got := unmeasured(baseline, measured); len(got) != 0 {
		t.Fatalf("fully measured run reported %v", got)
	}
}
