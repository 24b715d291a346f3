// Command benchguard compares `go test -bench` output against a recorded
// baseline and fails when a benchmark regresses beyond tolerance. It is
// the CI guard keeping the detectors' instrumented-but-disabled hot path
// honest: telemetry hooks are supposed to cost one nil check, and this
// tool notices if they start costing more.
//
// Usage:
//
//	go test -run NONE -bench 'BenchmarkHotPath(SVD|FRD)Step$' -count 5 . |
//	    go run ./cmd/benchguard -baseline BENCH_BASELINE.json
//
//	go test -run NONE -bench ... -count 5 . |
//	    go run ./cmd/benchguard -record -baseline BENCH_BASELINE.json
//
// With -record, the measured minima overwrite the baseline file instead of
// being compared. Comparison uses the minimum ns/op across -count repeats
// — the least-noisy stand-in for the true cost on a shared machine.
//
// The baseline maps benchmark names to either a plain ns/op number or an
// object {"ns": N, "tolerance": T, "allocs": A} carrying a per-entry
// tolerance and an optional allocation ceiling. The -tolerance flag is
// the default for plain entries; per-entry values win, which lets one
// file hold tight bounds for stable microbenchmarks next to loose bounds
// for noisier multi-thread sweeps. -record preserves the per-entry
// tolerances and ceilings already in the file.
//
// An "allocs" ceiling is an absolute allocs/op bound (no tolerance —
// allocation counts are deterministic), checked against the MAXIMUM
// across -count repeats: a steady-state-zero benchmark that allocates on
// any repeat is a pooling regression, and the noisiest repeat is the one
// that shows it. Benchmarks carrying a ceiling must be run with
// -benchmem; the guard fails if the ceiling has nothing to check
// against, because a silently unchecked bound is worse than none.
//
// An entry may also carry {"max_ns": M}: an absolute ns/op ceiling,
// independent of the recorded baseline. Where "ns" + tolerance guards
// against drift ("no slower than last time"), max_ns pins a target the
// benchmark must keep meeting in absolute terms — the paper-facing
// budget ("SVD stepping stays under 25 ns/instr") that would otherwise
// erode one in-tolerance regression at a time. Like "allocs" it is
// policy, not measurement: -record re-measures "ns" but never writes or
// loosens a max_ns, and the check compares against the same per-run
// minimum the drift check uses.
//
// Every baseline entry must be measured: an entry the run did not report
// (a deleted or renamed benchmark, a guard regex that stopped matching)
// fails the guard by name, for the same reason.
//
// An entry may also carry {"over": "BenchmarkOther", "ratio": R}: a
// relative bound requiring this benchmark's ns/op to stay within R of
// the named benchmark's measured ns/op in the SAME run (got <= other ×
// (1+R)). Relative bounds express overhead budgets — "telemetry costs
// at most 3% over the untelemetered path" — that absolute baselines
// cannot, because both sides drift with the machine. The reference must
// be measured in the same guard invocation; a missing reference fails,
// same as an uncheckable ceiling.
//
// # Host calibration
//
// Absolute ceilings and tight relative budgets assume the checking host
// runs about as fast as the recording host, which CI cannot promise: a
// ~20% slower or noisier runner pushes a healthy 23.8 ns SVD step over
// its 25 ns ceiling and a 2% telemetry delta over its 3% budget. The
// guard therefore times a deterministic probe on every run — serial
// integer work plus dependent table reads with a cache-hit/miss blend
// like a detector step's, so co-tenant memory contention registers,
// not just clock speed. -record stores the probe's ns under the
// reserved "_calibration" baseline key; at check time the guard
// re-times the probe and derives a drift factor hostNS/recordedNS,
// clamped to [1.0, 1.5]. The factor scales the max_ns ceiling and the
// relative-ratio allowance — a slower host gets proportionally more
// room, never more than 1.5×, and a faster host gets no slack at all
// (the clamp floor keeps a fast machine from tightening the budget
// below what a human pinned). Drift-vs-baseline checks are untouched:
// their recorded ns and the fresh measurement move with the host
// together, and their tolerances already absorb residual noise. The
// "_calibration" entry is a measurement, so -record refreshes it
// alongside the ns baselines it belongs to; max_ns remains policy and
// is still never written. An entry whose budget was pinned on a
// different machine than the baselines can carry {"cal_ns": C}, that
// machine's probe reading: the ceiling's drift is then computed
// against C instead of "_calibration", so the budget keeps meaning
// "the reference machine's 25 ns" wherever the check runs. The
// -calibration-ns flag substitutes a given probe reading (tests,
// reproducing a CI failure locally).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"time"

	"repro/internal/buildinfo"
)

// benchLine matches one benchmark result, e.g.
//
//	BenchmarkHotPathSVDStep-8   19741086   60.93 ns/op   0 B/op   0 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so baselines survive machine moves.
// go test omits the suffix on single-CPU machines, so sub-benchmarks must
// avoid a trailing "-N" of their own (the sweeps use "threads=4" naming);
// otherwise stripping would be ambiguous.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// allocsField matches the -benchmem allocation column, wherever custom
// metrics (events/sec and friends) landed it on the line.
var allocsField = regexp.MustCompile(`\s([0-9]+) allocs/op`)

// entry is one baseline record. Tolerance zero means "use the -tolerance
// flag"; it round-trips as a plain JSON number to keep the common case
// readable. Allocs, when present, is an absolute allocs/op ceiling.
type entry struct {
	NS        float64  `json:"ns"`
	Tolerance float64  `json:"tolerance,omitempty"`
	Allocs    *float64 `json:"allocs,omitempty"`

	// MaxNS, when positive, is an absolute ns/op ceiling checked against
	// the run's minimum — a pinned budget on top of the drift bound.
	MaxNS float64 `json:"max_ns,omitempty"`

	// CalNS, when positive, is the calibration-probe reading of the host
	// MaxNS was pinned on: the ceiling's drift factor is computed against
	// it instead of the file-level "_calibration" entry. Policy, like the
	// ceiling itself — a budget established on one machine keeps meaning
	// "that machine's 25 ns" even after -record refreshes the baselines
	// on a slower one. When the budget predates calibration support,
	// estimate it from a known-good ratio (this host's probe times the
	// reference measurement over this host's measurement).
	CalNS float64 `json:"cal_ns,omitempty"`

	// Over names another benchmark measured in the same run; Ratio is
	// the allowed fractional overhead above it. Both travel together.
	Over  string  `json:"over,omitempty"`
	Ratio float64 `json:"ratio,omitempty"`
}

func (e *entry) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] != '{' {
		e.Tolerance = 0
		return json.Unmarshal(data, &e.NS)
	}
	type plain entry
	return json.Unmarshal(data, (*plain)(e))
}

func (e entry) MarshalJSON() ([]byte, error) {
	if e.Tolerance == 0 && e.Allocs == nil && e.MaxNS == 0 && e.CalNS == 0 && e.Over == "" {
		return json.Marshal(e.NS)
	}
	type plain entry
	return json.Marshal(plain(e))
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_BASELINE.json", "baseline file to compare against (or write with -record)")
		tolerance    = flag.Float64("tolerance", 0.10, "allowed fractional regression over baseline (per-entry tolerances in the file override this)")
		record       = flag.Bool("record", false, "write the measured minima to the baseline instead of comparing")
		calNS        = flag.Float64("calibration-ns", 0, "use this calibration-probe ns/iter instead of measuring (0 = measure)")
		version      = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("benchguard"))
		return
	}

	measured, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(measured) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench` output in)"))
	}

	hostCal := *calNS
	if hostCal <= 0 {
		hostCal = calibrationProbe()
	}

	if *record {
		n, err := recordBaseline(*baselinePath, measured, hostCal)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: recorded %d baselines to %s (calibration %.3f ns)\n", n, *baselinePath, hostCal)
		return
	}

	baseline, err := readBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	drift := 1.0
	if cal, ok := baseline[calibrationKey]; ok && cal.NS > 0 {
		drift = driftFactor(hostCal, cal.NS)
		fmt.Printf("benchguard: calibration probe %.3f ns vs %.3f recorded -> drift factor %.2f on absolute/relative budgets\n",
			hostCal, cal.NS, drift)
	}
	failed := false
	for _, name := range sortedKeys(measured) {
		got := measured[name]
		base, ok := baseline[name]
		if !ok {
			fmt.Printf("benchguard: %-48s %10.2f ns/op  (no baseline, skipped)\n", name, got.NS)
			continue
		}
		tol := *tolerance
		if base.Tolerance > 0 {
			tol = base.Tolerance
		}
		ratio := got.NS/base.NS - 1
		status := "ok"
		if ratio > tol {
			status = "REGRESSION"
			failed = true
		}
		allocNote := ""
		if base.Allocs != nil {
			switch {
			case !got.HasAllocs:
				allocNote = "  allocs UNCHECKED (run with -benchmem)"
				failed = true
			case got.Allocs > *base.Allocs:
				allocNote = fmt.Sprintf("  %.0f allocs/op over ceiling %.0f", got.Allocs, *base.Allocs)
				status = "REGRESSION"
				failed = true
			default:
				allocNote = fmt.Sprintf("  %.0f allocs/op (ceiling %.0f)", got.Allocs, *base.Allocs)
			}
		}
		maxNote, maxRegressed := checkMaxNS(got, base, hostCal, drift)
		if maxRegressed {
			status = "REGRESSION"
			failed = true
		}
		overNote, overOK, overRegressed := checkRelative(got, base, measured, drift)
		if !overOK {
			failed = true
		}
		if overRegressed {
			status = "REGRESSION"
		}
		fmt.Printf("benchguard: %-48s %10.2f ns/op vs %10.2f baseline  %+6.1f%% (tol %2.0f%%)  %s%s%s%s\n",
			name, got.NS, base.NS, ratio*100, tol*100, status, allocNote, maxNote, overNote)
	}
	for _, name := range unmeasured(baseline, measured) {
		fmt.Printf("benchguard: %-48s NOT MEASURED (baseline entry this run did not report; rename or delete it)\n", name)
		failed = true
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchguard: guard failed against %s (see the REGRESSION, UNCHECKED and NOT MEASURED lines)\n", *baselinePath)
		os.Exit(1)
	}
}

// unmeasured lists, sorted, the baseline entries the run did not
// measure. Each is a bound nobody checks — typically a benchmark that
// was deleted or renamed while its entry stayed behind — so the guard
// fails on it rather than skipping it.
func unmeasured(baseline map[string]entry, measured map[string]measurement) []string {
	var out []string
	for name := range baseline {
		if _, ok := measured[name]; !ok && name != calibrationKey {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// calibrationKey is the reserved baseline entry holding the recording
// host's calibration-probe reading. It cannot collide with a benchmark:
// parseBench only produces names starting with "Benchmark".
const calibrationKey = "_calibration"

// calProbeIters sizes the calibration probe: a few milliseconds of
// serial work per repeat, long enough to amortize timer overhead,
// short enough that five repeats cost nothing next to the benchmarks
// being guarded.
const calProbeIters = 1 << 22

// The probe's two working sets. The guarded step benchmarks are bound
// by table walks (block maps, CU arenas) that mostly hit cache with a
// tail of deeper misses; on a shared machine their dominant noise
// source is cache and memory-bandwidth contention from co-tenants,
// which a register-only loop is completely blind to (measured: a
// stable 2.5 ns ALU probe while the SVD step swung 28→40 ns under
// co-tenant load). The small table stays L1-resident like the hot
// block map; the big table spills the per-core caches so one read in
// eight sees the contended shared levels, roughly the hit/miss blend
// of a detector step.
const (
	calProbeSmall = 1 << 10 // uint64s = 8 KiB, always read
	calProbeBig   = 1 << 20 // uint64s = 8 MiB, read every 8th iter
)

// calSink defeats dead-code elimination of the probe loop.
var calSink uint64

// calibrationProbe times a fixed, deterministic mix of integer work
// (the splitmix64 finalizer) and dependent table reads — every
// iteration from an L1-resident table, every eighth from an 8 MiB one
// — returning ns per iteration: a stand-in for the host's serial speed
// on the cache-mostly access pattern the guarded detector-step
// benchmarks actually have. MEDIAN of seven repeats, unlike the
// benchmarks' minimum: the drift factor divides two probe readings
// taken minutes or machines apart, and a minimum is exactly the
// statistic that lands on one lucky quiet scheduling window — the
// median moves with the host's sustained speed, which is what the
// scaled budgets need.
func calibrationProbe() float64 {
	small := make([]uint64, calProbeSmall)
	big := make([]uint64, calProbeBig)
	for i := range big {
		big[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	for i := range small {
		small[i] = uint64(i) * 0xFF51AFD7ED558CCD
	}
	const reps = 7
	var runs [reps]float64
	for rep := 0; rep < reps; rep++ {
		x := uint64(0x9E3779B97F4A7C15) + calSink
		start := time.Now()
		for i := 0; i < calProbeIters; i++ {
			x ^= x >> 33
			x *= 0xFF51AFD7ED558CCD
			x ^= x >> 29
			// Dependent loads: the index derives from the running hash, so
			// reads serialize behind the memory system like a table walk.
			x += small[x&(calProbeSmall-1)]
			if i&7 == 0 {
				x += big[x&(calProbeBig-1)]
			}
		}
		runs[rep] = float64(time.Since(start).Nanoseconds()) / calProbeIters
		calSink = x
	}
	sort.Float64s(runs[:])
	return runs[reps/2]
}

// driftFactor converts a host/recorded probe ratio into the multiplier
// applied to absolute ceilings and relative budgets. Clamped to [1, 1.5]:
// a faster host never tightens a human-pinned budget, and a host more
// than 50% slower is too far from the recording machine for scaled
// budgets to mean anything — at that point the run should fail loudly.
func driftFactor(hostNS, recordedNS float64) float64 {
	if hostNS <= 0 || recordedNS <= 0 {
		return 1
	}
	d := hostNS / recordedNS
	if d < 1 {
		return 1
	}
	if d > 1.5 {
		return 1.5
	}
	return d
}

// checkMaxNS applies an entry's absolute ns/op ceiling, scaled by the
// host drift factor — the entry's own cal_ns reference when it has one,
// the file-level recording-host drift otherwise. Unlike the drift bound
// it has no tolerance: the ceiling is the budget, and any headroom
// belongs in the number a human recorded, not in a multiplier — drift
// only compensates for the checking host being measurably slower than
// the host the budget refers to.
func checkMaxNS(got measurement, base entry, hostCal, drift float64) (note string, regressed bool) {
	if base.CalNS > 0 {
		drift = driftFactor(hostCal, base.CalNS)
	}
	ceiling := base.MaxNS * drift
	switch {
	case base.MaxNS <= 0:
		return "", false
	case got.NS > ceiling:
		return fmt.Sprintf("  %.2f ns/op over the absolute %.2f ceiling (%.2f pinned x%.2f drift)",
			got.NS, ceiling, base.MaxNS, drift), true
	default:
		return fmt.Sprintf("  within the absolute %.2f ceiling (%.2f pinned x%.2f drift)",
			ceiling, base.MaxNS, drift), false
	}
}

// checkRelative applies an entry's over/ratio bound against the run's
// own measurements, with the allowance scaled by the host drift factor
// (a noisier host blurs the small deltas these budgets meter). ok is
// false when the bound failed or could not be checked; regressed marks
// the former (a real overshoot, not a missing reference).
func checkRelative(got measurement, base entry, measured map[string]measurement, drift float64) (note string, ok, regressed bool) {
	if base.Over == "" {
		return "", true, false
	}
	allowed := base.Ratio * drift
	ref, refOK := measured[base.Over]
	switch {
	case !refOK:
		return fmt.Sprintf("  relative bound UNCHECKED (%s not in this run)", base.Over), false, false
	case got.NS > ref.NS*(1+allowed):
		return fmt.Sprintf("  %+.1f%% over %s exceeds the %.1f%% budget",
			(got.NS/ref.NS-1)*100, base.Over, allowed*100), false, true
	default:
		return fmt.Sprintf("  %+.1f%% over %s (budget %.1f%%)",
			(got.NS/ref.NS-1)*100, base.Over, allowed*100), true, false
	}
}

// measurement is one benchmark's digest across -count repeats: the
// minimum ns/op (least scheduling noise) and, under -benchmem, the
// maximum allocs/op (an allocation on any repeat is real).
type measurement struct {
	NS        float64
	Allocs    float64
	HasAllocs bool
}

// parseBench folds go test -bench output into per-name measurements.
func parseBench(f io.Reader) (map[string]measurement, error) {
	out := map[string]measurement{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		cur, seen := out[m[1]]
		if !seen || ns < cur.NS {
			cur.NS = ns
		}
		if a := allocsField.FindStringSubmatch(line); a != nil {
			allocs, err := strconv.ParseFloat(a[1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", line, err)
			}
			if !cur.HasAllocs || allocs > cur.Allocs {
				cur.Allocs = allocs
			}
			cur.HasAllocs = true
		}
		out[m[1]] = cur
	}
	return out, sc.Err()
}

func readBaseline(path string) (map[string]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline %s: %w (run with -record to create it)", path, err)
	}
	var out map[string]entry
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return out, nil
}

// recordBaseline writes the measured minima, carrying forward any
// per-entry tolerances and allocation ceilings (and entries for
// benchmarks not in this run) from an existing baseline file. Ceilings
// are policy, not measurements, so -record never invents or tightens
// one — it only preserves what a human wrote. The calibration probe is
// a measurement, so it IS refreshed: the recorded ns baselines and the
// recorded probe must come from the same host for the drift factor to
// mean anything.
func recordBaseline(path string, measured map[string]measurement, hostCal float64) (int, error) {
	merged := map[string]entry{}
	if prev, err := readBaseline(path); err == nil {
		merged = prev
	}
	for name, m := range measured {
		e := merged[name] // keeps the prior tolerance/ceiling, zero for new entries
		e.NS = m.NS
		merged[name] = e
	}
	merged[calibrationKey] = entry{NS: hostCal}
	data, err := marshalSorted(merged)
	if err != nil {
		return 0, err
	}
	return len(merged), os.WriteFile(path, data, 0o644)
}

// marshalSorted renders the baseline with stable key order, one entry per
// line, so -record produces reviewable diffs.
func marshalSorted(m map[string]entry) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("{\n")
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		v, err := json.Marshal(m[k])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&buf, "  %q: %s", k, v)
		if i < len(keys)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	return buf.Bytes(), nil
}

func sortedKeys(m map[string]measurement) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
