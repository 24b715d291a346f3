package report

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/frd"
	"repro/internal/obs"
	"repro/internal/svd"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestRunManyWitnesses drives the parallel runner with the flight recorder
// on: every sample's witness groups must pair with its detector stats —
// one exemplar counted per group, group counts summing to the reports —
// the merged digest must fold them (capped), and the samples must
// serialize with the wire field names tooling parses. Exercised under
// -race in CI.
func TestRunManyWitnesses(t *testing.T) {
	wl := workloads.ApacheLog(workloads.ApacheConfig{
		Threads: 4, Requests: 48, Buggy: true, Seed: 3,
	})
	seeds := Seeds(11, 6)
	samples, err := RunMany(wl, seeds, Options{Witness: true}, 4)
	if err != nil {
		t.Fatal(err)
	}

	var total int
	for i, s := range samples {
		if uint64(len(s.SVDWitnesses)) != s.SVDStats.Witnesses {
			t.Errorf("sample %d: %d svd witnesses, stats say %d", i, len(s.SVDWitnesses), s.SVDStats.Witnesses)
		}
		if uint64(len(s.FRDWitnesses)) != s.FRDStats.Witnesses {
			t.Errorf("sample %d: %d frd witnesses, stats say %d", i, len(s.FRDWitnesses), s.FRDStats.Witnesses)
		}
		if n := countSum(s.SVDWitnesses); n != s.SVDStats.Violations {
			t.Errorf("sample %d: svd group counts sum to %d, violations = %d", i, n, s.SVDStats.Violations)
		}
		if n := countSum(s.FRDWitnesses); n != s.FRDStats.Races {
			t.Errorf("sample %d: frd group counts sum to %d, races = %d", i, n, s.FRDStats.Races)
		}
		total += len(s.SVDWitnesses) + len(s.FRDWitnesses)
	}
	if total == 0 {
		t.Fatal("no witnesses across any sample; the test needs violating runs")
	}

	m := MergeSamples(samples)
	wantMerged := total
	if wantMerged > MaxMergedWitnesses {
		wantMerged = MaxMergedWitnesses
	}
	if len(m.Witnesses) != wantMerged {
		t.Errorf("merged digest holds %d witnesses, want %d (cap %d)", len(m.Witnesses), wantMerged, MaxMergedWitnesses)
	}

	data, err := json.Marshal(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(samples[0].SVDWitnesses) > 0 {
		for _, field := range []string{`"svd_witnesses"`, `"conflict_pc"`, `"count"`, `"first"`} {
			if !strings.Contains(string(data), field) {
				t.Errorf("sample JSON missing %s field", field)
			}
		}
	}
}

// countSum adds up the report counts of a sample's witness groups.
func countSum(gs []obs.WitnessGroup) uint64 {
	var n uint64
	for _, g := range gs {
		n += uint64(g.Count)
	}
	return n
}

// TestRunWitnessOffByDefault: without the option samples carry no
// witnesses and serialize without the fields (omitempty).
func TestRunWitnessOffByDefault(t *testing.T) {
	wl := workloads.ApacheLog(workloads.ApacheConfig{
		Threads: 4, Requests: 48, Buggy: true, Seed: 3,
	})
	s, err := Run(wl, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.SVDWitnesses != nil || s.FRDWitnesses != nil {
		t.Errorf("witnesses collected by default: svd=%d frd=%d", len(s.SVDWitnesses), len(s.FRDWitnesses))
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "witnesses") {
		t.Error("default sample JSON mentions witnesses; fields must be omitempty")
	}
}

// TestWitnessGroupsMatchEveryWitness is the oracle for exemplar folding.
// On every Table 2 workload, the groups a served detector keeps —
// witnesses on, no flat list, fed through StepColumns at batch chops of
// 1, 7, the default cap and the whole trace — must equal GroupWitnesses
// over the flat list a per-event WitnessAll run assembles, one witness
// per report. They must also keep the flat list's first-seen order,
// which the Sample carries.
func TestWitnessGroupsMatchEveryWitness(t *testing.T) {
	const scale, seed = 1, 1
	var total int
	for name, build := range workloads.Registry(scale, seed) {
		w := build()
		t.Run(name, func(t *testing.T) {
			evs := recordEvents(t, w, seed)
			sd := svd.New(w.Prog, w.NumThreads, svd.Options{Witness: true, WitnessAll: true})
			fd := frd.New(w.Prog, w.NumThreads, frd.Options{Witness: true, WitnessAll: true})
			for i := range evs {
				sd.Step(&evs[i])
				fd.Step(&evs[i])
			}
			if uint64(len(sd.AllWitnesses())) != sd.Stats().Violations || uint64(len(fd.AllWitnesses())) != fd.Stats().Races {
				t.Fatalf("flat lists hold %d/%d witnesses for %d violations and %d races",
					len(sd.AllWitnesses()), len(fd.AllWitnesses()), sd.Stats().Violations, fd.Stats().Races)
			}
			all := map[string][]obs.Witness{"svd": sd.AllWitnesses(), "frd": fd.AllWitnesses()}
			total += len(all["svd"]) + len(all["frd"])
			for _, k := range []int{1, 7, vm.DefaultBatchCap, len(evs)} {
				csd := svd.New(w.Prog, w.NumThreads, svd.Options{Witness: true})
				cfd := frd.New(w.Prog, w.NumThreads, frd.Options{Witness: true})
				eb := vm.NewEventBatch(min(k, len(evs)))
				for i := 0; i < len(evs); i += k {
					eb.Reset()
					for j := i; j < min(i+k, len(evs)); j++ {
						eb.Append(&evs[j])
					}
					csd.StepColumns(eb)
					cfd.StepColumns(eb)
				}
				if csd.AllWitnesses() != nil || cfd.AllWitnesses() != nil {
					t.Fatalf("chop %d: served detectors kept a flat witness list", k)
				}
				for det, got := range map[string][]obs.WitnessGroup{"svd": csd.WitnessGroups(), "frd": cfd.WitnessGroups()} {
					if want := obs.GroupWitnesses(all[det]); !reflect.DeepEqual(obs.RankGroups(got), want) {
						t.Fatalf("chop %d: %s groups differ from GroupWitnesses over every witness:\n got %+v\nwant %+v", k, det, obs.RankGroups(got), want)
					}
					var ref obs.GroupSet
					for _, wit := range all[det] {
						if !ref.Bump(wit.Detector, wit.PC, wit.Conflict.PC) {
							ref.Open(wit)
						}
					}
					if !reflect.DeepEqual(got, ref.Groups()) {
						t.Fatalf("chop %d: %s groups are not in first-seen order", k, det)
					}
				}
			}
		})
	}
	if total == 0 {
		t.Fatal("no workload reported anything; the oracle is vacuous")
	}
}
