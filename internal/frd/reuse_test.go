package frd

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// reusePrefix bounds each recorded execution the reuse differential
// replays, as in svd's.
const reusePrefix = 25000

// recordPrefix runs a registry workload at scale 1 and returns the first
// reusePrefix events of the execution as one columnar batch.
func recordPrefix(t *testing.T, name string, seed uint64) (*workloads.Workload, *vm.EventBatch) {
	t.Helper()
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.NewVM(seed)
	if err != nil {
		t.Fatal(err)
	}
	all := vm.NewEventBatch(reusePrefix)
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		for i := 0; i < eb.Len() && all.Len() < reusePrefix; i++ {
			all.AppendRaw(eb.Seq[i], eb.CPU[i], eb.PC[i], eb.Flags[i], eb.Addr[i])
		}
	}))
	if _, err := m.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	return w, all
}

// stepChopped feeds eb to d in batches of chop rows (0: one batch), with
// every PC folded into a program of codeLen instructions (a no-op for
// the program's own executions).
func stepChopped(d *Detector, eb *vm.EventBatch, chop, codeLen int) {
	if chop <= 0 {
		chop = eb.Len()
	}
	part := vm.NewEventBatch(chop)
	for lo := 0; lo < eb.Len(); lo += chop {
		part.Reset()
		for i := lo; i < min(lo+chop, eb.Len()); i++ {
			part.AppendRaw(eb.Seq[i], eb.CPU[i], eb.PC[i]%int64(codeLen), eb.Flags[i], eb.Addr[i])
		}
		d.StepColumns(part)
	}
}

// frdOutputs is everything a run leaves for its report.
type frdOutputs struct {
	Races    []Race
	Groups   []obs.WitnessGroup
	All      []obs.Witness
	Sites    []Site
	Stats    Stats
	BatchErr error
}

func outputsOf(d *Detector) frdOutputs {
	return frdOutputs{d.Races(), d.WitnessGroups(), d.AllWitnesses(), d.Sites(), d.Stats(), d.BatchErr()}
}

// TestResetMatchesFresh is svd's reuse differential for FRD: per
// registry workload, in rotating order, and per witness mode, one
// detector — never rebuilt — runs a foreign execution folded into its
// program and another execution of its own, is reset, and must then
// match a new detector on the target execution at every chop. A
// SyncBlocks annotation rides along, so Reset must re-apply it.
func TestResetMatchesFresh(t *testing.T) {
	names := workloads.Names()
	type recording struct {
		w             *workloads.Workload
		target, other *vm.EventBatch
	}
	recs := make([]recording, len(names))
	for i, name := range names {
		w, target := recordPrefix(t, name, 1)
		_, other := recordPrefix(t, name, 7)
		recs[i] = recording{w, target, other}
	}
	modes := []Options{{}, {Witness: true}, {Witness: true, WitnessAll: true}}
	chops := []int{1, 7, vm.DefaultBatchCap, 0}
	for i, rec := range recs {
		w, codeLen := rec.w, len(rec.w.Prog.Code)
		for m, opts := range modes {
			opts.SyncBlocks = []int64{int64(i)}
			reused := New(w.Prog, w.NumThreads, opts)
			for c, chop := range chops {
				foreign := recs[(i+1+m+c)%len(recs)].target
				stepChopped(reused, foreign, chops[(c+1)%len(chops)], codeLen)
				stepChopped(reused, rec.other, chops[(c+2)%len(chops)], codeLen)
				reused.Reset()
				stepChopped(reused, rec.target, chop, codeLen)
				fresh := New(w.Prog, w.NumThreads, opts)
				stepChopped(fresh, rec.target, chop, codeLen)
				got, want := outputsOf(reused), outputsOf(fresh)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s mode %d chop %d: reset detector diverges from a new one\ngot  %+v\nwant %+v",
						w.Name, m, chop, got.Stats, want.Stats)
				}
			}
		}
	}
}
