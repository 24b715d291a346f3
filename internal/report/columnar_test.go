package report

import (
	"reflect"
	"testing"

	"repro/internal/frd"
	"repro/internal/svd"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The columnar fast path (svd/frd StepColumns) must be bit-identical to
// per-event Step no matter where batch boundaries fall. The chopping
// schemes below are chosen to be adversarial: size 1 makes every batch
// a degenerate run, size 7 lands boundaries mid-run of same-thread
// events, the default cap reproduces production batch geometry, and
// the cpu-switch chop aligns batch boundaries exactly with thread
// switches so each run spans a whole batch. Run under -race this also
// shakes out any accidental sharing through the reused EventBatch.

// chopFixed splits evs into columnar batches of at most n rows.
func chopFixed(evs []vm.Event, n int) []*vm.EventBatch {
	var batches []*vm.EventBatch
	for len(evs) > 0 {
		k := n
		if k > len(evs) {
			k = len(evs)
		}
		eb := vm.NewEventBatch(k)
		for i := 0; i < k; i++ {
			eb.Append(&evs[i])
		}
		batches = append(batches, eb)
		evs = evs[k:]
	}
	return batches
}

// chopAtSwitches starts a new batch whenever the executing thread
// changes (capped at the default batch size), so every batch is one
// same-thread run.
func chopAtSwitches(evs []vm.Event) []*vm.EventBatch {
	var batches []*vm.EventBatch
	var eb *vm.EventBatch
	for i := range evs {
		if eb == nil || eb.Len() >= vm.DefaultBatchCap ||
			(eb.Len() > 0 && int(eb.CPU[eb.Len()-1]) != evs[i].CPU) {
			eb = vm.NewEventBatch(64)
			batches = append(batches, eb)
		}
		eb.Append(&evs[i])
	}
	return batches
}

// detectorOutputs collects everything a finished detector pair exposes.
type detectorOutputs struct {
	Sample       *Sample
	SVDViolation []svd.Violation
	SVDLog       []svd.LogEntry
}

func finish(t *testing.T, w *workloads.Workload, seed uint64, sd *svd.Detector, fd *frd.Detector) detectorOutputs {
	t.Helper()
	sd.FlushObs()
	fd.FlushObs()
	return detectorOutputs{
		Sample:       Classify(w, seed, sd, fd),
		SVDViolation: sd.Violations(),
		SVDLog:       sd.Log(),
	}
}

// TestColumnarDifferential feeds every registry workload through the
// per-event path and through StepColumns under each chopping scheme,
// and requires identical violations, witnesses, sites, logs and stats.
func TestColumnarDifferential(t *testing.T) {
	const scale, seed = 1, 1
	for name, build := range workloads.Registry(scale, seed) {
		w := build()
		t.Run(name, func(t *testing.T) {
			m, err := w.NewVM(seed)
			if err != nil {
				t.Fatal(err)
			}
			var evs []vm.Event
			m.Attach(vm.ObserverFunc(func(ev *vm.Event) { evs = append(evs, *ev) }))
			if _, err := m.Run(1 << 24); err != nil {
				t.Fatal(err)
			}
			if !m.Done() {
				t.Fatalf("%s did not finish", name)
			}

			opts := svd.Options{Witness: true}
			fopts := frd.Options{Witness: true}
			sd := svd.New(w.Prog, w.NumThreads, opts)
			fd := frd.New(w.Prog, w.NumThreads, fopts)
			for i := range evs {
				sd.Step(&evs[i])
				fd.Step(&evs[i])
			}
			want := finish(t, w, seed, sd, fd)

			chops := map[string][]*vm.EventBatch{
				"size1":     chopFixed(evs, 1),
				"size7":     chopFixed(evs, 7),
				"sizecap":   chopFixed(evs, vm.DefaultBatchCap),
				"cpuswitch": chopAtSwitches(evs),
			}
			for chop, batches := range chops {
				csd := svd.New(w.Prog, w.NumThreads, opts)
				cfd := frd.New(w.Prog, w.NumThreads, fopts)
				for _, eb := range batches {
					csd.StepColumns(eb)
					cfd.StepColumns(eb)
				}
				got := finish(t, w, seed, csd, cfd)
				// The producer side can't judge Erroneous here (no VM
				// handed to Classify), so both sides leave it zero.
				if !reflect.DeepEqual(got, want) {
					t.Errorf("chop %s diverges from per-event Step:\ngot  %+v\nwant %+v", chop, got, want)
				}
			}
		})
	}
}
