package report

import (
	"reflect"
	"testing"

	"repro/internal/frd"
	"repro/internal/isa"
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

// recordEvents runs w to completion and returns its event stream.
func recordEvents(t *testing.T, w *workloads.Workload, seed uint64) []vm.Event {
	t.Helper()
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
		t.Fatalf("%s did not finish", w.Name)
	}
	return evs
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
			evs := recordEvents(t, w, seed)
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

// TestColumnarContradictoryFlags: rows whose flags contradict their
// opcode — a load without its load flag, an ALU row carrying one, a
// compare-and-swap with no flags at all — reach the detectors only from
// direct API callers (the VM never emits them and the decoder's flag
// classes reject them), but StepColumns must still treat them exactly
// as per-event Step does. Two threads, seven rows, both detectors.
func TestColumnarContradictoryFlags(t *testing.T) {
	r8, r9, r10 := isa.Reg(8), isa.Reg(9), isa.Reg(10)
	prog := &isa.Program{Name: "contradictory-flags", Code: []isa.Instr{
		isa.Load(r8, isa.RegZero, 0),
		isa.Store(r8, isa.RegZero, 0),
		isa.Cas(r8, isa.RegZero, r9, r10),
		isa.ALU(isa.OpAdd, r8, r8, r9),
		isa.Halt(),
	}}
	rows := []struct {
		cpu   int32
		pc    int64
		flags uint8
		addr  int64
	}{
		{0, 0, vm.FlagLoad, 10}, // plain load
		{1, 0, 0, 10},           // load without its flag
		{1, 3, vm.FlagLoad, 10}, // ALU row with a load flag
		{0, 2, 0, 20},           // CAS without flags
		{1, 0, vm.FlagLoad, 20},
		{0, 1, vm.FlagStore, 20},
		{1, 1, vm.FlagStore, 20},
	}
	eb := vm.NewEventBatch(len(rows))
	for i, r := range rows {
		eb.AppendRaw(uint64(i+1), r.cpu, r.pc, r.flags, r.addr)
	}
	evs := eb.AppendEvents(nil, prog.Code)

	sd, fd := svd.New(prog, 2, svd.Options{}), frd.New(prog, 2, frd.Options{})
	for i := range evs {
		sd.Step(&evs[i])
		fd.Step(&evs[i])
	}
	csd, cfd := svd.New(prog, 2, svd.Options{}), frd.New(prog, 2, frd.Options{})
	csd.StepColumns(eb)
	cfd.StepColumns(eb)
	if got, want := csd.Stats(), sd.Stats(); got != want {
		t.Errorf("svd stats diverge:\ncolumns %+v\nstep    %+v", got, want)
	}
	if !reflect.DeepEqual(csd.Violations(), sd.Violations()) || !reflect.DeepEqual(csd.Log(), sd.Log()) {
		t.Error("svd reports diverge")
	}
	if got, want := cfd.Stats(), fd.Stats(); got != want {
		t.Errorf("frd stats diverge:\ncolumns %+v\nstep    %+v", got, want)
	}
	if !reflect.DeepEqual(cfd.Races(), fd.Races()) {
		t.Errorf("frd races diverge:\ncolumns %+v\nstep    %+v", cfd.Races(), fd.Races())
	}
}
