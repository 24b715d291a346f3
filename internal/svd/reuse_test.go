package svd

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// reusePrefix bounds each recorded execution the reuse differential
// replays: enough for every workload to report (the queue workloads
// finish inside it), small enough for the race detector.
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

// foldPCs returns a copy of eb whose PCs are folded into a program of
// codeLen instructions: another workload's execution, replayed as
// garbage that is still valid input for a detector of this program.
func foldPCs(eb *vm.EventBatch, codeLen int) *vm.EventBatch {
	out := vm.NewEventBatch(eb.Len())
	for i := 0; i < eb.Len(); i++ {
		out.AppendRaw(eb.Seq[i], eb.CPU[i], eb.PC[i]%int64(codeLen), eb.Flags[i], eb.Addr[i])
	}
	return out
}

// stepChopped feeds eb to d in batches of chop rows (0: one batch).
func stepChopped(d interface{ StepColumns(*vm.EventBatch) }, eb *vm.EventBatch, chop int) {
	if chop <= 0 {
		chop = eb.Len()
	}
	part := vm.NewEventBatch(chop)
	for lo := 0; lo < eb.Len(); lo += chop {
		part.Reset()
		for i := lo; i < min(lo+chop, eb.Len()); i++ {
			part.AppendRaw(eb.Seq[i], eb.CPU[i], eb.PC[i], eb.Flags[i], eb.Addr[i])
		}
		d.StepColumns(part)
	}
}

// svdOutputs is everything a run leaves for its report.
type svdOutputs struct {
	Violations []Violation
	Groups     []obs.WitnessGroup
	All        []obs.Witness
	Log        []LogEntry
	Sites      []Site
	Stats      Stats
	BatchErr   error
}

func outputsOf(d *Detector) svdOutputs {
	return svdOutputs{d.Violations(), d.WitnessGroups(), d.AllWitnesses(), d.Log(), d.Sites(), d.Stats(), d.BatchErr()}
}

// TestResetMatchesFresh: a detector reused through Reset is
// indistinguishable from a new one. For every registry workload, in
// rotating order, one detector per witness mode (off, on, WitnessAll)
// runs a foreign workload's execution folded into its program and
// another execution of its own program, is reset, and runs the target
// execution; violations, witness groups, all witnesses, the log, sites
// and Stats must equal a new detector's, at StepColumns chops of 1, 7,
// vm.DefaultBatchCap and the whole trace. The detector is never
// rebuilt, so each round starts from everything the earlier ones left.
//
// Then the proportional clear: Reset zeroes only the records a run
// touched, and whole pages once a run touched more than a quarter of a
// thread's page slots. A run that sprays one thread's stores over eight
// whole pages (the whole-page clear), then one that touches three
// blocks of one page on another thread (the listed clear, whose page
// the next run takes first), each followed by Reset, must leave the
// detector indistinguishable from a new one on the target: outputs, the
// records its stores hold, and the interest index.
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
		w := rec.w
		for m, opts := range modes {
			reused := New(w.Prog, w.NumThreads, opts)
			for c, chop := range chops {
				foreign := recs[(i+1+m+c)%len(recs)].target
				stepChopped(reused, foldPCs(foreign, len(w.Prog.Code)), chops[(c+1)%len(chops)])
				stepChopped(reused, rec.other, chops[(c+2)%len(chops)])
				reused.Reset()
				stepChopped(reused, rec.target, chop)
				fresh := New(w.Prog, w.NumThreads, opts)
				stepChopped(fresh, rec.target, chop)
				got, want := outputsOf(reused), outputsOf(fresh)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s mode %d chop %d: reset detector diverges from a new one\ngot  %+v\nwant %+v",
						w.Name, m, chop, got.Stats, want.Stats)
				}
				if want.Stats.Instructions == 0 {
					t.Fatalf("%s: empty target execution", w.Name)
				}
			}
		}
	}
	for _, rec := range recs {
		w := rec.w
		for _, opts := range []Options{{Witness: true}, {NoInterestIndex: true}} {
			reused := New(w.Prog, w.NumThreads, opts)
			stepChopped(reused, spray(t, w, 0, 0, 1, 8<<9), 0)
			reused.Reset()
			stepChopped(reused, spray(t, w, 1, 3<<9+5, 7, 3), 0)
			reused.Reset()
			stepChopped(reused, rec.target, vm.DefaultBatchCap)
			fresh := New(w.Prog, w.NumThreads, opts)
			stepChopped(fresh, rec.target, vm.DefaultBatchCap)
			if got, want := outputsOf(reused), outputsOf(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v after sprays: reset detector diverges from a new one\ngot  %+v\nwant %+v", w.Name, opts, got.Stats, want.Stats)
			}
			gotSet, gotPop := touchedSet(reused)
			wantSet, wantPop := touchedSet(fresh)
			if !reflect.DeepEqual(gotSet, wantSet) || gotPop != wantPop {
				t.Fatalf("%s %+v after sprays: reset detector holds %d records (index %d), a new one %d (index %d)",
					w.Name, opts, len(gotSet), gotPop, len(wantSet), wantPop)
			}
		}
	}
}

// spray returns n store rows by thread cpu at addresses from, from+stride,
// ..., at the first store PC of w's program.
func spray(t *testing.T, w *workloads.Workload, cpu int32, from, stride int64, n int) *vm.EventBatch {
	t.Helper()
	pc := int64(-1)
	for i, in := range w.Prog.Code {
		if in.Op == isa.OpStore {
			pc = int64(i)
			break
		}
	}
	if pc < 0 {
		t.Fatalf("%s has no store", w.Name)
	}
	eb := vm.NewEventBatch(n)
	for i := 0; i < n; i++ {
		eb.AppendRaw(uint64(i+1), cpu, pc, vm.FlagStore, from+int64(i)*stride)
	}
	return eb
}

// touchedSet lists every (thread, block) record d holds as touched, and
// the interest index's population.
func touchedSet(d *Detector) ([][2]int64, int) {
	var out [][2]int64
	for _, th := range d.threads {
		th.blocks.Range(func(b int64, bs *blockState) bool {
			if *bs != (blockState{}) {
				out = append(out, [2]int64{int64(th.id), b})
			}
			return true
		})
	}
	pop := 0
	if d.ix != nil {
		pop = d.ix.Population()
	}
	return out, pop
}

// TestResetKeepsPages: Reset keeps the block pages a run materialized
// (and the CU arena's chunks) for the next run instead of dropping
// them, and a second identical run allocates no new pages.
func TestResetKeepsPages(t *testing.T) {
	w, target := recordPrefix(t, "queue-fixed", 1)
	d := New(w.Prog, w.NumThreads, Options{Witness: true})
	stepChopped(d, target, vm.DefaultBatchCap)
	held := d.Retained()
	if held == 0 {
		t.Fatal("a run retained nothing")
	}
	d.Reset()
	if got := d.Retained(); got != held {
		t.Fatalf("Retained after Reset = %d, want %d", got, held)
	}
	for _, th := range d.threads {
		if slots, pages, overflow := th.blocks.PageStats(); slots+pages+overflow != 0 {
			t.Fatalf("thread %d still materializes %d pages after Reset", th.id, pages)
		}
	}
	stepChopped(d, target, vm.DefaultBatchCap)
	if got := d.Retained(); got != held {
		t.Errorf("Retained after a second identical run = %d, want %d (pages reused)", got, held)
	}
}

// TestBlockStateSize pins the per-block record at 72 bytes: a 512-slot
// page is 36 KB, and a detector kept across streams holds its pages.
func TestBlockStateSize(t *testing.T) {
	if got := unsafe.Sizeof(blockState{}); got > 72 {
		t.Errorf("blockState is %d bytes, want at most 72", got)
	}
}
