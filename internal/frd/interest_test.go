package frd

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/vm"
	"repro/internal/workloads"
)

// runFRD executes a workload with one detector attached and returns it.
func runFRD(t *testing.T, w *workloads.Workload, seed uint64, opts Options) *Detector {
	t.Helper()
	m, err := w.NewVM(seed)
	if err != nil {
		t.Fatal(err)
	}
	d := New(w.Prog, w.NumThreads, opts)
	m.Attach(d)
	if _, err := m.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestReaderIndexDifferential runs real workloads twice — once with the
// per-block reader interest set driving write-time scans, once scanning
// every thread's read epoch — and requires identical races, sites, and
// stats. A reader the index missed shows up here as a lost race.
func TestReaderIndexDifferential(t *testing.T) {
	cases := []struct {
		name string
		w    *workloads.Workload
	}{
		{"apache-buggy", workloads.ApacheLog(workloads.ApacheConfig{
			Threads: 4, Requests: 48, Buggy: true, Seed: 2,
		})},
		{"mysql-tables", workloads.MySQLTables(workloads.MySQLTablesConfig{
			Lockers: 3, Ops: 60,
		})},
		{"pgsql", workloads.PgSQLOLTP(workloads.PgSQLConfig{
			Warehouses: 2, Terminals: 4, Txns: 48, Seed: 2,
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 3; seed++ {
				indexed := runFRD(t, tc.w, seed, Options{})
				full := runFRD(t, tc.w, seed, Options{NoInterestIndex: true})

				if !reflect.DeepEqual(indexed.Races(), full.Races()) {
					t.Errorf("seed %d: races diverge with reader index", seed)
				}
				if !reflect.DeepEqual(indexed.Sites(), full.Sites()) {
					t.Errorf("seed %d: sites diverge with reader index", seed)
				}
				is, fs := indexed.Stats(), full.Stats()
				if is.RemoteSent+is.RemoteSkipped != fs.RemoteSent {
					t.Errorf("seed %d: sent %d + skipped %d != full scan %d",
						seed, is.RemoteSent, is.RemoteSkipped, fs.RemoteSent)
				}
				if is.RemoteSkipped == 0 {
					t.Errorf("seed %d: index never skipped a probe", seed)
				}
				if fs.RemoteSkipped != 0 {
					t.Errorf("seed %d: fallback skipped %d probes", seed, fs.RemoteSkipped)
				}
				is.RemoteSent, fs.RemoteSent = 0, 0
				is.RemoteSkipped, fs.RemoteSkipped = 0, 0
				if is != fs {
					t.Errorf("seed %d: stats diverge:\nindexed %+v\nfull    %+v", seed, is, fs)
				}
			}
		})
	}
}

// TestReaderIndexInvariant: after any script, a block's reader set must
// hold exactly the threads with valid read epochs.
func TestReaderIndexInvariant(t *testing.T) {
	s := newScript(3, Options{})
	s.load(0, 1, 100)
	s.load(1, 2, 100)
	s.load(2, 3, 100)
	s.store(0, 4, 100) // invalidates all reads, races with 1 and 2
	s.load(1, 5, 100)
	check := func() {
		t.Helper()
		s.d.blocks.Range(func(b int64, bi *blockInfo) bool {
			for cpu := range bi.reads {
				if bi.reads[cpu].valid != bi.readers.Has(cpu) {
					t.Errorf("block %d cpu %d: valid=%v but indexed=%v",
						b, cpu, bi.reads[cpu].valid, bi.readers.Has(cpu))
				}
			}
			return true
		})
	}
	check()
	// Two write-read races at the store (threads 1 and 2's reads), plus
	// the unordered read of the new write at pc 5.
	if got := s.d.Stats().Races; got != 3 {
		t.Fatalf("races = %d, want 3", got)
	}
	// Repeated reads by one thread must not double-count membership.
	s.load(1, 6, 100)
	s.load(1, 7, 100)
	s.store(2, 8, 100)
	check()
}

// TestFRDBatchChopping: the event stream chopped into columnar batches
// of arbitrary size must match per-event Step bit for bit.
func TestFRDBatchChopping(t *testing.T) {
	w := workloads.PgSQLOLTP(workloads.PgSQLConfig{
		Warehouses: 2, Terminals: 4, Txns: 48, Seed: 2,
	})
	m, err := w.NewVM(1)
	if err != nil {
		t.Fatal(err)
	}
	var evs []vm.Event
	m.Attach(vm.ObserverFunc(func(ev *vm.Event) { evs = append(evs, *ev) }))
	if _, err := m.Run(1 << 24); err != nil {
		t.Fatal(err)
	}

	ref := New(w.Prog, w.NumThreads, Options{})
	for i := range evs {
		ref.Step(&evs[i])
	}

	for _, size := range []int{1, 7, vm.DefaultBatchCap, len(evs)} {
		t.Run(fmt.Sprintf("batch-%d", size), func(t *testing.T) {
			d := New(w.Prog, w.NumThreads, Options{})
			for lo := 0; lo < len(evs); lo += size {
				hi := lo + size
				if hi > len(evs) {
					hi = len(evs)
				}
				eb := vm.NewEventBatch(hi - lo)
				for i := lo; i < hi; i++ {
					eb.Append(&evs[i])
				}
				d.StepColumns(eb)
			}
			if !reflect.DeepEqual(d.Races(), ref.Races()) {
				t.Error("races diverge from per-event Step")
			}
			if !reflect.DeepEqual(d.Sites(), ref.Sites()) {
				t.Error("sites diverge from per-event Step")
			}
			if d.Stats() != ref.Stats() {
				t.Errorf("stats diverge:\nbatched %+v\nstepped %+v", d.Stats(), ref.Stats())
			}
		})
	}
}
