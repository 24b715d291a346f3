package svd

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/vm"
	"repro/internal/workloads"
)

func interestCases() []struct {
	name string
	w    *workloads.Workload
} {
	return []struct {
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
}

// TestInterestDifferential runs real workloads twice — once consulting the
// block interest index, once with the full O(NumCPUs) fan-out — and
// requires identical observable output. A missing index member (a thread
// with touched state the index forgot) shows up here as a divergence in
// violations, logs, or FSM-driven stats.
func TestInterestDifferential(t *testing.T) {
	for _, tc := range interestCases() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 3; seed++ {
				indexed := runDetector(t, tc.w, seed, Options{})
				full := runDetector(t, tc.w, seed, Options{NoInterestIndex: true})

				if !reflect.DeepEqual(indexed.Violations(), full.Violations()) {
					t.Errorf("seed %d: violations diverge with interest index", seed)
				}
				if !reflect.DeepEqual(indexed.Log(), full.Log()) {
					t.Errorf("seed %d: a posteriori logs diverge with interest index", seed)
				}
				if !reflect.DeepEqual(indexed.Sites(), full.Sites()) {
					t.Errorf("seed %d: sites diverge with interest index", seed)
				}
				is, fs := indexed.Stats(), full.Stats()
				// The fan-out obligation is path-independent: every memory
				// instruction owes NumCPUs-1 notifications, sent or skipped.
				if is.RemoteSent+is.RemoteSkipped != fs.RemoteSent {
					t.Errorf("seed %d: sent %d + skipped %d != full fan-out %d",
						seed, is.RemoteSent, is.RemoteSkipped, fs.RemoteSent)
				}
				if is.RemoteSkipped == 0 {
					t.Errorf("seed %d: index never skipped a notification", seed)
				}
				if fs.RemoteSkipped != 0 {
					t.Errorf("seed %d: fallback skipped %d notifications", seed, fs.RemoteSkipped)
				}
				// Everything except the propagation counters must agree.
				is.RemoteSent, fs.RemoteSent = 0, 0
				is.RemoteSkipped, fs.RemoteSkipped = 0, 0
				if is != fs {
					t.Errorf("seed %d: stats diverge:\nindexed %+v\nfull    %+v", seed, is, fs)
				}
			}
		})
	}
}

// runColumns runs w at seed through StepColumns, the served path, with
// the batches' Blocks column at the detector's shift.
func runColumns(t *testing.T, w *workloads.Workload, seed uint64, opts Options) *Detector {
	t.Helper()
	m, err := w.NewVM(seed)
	if err != nil {
		t.Fatal(err)
	}
	d := New(w.Prog, w.NumThreads, opts)
	m.SetColumnBlockShift(opts.BlockShift)
	m.AttachColumns(d)
	if _, err := m.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestInterestDifferentialRegistry is TestInterestDifferential over
// every registry workload at scale 1, witness off and on, through
// StepColumns: the coherence filter (exclusive claims, and remote reads
// delivered only to read-reactive holders) must leave violations, the
// log (Dynamic, ReaderCPUs and WriterCPUs included), sites, witness
// groups and every Stats counter — RemoteEvents among them — as the
// full fan-out leaves them. RemoteSent and RemoteSkipped count interest
// members, so only their sum is path-independent.
func TestInterestDifferentialRegistry(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, witness := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/witness=%v", name, witness), func(t *testing.T) {
				for _, seed := range []uint64{1, 3} {
					w, err := workloads.ByName(name, 1, seed)
					if err != nil {
						t.Fatal(err)
					}
					indexed := runColumns(t, w, seed, Options{Witness: witness})
					full := runColumns(t, w, seed, Options{Witness: witness, NoInterestIndex: true})
					if !reflect.DeepEqual(indexed.Violations(), full.Violations()) {
						t.Errorf("seed %d: violations diverge", seed)
					}
					if !reflect.DeepEqual(indexed.Log(), full.Log()) {
						t.Errorf("seed %d: a posteriori logs diverge", seed)
					}
					if !reflect.DeepEqual(indexed.Sites(), full.Sites()) {
						t.Errorf("seed %d: sites diverge", seed)
					}
					if !reflect.DeepEqual(indexed.WitnessGroups(), full.WitnessGroups()) {
						t.Errorf("seed %d: witness groups diverge", seed)
					}
					is, fs := indexed.Stats(), full.Stats()
					if is.RemoteSent+is.RemoteSkipped != fs.RemoteSent || fs.RemoteSkipped != 0 {
						t.Errorf("seed %d: sent %d + skipped %d != full fan-out %d (+%d)",
							seed, is.RemoteSent, is.RemoteSkipped, fs.RemoteSent, fs.RemoteSkipped)
					}
					is.RemoteSent, fs.RemoteSent = 0, 0
					is.RemoteSkipped, fs.RemoteSkipped = 0, 0
					if is != fs {
						t.Errorf("seed %d: stats diverge:\nindexed %+v\nfull    %+v", seed, is, fs)
					}
					checkShareBits(t, indexed)
				}
			})
		}
	}
}

// checkShareBits checks the coherence filter's invariants on d: an
// exclusive claim means its thread is the block's sole holder, a
// read-reactive record is in the index's Marked set unless it claims
// exclusivity, and Marked names holders only.
func checkShareBits(t *testing.T, d *Detector) {
	t.Helper()
	for _, th := range d.threads {
		th.blocks.Range(func(b int64, bs *blockState) bool {
			if !bs.touched {
				return true
			}
			e := d.ix.Entry(b)
			if bs.share&shareExcl != 0 && !e.Holders.Only(th.id) {
				t.Errorf("thread %d claims block %d, held by %+v", th.id, b, e.Holders)
			}
			if bs.share&shareExcl == 0 && bs.readReactive() && th.id < 64 && e.Marked&(1<<uint(th.id)) == 0 {
				t.Errorf("thread %d's record of block %d is read-reactive (%v) but not Marked", th.id, b, bs.state)
			}
			if e.Marked&^e.Holders.Bits() != 0 {
				t.Errorf("block %d: Marked %b names non-holders of %b", b, e.Marked, e.Holders.Bits())
			}
			return true
		})
	}
}

// TestInterestPopulationMatchesTouched: after a run, the index must hold
// exactly one (thread, block) entry per touched block — no leaks, no
// misses.
func TestInterestPopulationMatchesTouched(t *testing.T) {
	for _, tc := range interestCases() {
		t.Run(tc.name, func(t *testing.T) {
			d := runDetector(t, tc.w, 1, Options{})
			want := 0
			for _, th := range d.threads {
				want += th.nblocks
				th.blocks.Range(func(b int64, bs *blockState) bool {
					if bs.touched && !d.ix.Get(b).Has(th.id) {
						t.Errorf("thread %d touched block %d but is not in the index", th.id, b)
					}
					return true
				})
			}
			if got := d.ix.Population(); got != want {
				t.Errorf("index population %d, want %d touched entries", got, want)
			}
		})
	}
}

// TestEvictBlockClearsInterest is the hardware-mode regression test:
// eviction must clear the index entry (no leak), and a later re-access
// must re-register so a subsequent remote conflict is still caught.
func TestEvictBlockClearsInterest(t *testing.T) {
	s := newScript(2, Options{})
	d := s.d
	const b = 100

	s.load(0, 0, rA, b)
	if !d.ix.Get(b).Has(0) {
		t.Fatal("local access did not register interest")
	}
	d.EvictBlock(0, b)
	if d.ix.Get(b).Has(0) {
		t.Fatal("eviction leaked the interest entry")
	}

	// A remote access between eviction and re-access must be skipped (the
	// evicted thread holds no state) without losing anything.
	skippedBefore := d.Stats().RemoteSkipped
	s.store(1, 1, rB, b)
	if d.Stats().RemoteSkipped != skippedBefore+1 {
		t.Errorf("remote access to an evicted block was not skipped")
	}

	// Re-access re-registers; the conflict that follows must reach thread 0
	// and surface as a violation at its next dependent store.
	s.load(0, 2, rA, b)
	if !d.ix.Get(b).Has(0) {
		t.Fatal("re-access did not re-register interest")
	}
	s.store(1, 3, rB, b) // remote write: flags the conflict on thread 0
	s.store(0, 4, rA, b) // dependent store: strict-2PL check fires
	if got := len(d.Violations()); got != 1 {
		t.Fatalf("violation after evict/re-touch cycle: got %d reports, want 1", got)
	}

	// The cycle must leave exactly the live entries behind.
	want := 0
	for _, th := range d.threads {
		want += th.nblocks
	}
	if got := d.ix.Population(); got != want {
		t.Errorf("index population %d after evict cycle, want %d", got, want)
	}
}

// TestBatchChopping is the batching property test: the same event stream
// chopped into columnar batches of arbitrary size — single events, a
// prime stride, the default ring capacity, one whole-trace batch — must
// produce output bit-identical to per-event Step.
func TestBatchChopping(t *testing.T) {
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
				d.StepColumns(mkColumns(evs[lo:hi]))
			}
			if !reflect.DeepEqual(d.Violations(), ref.Violations()) {
				t.Error("violations diverge from per-event Step")
			}
			if !reflect.DeepEqual(d.Log(), ref.Log()) {
				t.Error("logs diverge from per-event Step")
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

// TestCloneCarriesInterest: a cloned detector must rebuild the index from
// its copied touched blocks, so post-rollback detection keeps eliding and
// keeps catching conflicts.
func TestCloneCarriesInterest(t *testing.T) {
	w := workloads.MySQLTables(workloads.MySQLTablesConfig{Lockers: 3, Ops: 40})
	d := runDetector(t, w, 3, Options{})
	c := d.Clone()
	if c.ix == nil {
		t.Fatal("clone dropped the interest index")
	}
	if got, want := c.ix.Population(), d.ix.Population(); got != want {
		t.Errorf("clone index population %d, want %d", got, want)
	}
	for _, th := range c.threads {
		th.blocks.Range(func(b int64, bs *blockState) bool {
			if bs.touched && !c.ix.Get(b).Has(th.id) {
				t.Errorf("clone thread %d touched block %d missing from index", th.id, b)
			}
			return true
		})
	}
	// The coherence filter's bits are rebuilt from the copied state:
	// exclusive claims for sole holders, the Marked set for the others,
	// and the clone then runs on exactly like the original.
	checkShareBits(t, c)
	for _, th := range c.threads {
		th.blocks.Range(func(b int64, bs *blockState) bool {
			if bs.touched && c.ix.Get(b).Only(th.id) && bs.share&shareExcl == 0 {
				t.Errorf("clone thread %d is block %d's sole holder without the claim", th.id, b)
			}
			return true
		})
	}
	m, err := w.NewVM(5)
	if err != nil {
		t.Fatal(err)
	}
	m.Attach(vm.ObserverFunc(func(ev *vm.Event) {
		d.Step(ev)
		c.Step(ev)
	}))
	if _, err := m.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	// The clone's arena starts empty, so it carves where the original
	// reuses: only the arena's split of created units may differ.
	cs, ds := c.Stats(), d.Stats()
	cs.CUsAllocated, cs.CUsReused, ds.CUsAllocated, ds.CUsReused = 0, 0, 0, 0
	if cs != ds || !reflect.DeepEqual(d.Violations(), c.Violations()) || !reflect.DeepEqual(d.Log(), c.Log()) {
		t.Errorf("clone diverges from its original on a continued run:\nclone    %+v\noriginal %+v", cs, ds)
	}
	checkShareBits(t, c)
}
