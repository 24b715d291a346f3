package report

import (
	"reflect"
	"testing"

	"repro/internal/frd"
	"repro/internal/svd"
	"repro/internal/workloads"
)

// TestRunBatchedMatchesUnbatched: Run's columnar event pipeline must
// produce samples bit-identical to per-instruction observer dispatch —
// classifications, logs, and both detectors' raw stats. The per-event
// sample is built here, the way Run would build it with the detectors
// attached as vm.Observers.
func TestRunBatchedMatchesUnbatched(t *testing.T) {
	cases := []*workloads.Workload{
		workloads.ApacheLog(workloads.ApacheConfig{
			Threads: 4, Requests: 48, Buggy: true, Seed: 2,
		}),
		workloads.PgSQLOLTP(workloads.PgSQLConfig{
			Warehouses: 2, Terminals: 4, Txns: 48, Seed: 2,
		}),
	}
	for _, w := range cases {
		t.Run(w.Name, func(t *testing.T) {
			for seed := uint64(0); seed < 3; seed++ {
				batched, err := Run(w, seed, Options{})
				if err != nil {
					t.Fatal(err)
				}
				stepped := runPerEvent(t, w, seed)
				if !reflect.DeepEqual(batched, stepped) {
					t.Errorf("seed %d: batched sample diverges:\nbatched %+v\nstepped %+v",
						seed, batched, stepped)
				}
			}
		})
	}
}

// runPerEvent is Run with both detectors attached as per-instruction
// observers: the reference the columnar pipeline is held to.
func runPerEvent(t *testing.T, w *workloads.Workload, seed uint64) *Sample {
	t.Helper()
	m, err := w.NewVM(seed)
	if err != nil {
		t.Fatal(err)
	}
	sd := svd.New(w.Prog, w.NumThreads, svd.Options{})
	fd := frd.New(w.Prog, w.NumThreads, frd.Options{})
	m.Attach(sd)
	m.Attach(fd)
	if _, err := m.Run(1 << 24); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatalf("%s seed %d did not finish", w.Name, seed)
	}
	s := Classify(w, seed, sd, fd)
	if w.Check != nil {
		s.Erroneous, s.ErrorDetail = w.Check(m)
	}
	return s
}
