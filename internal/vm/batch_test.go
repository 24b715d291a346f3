package vm

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

// batchCollector records every columnar batch, materialized as rows, and
// the batch cut points.
type batchCollector struct {
	code    []isa.Instr
	events  []Event
	batches []int
}

func (c *batchCollector) StepColumns(eb *EventBatch) {
	c.events = eb.AppendEvents(c.events, c.code)
	c.batches = append(c.batches, eb.Len())
}

// contendedProg builds a small multi-CPU program with loads, stores, and a
// CAS loop so the event stream exercises every flag combination.
func contendedProg() *isa.Program {
	code := []isa.Instr{
		isa.LI(9, 1),
		// spin: cas [0], 0 -> 1; retry while the old value was nonzero
		isa.Cas(10, isa.RegZero, isa.RegZero, 9),
		isa.Bnez(10, 1),
		// critical section: increment [1]
		isa.Load(11, isa.RegZero, 1),
		isa.Addi(11, 11, 1),
		isa.Store(11, isa.RegZero, 1),
		// unlock
		isa.Store(isa.RegZero, isa.RegZero, 0),
		isa.Halt(),
	}
	return &isa.Program{Name: "batch-test", Code: code, Entries: []int64{0, 0, 0}}
}

// TestBatchStreamMatchesObserverStream runs the same machine twice — once
// with a per-instruction observer, once with a columnar one — and requires
// the concatenated batches to be the identical event sequence, less the
// loaded and stored values that batches do not carry.
func TestBatchStreamMatchesObserverStream(t *testing.T) {
	p := contendedProg()
	cfg := Config{NumCPUs: 3, Seed: 7, MaxQuantum: 4, BatchCap: 8}

	m1, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var perEvent []Event
	m1.Attach(ObserverFunc(func(ev *Event) {
		e := *ev
		e.Loaded, e.Stored = 0, 0
		perEvent = append(perEvent, e)
	}))
	n1, err := m1.Run(1 << 16)
	if err != nil {
		t.Fatal(err)
	}

	m2, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bc := batchCollector{code: p.Code}
	m2.AttachColumns(&bc)
	n2, err := m2.Run(1 << 16)
	if err != nil {
		t.Fatal(err)
	}

	if n1 != n2 {
		t.Fatalf("step counts diverge: %d vs %d", n1, n2)
	}
	if uint64(len(bc.events)) != n2 {
		t.Fatalf("columnar observer saw %d events for %d steps", len(bc.events), n2)
	}
	if !reflect.DeepEqual(perEvent, bc.events) {
		t.Fatal("columnar event stream differs from per-instruction stream")
	}
	for i, sz := range bc.batches[:len(bc.batches)-1] {
		if sz != cfg.BatchCap {
			t.Errorf("batch %d has %d events; only the final flush may be short", i, sz)
		}
	}
}

// TestBatchFlushOnFault: a faulting run must deliver the events preceding
// the fault before Run returns (the faulting instruction itself never
// completes, so — exactly as for per-instruction observers — it emits no
// event).
func TestBatchFlushOnFault(t *testing.T) {
	p := &isa.Program{Name: "faulty", Code: []isa.Instr{
		isa.LI(8, -99),
		isa.Store(8, 8, 0), // store to address -99: fault
		isa.Halt(),
	}, Entries: []int64{0}}
	m, err := New(p, Config{NumCPUs: 1, BatchCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	bc := batchCollector{code: p.Code}
	m.AttachColumns(&bc)
	if _, err := m.Run(100); err == nil {
		t.Fatal("expected a fault")
	}
	if len(bc.events) != 1 {
		t.Fatalf("fault path delivered %d events, want 1 (the LI before the fault)", len(bc.events))
	}
}

// TestBatchFlushAtBoundary: RunToScheduleBoundary must flush so replay
// consumers see a complete prefix at every boundary.
func TestBatchFlushAtBoundary(t *testing.T) {
	p := contendedProg()
	m, err := New(p, Config{NumCPUs: 3, Seed: 3, MaxQuantum: 4, BatchCap: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	bc := batchCollector{code: p.Code}
	m.AttachColumns(&bc)
	ran, err := m.RunToScheduleBoundary(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(bc.events)) != ran {
		t.Errorf("boundary left %d of %d events undelivered", ran-uint64(len(bc.events)), ran)
	}
}
