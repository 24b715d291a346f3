package svd

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Eviction under coalescing. Hardware mode (EvictBlock) deletes a
// thread's block state out from under every locality cache the hot path
// keeps: the MRU block-pointer cache would otherwise resurrect a
// zeroed slot without re-registering interest, and a stale exclusive
// claim or read-reactive bit must cost a delivery, never lose one.
// These tests interleave evictions
// with the coalesced columnar path and require bit-identical outputs
// against per-event Step with the same evictions at the same points.

// mkColumns converts a run of events into one columnar batch.
func mkColumns(evs []vm.Event) *vm.EventBatch {
	eb := vm.NewEventBatch(len(evs))
	for i := range evs {
		eb.Append(&evs[i])
	}
	return eb
}

// evictScript builds an event stream in segments separated by eviction
// points, so the same schedule can drive Step and StepColumns.
type evictScript struct {
	prog     *isa.Program
	segments [][]vm.Event
	evicts   [][2]int64 // after segment i: evict [cpu, block]
	seq      uint64
}

func newEvictScript() *evictScript {
	code := []isa.Instr{
		isa.Load(isa.Reg(8), isa.RegZero, 0),
		isa.Store(isa.Reg(8), isa.RegZero, 0),
		isa.Halt(),
	}
	return &evictScript{prog: &isa.Program{Name: "evict", Code: code}, segments: [][]vm.Event{nil}}
}

func (s *evictScript) load(cpu int, addr int64) {
	s.seq++
	last := len(s.segments) - 1
	s.segments[last] = append(s.segments[last], vm.Event{
		Seq: s.seq, CPU: cpu, PC: 0, Instr: s.prog.Code[0], Addr: addr, IsLoad: true, Loaded: 1,
	})
}

func (s *evictScript) store(cpu int, addr int64) {
	s.seq++
	last := len(s.segments) - 1
	s.segments[last] = append(s.segments[last], vm.Event{
		Seq: s.seq, CPU: cpu, PC: 1, Instr: s.prog.Code[1], Addr: addr, IsStore: true, Stored: 2,
	})
}

func (s *evictScript) evict(cpu int, block int64) {
	s.evicts = append(s.evicts, [2]int64{int64(cpu), block})
	s.segments = append(s.segments, nil)
}

// run drives the schedule through a detector, feeding each segment via
// feed and applying the eviction between segments.
func (s *evictScript) run(d *Detector, feed func(d *Detector, evs []vm.Event)) {
	for i, seg := range s.segments {
		feed(d, seg)
		if i < len(s.evicts) {
			d.EvictBlock(int(s.evicts[i][0]), s.evicts[i][1])
		}
	}
}

type evictOutputs struct {
	Violations []Violation
	Log        []LogEntry
	Stats      Stats
}

func (s *evictScript) differential(t *testing.T) {
	t.Helper()
	perEvent := New(s.prog, 3, Options{})
	s.run(perEvent, func(d *Detector, evs []vm.Event) {
		for i := range evs {
			d.Step(&evs[i])
		}
	})
	want := evictOutputs{perEvent.Violations(), perEvent.Log(), perEvent.Stats()}

	columnar := New(s.prog, 3, Options{})
	s.run(columnar, func(d *Detector, evs []vm.Event) {
		if len(evs) > 0 {
			d.StepColumns(mkColumns(evs))
		}
	})
	got := evictOutputs{columnar.Violations(), columnar.Log(), columnar.Stats()}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("columnar path with evictions diverges from per-event:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestEvictionUnderCoalescingHammer: a thread hammers one block, loses it to eviction mid-run, and resumes — then a
// cross-thread conflict pattern checks detection state reflects the
// eviction, not the caches.
func TestEvictionUnderCoalescingHammer(t *testing.T) {
	s := newEvictScript()
	const X = 64
	for i := 0; i < 24; i++ {
		s.load(0, X)
	}
	s.store(0, X)
	s.evict(0, X)
	// Resume hammering the evicted block: the MRU entry must not
	// resurrect the zeroed slot without re-registering interest.
	for i := 0; i < 24; i++ {
		s.load(0, X)
	}
	// Lost-update pattern across threads on the same block.
	s.load(1, X)
	s.load(2, X)
	s.store(2, X)
	s.store(1, X)
	s.differential(t)
}

// TestEvictionUnderCoalescingPingPong: both entries of the 2-entry
// caches hold blocks A and B; evicting each in turn (from different
// threads, at different cache slots) must invalidate exactly the right
// entries while batches keep coalescing across the eviction points.
func TestEvictionUnderCoalescingPingPong(t *testing.T) {
	s := newEvictScript()
	const A, B = 128, 256
	for i := 0; i < 8; i++ {
		s.load(0, A)
		s.load(0, B)
		s.load(1, A)
		s.load(1, B)
	}
	s.evict(0, A) // MRU slot 1 on cpu 0
	for i := 0; i < 8; i++ {
		s.load(0, A)
		s.load(0, B)
	}
	s.evict(0, B) // now the other entry
	s.store(1, A)
	s.store(1, B)
	s.load(0, A)
	s.store(0, A)
	s.store(1, A)
	s.differential(t)
}

// TestEvictionRestoresDetectionLoss mirrors the hardware-mode semantic:
// state evicted between the loads and the stores of a lost-update
// pattern erases the conflict evidence, so the violation must NOT be
// reported — a stale cache entry surviving the eviction would keep the
// conflict flag alive and report it anyway.
func TestEvictionRestoresDetectionLoss(t *testing.T) {
	s := newEvictScript()
	const X = 64
	s.load(0, X)
	for i := 0; i < 8; i++ {
		s.load(1, X) // populate cpu1's MRU cache
	}
	s.store(1, X)
	s.evict(0, X) // cpu0 loses its read history for X
	s.store(0, X)
	s.differential(t)

	// And the per-event reference itself must report nothing: the
	// eviction destroyed the evidence.
	d := New(s.prog, 3, Options{})
	s.run(d, func(d *Detector, evs []vm.Event) {
		for i := range evs {
			d.Step(&evs[i])
		}
	})
	if n := d.Stats().Violations; n != 0 {
		t.Errorf("eviction should have erased the conflict, got %d violations", n)
	}
}
