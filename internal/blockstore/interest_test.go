package blockstore

import (
	"reflect"
	"testing"
)

func TestThreadSetLowIDs(t *testing.T) {
	var s ThreadSet
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("zero value is not the empty set")
	}
	s.Add(0)
	s.Add(5)
	s.Add(63)
	if s.Empty() || s.Len() != 3 {
		t.Fatalf("len = %d after 3 adds", s.Len())
	}
	for _, tid := range []int{0, 5, 63} {
		if !s.Has(tid) {
			t.Errorf("Has(%d) = false", tid)
		}
	}
	if s.Has(1) || s.Has(62) {
		t.Error("Has reports non-members")
	}
	if s.Only(5) {
		t.Error("Only(5) with 3 members")
	}
	s.Remove(0)
	s.Remove(63)
	if !s.Only(5) {
		t.Error("Only(5) = false with sole member 5")
	}
	s.Remove(5)
	if !s.Empty() {
		t.Error("set not empty after removing every member")
	}
	// Removing a non-member is a no-op.
	s.Remove(7)
	if !s.Empty() {
		t.Error("removing a non-member changed the set")
	}
}

func TestThreadSetHighIDsFold(t *testing.T) {
	var s ThreadSet
	s.Add(64)
	s.Add(200)
	if !s.HasHigh() || s.Len() != 2 {
		t.Fatalf("high fold broken: HasHigh=%v Len=%d", s.HasHigh(), s.Len())
	}
	// The fold over-approximates: any high id reports membership.
	if !s.Has(64) || !s.Has(999) {
		t.Error("high membership must over-approximate")
	}
	// Sole membership is unknowable above the fold.
	s.Remove(200)
	if s.Only(64) {
		t.Error("Only must be conservative for folded ids")
	}
	s.Remove(64)
	if s.HasHigh() || !s.Empty() {
		t.Error("balanced removes did not drain the fold")
	}
	// Underflow guard.
	s.Remove(64)
	if s.HasHigh() {
		t.Error("removing from an empty fold went negative")
	}
}

func TestThreadSetForEachOrder(t *testing.T) {
	var s ThreadSet
	for _, tid := range []int{9, 2, 40, 65, 70} {
		s.Add(tid)
	}
	var got []int
	s.ForEach(9, 66, func(tid int) { got = append(got, tid) })
	// Ascending, excluding 9; the two folded high members visit every
	// thread in [64, numThreads).
	want := []int{2, 40, 64, 65}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ForEach order = %v, want %v", got, want)
	}
	s.Clear()
	if !s.Empty() {
		t.Error("Clear left members behind")
	}
}

func TestInterestIndex(t *testing.T) {
	ix := NewInterest(Options{})
	if got := ix.Get(42); !got.Empty() {
		t.Error("unrecorded block not empty")
	}
	ix.Add(42, 3)
	ix.Add(42, 7)
	ix.Add(-8, 3) // negative block ids must work like the stores they mirror
	if got := ix.Get(42); !got.Has(3) || !got.Has(7) || got.Len() != 2 {
		t.Errorf("Get(42) = %+v", got)
	}
	if !ix.Get(-8).Only(3) {
		t.Error("negative block lost")
	}
	if got := ix.Population(); got != 3 {
		t.Errorf("population = %d, want 3", got)
	}
	ix.Remove(42, 3)
	if got := ix.Get(42); !got.Only(7) {
		t.Errorf("remove failed: %+v", got)
	}
	// Removing from a block never recorded must not materialize it.
	ix.Remove(1000, 5)
	if got := ix.Population(); got != 2 {
		t.Errorf("population after removes = %d, want 2", got)
	}
}
