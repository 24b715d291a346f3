package blockstore

import (
	"testing"
	"unsafe"
)

type meta struct {
	touched bool
	n       int
}

func TestEnsureLookupRoundTrip(t *testing.T) {
	s := New[meta](Options{})
	if got := s.Lookup(5); got != nil {
		t.Fatalf("Lookup on empty store = %v, want nil", got)
	}
	m := s.Ensure(5)
	m.touched = true
	m.n = 42
	got := s.Lookup(5)
	if got == nil || got.n != 42 || !got.touched {
		t.Fatalf("Lookup after Ensure = %+v", got)
	}
	if got != s.Ensure(5) {
		t.Fatal("Ensure is not idempotent")
	}
	// A neighbor on the same page is materialized but zero.
	if nb := s.Lookup(6); nb == nil || nb.touched || nb.n != 0 {
		t.Fatalf("neighbor slot = %+v, want zero", nb)
	}
	// A block on an unmaterialized page is absent.
	if far := s.Lookup(1 << 20); far != nil {
		t.Fatalf("far Lookup = %v, want nil", far)
	}
}

func TestNegativeAndHugeBlocksOverflow(t *testing.T) {
	s := New[meta](Options{})
	for _, b := range []int64{-1, -1 << 40, 1 << 40} {
		if s.Lookup(b) != nil {
			t.Fatalf("block %d present before Ensure", b)
		}
		m := s.Ensure(b)
		m.n = int(b % 97)
		if got := s.Lookup(b); got == nil || got.n != int(b%97) {
			t.Fatalf("block %d round trip failed: %+v", b, got)
		}
		s.Delete(b)
		if s.Lookup(b) != nil {
			t.Fatalf("block %d survived Delete", b)
		}
	}
}

func TestDeleteZeroesDenseSlot(t *testing.T) {
	s := New[meta](Options{})
	s.Ensure(100).n = 3
	s.Delete(100)
	if got := s.Lookup(100); got == nil || got.n != 0 {
		t.Fatalf("dense slot after Delete = %+v, want zero", got)
	}
	// Deleting never-materialized blocks is a no-op.
	s.Delete(1 << 22)
	s.Delete(-5)
}

func TestRangeVisitsAllMaterialized(t *testing.T) {
	s := New[meta](Options{PageShift: 4})
	want := map[int64]int{3: 1, 200: 2, -9: 3, 1 << 40: 4}
	for b, n := range want {
		s.Ensure(b).n = n
	}
	got := map[int64]int{}
	s.Range(func(b int64, v *meta) bool {
		if v.n != 0 {
			got[b] = v.n
		}
		return true
	})
	for b, n := range want {
		if got[b] != n {
			t.Errorf("Range missed block %d (want %d, got %d)", b, n, got[b])
		}
	}
	// Early termination.
	visits := 0
	s.Range(func(int64, *meta) bool { visits++; return false })
	if visits != 1 {
		t.Errorf("Range after false = %d visits, want 1", visits)
	}
}

func TestResetAndSlots(t *testing.T) {
	s := New[meta](Options{PageShift: 4})
	s.Ensure(0)
	s.Ensure(1000)
	s.Ensure(-1)
	if got := s.Slots(); got != 2*16+1 {
		t.Fatalf("Slots = %d, want %d", got, 2*16+1)
	}
	if slots, pages, overflow := s.PageStats(); slots != 2*16 || pages != 2 || overflow != 1 {
		t.Fatalf("PageStats = (%d, %d, %d), want (32, 2, 1)", slots, pages, overflow)
	}
	s.Reset()
	if got := s.Slots(); got != 0 {
		t.Fatalf("Slots after Reset = %d, want 0", got)
	}
	if s.Lookup(0) != nil || s.Lookup(-1) != nil {
		t.Fatal("blocks survived Reset")
	}
}

func TestMaxPagesOverflow(t *testing.T) {
	s := New[meta](Options{PageShift: 4, MaxPages: 2})
	s.Ensure(1).n = 1  // page 0
	s.Ensure(40).n = 2 // beyond 2 pages of 16 -> overflow
	if got := s.Lookup(40); got == nil || got.n != 2 {
		t.Fatalf("overflow block = %+v", got)
	}
	if got := s.Slots(); got != 16+1 {
		t.Fatalf("Slots = %d, want 17", got)
	}
}

// TestClearKeepsPagesZeroed: after Clear no block is materialized, the
// pages come back zeroed and are reused instead of allocated, and a
// second round leaves the same state a fresh store would.
func TestClearKeepsPagesZeroed(t *testing.T) {
	s := New[meta](Options{PageShift: 4})
	for _, b := range []int64{0, 5, 40, 1000, -3} {
		v := s.Ensure(b)
		v.touched, v.n = true, int(b)+7
	}
	held := s.heldPages()
	if held != 3 {
		t.Fatalf("heldPages = %d, want 3", held)
	}
	s.Clear()
	for b := int64(-8); b < 1100; b++ {
		if v := s.Lookup(b); v != nil {
			t.Fatalf("Lookup(%d) after Clear = %+v, want nil", b, v)
		}
	}
	if slots, pages, overflow := s.PageStats(); slots != 0 || pages != 0 || overflow != 0 {
		t.Fatalf("PageStats after Clear = (%d, %d, %d), want zeros", slots, pages, overflow)
	}
	if got := s.heldPages(); got != held {
		t.Fatalf("heldPages after Clear = %d, want %d kept", got, held)
	}
	// Materialize different pages: every slot they expose is zero, and
	// the spares are used up before anything new is allocated.
	for _, b := range []int64{300, 700, 2000} {
		s.Ensure(b)
	}
	s.Range(func(b int64, v *meta) bool {
		if *v != (meta{}) {
			t.Errorf("slot %d after Clear = %+v, want zero", b, *v)
		}
		return true
	})
	if got := s.heldPages(); got != held {
		t.Fatalf("heldPages after reuse = %d, want %d (spares reused)", got, held)
	}
	if got, want := s.HeldBytes(), held*16*int(unsafe.Sizeof(meta{})); got != want {
		t.Fatalf("HeldBytes = %d, want %d", got, want)
	}
	if s.Lookup(0) != nil || s.Lookup(-3) != nil {
		t.Fatal("cleared blocks reappeared")
	}
}
