package blockstore

import "math/bits"

// This file provides the global block interest index. Both detectors pay
// their remote-propagation cost per memory instruction: the software SVD
// fans every access out to every other thread instance, and FRD's write
// check scans every thread's read epoch. Server workloads are dominated by
// thread-private blocks (stacks, per-request scratch), so almost all of
// that fan-out lands on threads that hold no state for the block and
// return immediately — O(NumCPUs) work per instruction to discover "no one
// cares". The interest index inverts the question: for each block it keeps
// the compact set of thread ids that currently hold materialized state, so
// a propagating access visits exactly the threads that could react. A
// block whose sole owner is the accessor takes a zero-broadcast fast path.
//
// Correctness rests on one invariant: the set for block b must include
// every thread whose detector instance has materialized ("touched") state
// for b. Over-approximation is harmless — delivering to a thread without
// state is the same no-op it always was — but a missing member would
// silently drop a conflict. Maintainers are the materialization points
// (svd ensureBlock, frd read-epoch installation) and the teardown points
// (svd evictBlock in hardware mode, frd write invalidation).

// ThreadSet is a compact set of thread ids attached to one block. Ids
// 0..63 are tracked precisely as bits; ids >= 64 fold into a shared
// count, which over-approximates membership (all high threads are visited
// while any holds state) — precision degrades gracefully, correctness
// does not. Callers must keep Add/Remove balanced per (thread, block)
// state transition: Add only when state materializes, Remove only when it
// is torn down, never twice.
type ThreadSet struct {
	bits uint64
	hi   int32 // members with id >= 64
}

// Add inserts tid.
func (s *ThreadSet) Add(tid int) {
	if tid < 64 {
		s.bits |= 1 << uint(tid)
	} else {
		s.hi++
	}
}

// Remove deletes tid.
func (s *ThreadSet) Remove(tid int) {
	if tid < 64 {
		s.bits &^= 1 << uint(tid)
	} else if s.hi > 0 {
		s.hi--
	}
}

// Clear empties the set.
func (s *ThreadSet) Clear() { *s = ThreadSet{} }

// Empty reports whether no thread is interested.
func (s ThreadSet) Empty() bool { return s.bits == 0 && s.hi == 0 }

// Only reports whether tid is the sole member (the zero-broadcast fast
// path). For tid >= 64 the fold makes sole membership unknowable, so it
// conservatively reports false.
func (s ThreadSet) Only(tid int) bool {
	if tid < 64 {
		return s.hi == 0 && s.bits == 1<<uint(tid)
	}
	return false
}

// Has reports whether tid may be a member (precise below 64,
// over-approximate above).
func (s ThreadSet) Has(tid int) bool {
	if tid < 64 {
		return s.bits&(1<<uint(tid)) != 0
	}
	return s.hi > 0
}

// Bits returns the membership mask of threads 0..63.
func (s ThreadSet) Bits() uint64 { return s.bits }

// HasHigh reports whether any thread with id >= 64 is a member.
func (s ThreadSet) HasHigh() bool { return s.hi > 0 }

// Len returns the member count (high threads count individually).
func (s ThreadSet) Len() int { return bits.OnesCount64(s.bits) + int(s.hi) }

// ForEach calls f for every member except exclude, in ascending id order
// (high-folded ids visit every thread in [64, numThreads)). The hot paths
// iterate Bits inline instead; this is the convenience form for tests and
// cold paths.
func (s ThreadSet) ForEach(exclude, numThreads int, f func(tid int)) {
	mask := s.bits
	if exclude >= 0 && exclude < 64 {
		mask &^= 1 << uint(exclude)
	}
	for rest := mask; rest != 0; rest &= rest - 1 {
		f(bits.TrailingZeros64(rest))
	}
	if s.hi > 0 {
		for tid := 64; tid < numThreads; tid++ {
			if tid != exclude {
				f(tid)
			}
		}
	}
}

// Interest is the global block interest index: one ThreadSet per block,
// stored in the same paged flat layout as the per-thread metadata so the
// per-access lookup is array indexing. One Interest is shared by all
// thread instances of a detector; it is not safe for concurrent use (the
// detectors are single-goroutine per sample, like the rest of their
// state).
type Interest struct {
	store *Store[ThreadSet]

	// gen counts membership mutations. Consumers caching a (block →
	// ThreadSet) pair compare generations instead of re-probing the store:
	// a matching generation proves no Add/Remove ran since the set was
	// read, so the cached copy is still the set the store would return.
	gen uint64
}

// NewInterest builds an empty index.
func NewInterest(opts Options) *Interest {
	return &Interest{store: New[ThreadSet](opts)}
}

// Add records tid's interest in block b.
func (ix *Interest) Add(b int64, tid int) {
	ix.gen++
	ix.store.Ensure(b).Add(tid)
}

// Remove drops tid's interest in block b.
func (ix *Interest) Remove(b int64, tid int) {
	ix.gen++
	if s := ix.store.Lookup(b); s != nil {
		s.Remove(tid)
	}
}

// Clear drops every membership, keeping the index's pages for reuse
// (Store.Clear). The generation advances, never rewinds, so a set cached
// before the clear can never pass for a current one.
func (ix *Interest) Clear() {
	ix.gen++
	ix.store.Clear()
}

// HeldBytes reports the memory the index's pages hold, spares included.
func (ix *Interest) HeldBytes() int { return ix.store.HeldBytes() }

// Gen returns the mutation generation. Any Add or Remove changes it, so
// equal generations bracket an interval over which every cached Get
// result is still exact.
func (ix *Interest) Gen() uint64 { return ix.gen }

// Get returns block b's interest set by value (the empty set for blocks
// never recorded).
func (ix *Interest) Get(b int64) ThreadSet {
	if s := ix.store.Lookup(b); s != nil {
		return *s
	}
	return ThreadSet{}
}

// Population returns the total membership across all blocks — the index's
// size in (thread, block) pairs. Leak checks compare it against the
// detectors' own touched-block accounting.
func (ix *Interest) Population() int {
	total := 0
	ix.store.Range(func(_ int64, s *ThreadSet) bool {
		total += s.Len()
		return true
	})
	return total
}
