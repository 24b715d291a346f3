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
// (svd evictBlock in hardware mode, frd write invalidation). Each entry
// also carries a Marked subset of its members that the detector defines;
// SVD keeps its read-reactive holders there (DESIGN.md §8).

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

// Interest is the global block interest index: one Entry per block,
// stored in the same paged flat layout as the per-thread metadata so the
// per-access lookup is array indexing. One Interest is shared by all
// thread instances of a detector; it is not safe for concurrent use (the
// detectors are single-goroutine per sample, like the rest of their
// state). Clear zeroes only the entries the run created.
type Interest struct {
	store *Store[Entry]
}

// Entry is one block's interest record: the threads holding state for
// it, and Marked, a subset of those members below 64 that the detector
// defines and maintains itself (SVD keeps the holders a remote read can
// still change there). Add never sets a Marked bit; Remove clears the
// member's.
type Entry struct {
	Holders ThreadSet
	Marked  uint64
}

// NewInterest builds an empty index.
func NewInterest(opts Options) *Interest {
	return &Interest{store: New[Entry](opts)}
}

// Add records tid's interest in block b and returns the members b had
// before it.
func (ix *Interest) Add(b int64, tid int) (prior ThreadSet) {
	e := ix.store.Ensure(b)
	prior = e.Holders
	if prior.Empty() {
		ix.store.Wrote(b)
	}
	e.Holders.Add(tid)
	return prior
}

// Remove drops tid's interest in block b.
func (ix *Interest) Remove(b int64, tid int) {
	if e := ix.store.Lookup(b); e != nil {
		e.Holders.Remove(tid)
		if tid < 64 {
			e.Marked &^= 1 << uint(tid)
		}
	}
}

// Clear drops every membership, keeping the index's pages for reuse
// (Store.Clear).
func (ix *Interest) Clear() { ix.store.Clear() }

// HeldBytes reports the memory the index's pages hold, spares included.
func (ix *Interest) HeldBytes() int { return ix.store.HeldBytes() }

// Get returns block b's interest set by value (the empty set for blocks
// never recorded).
func (ix *Interest) Get(b int64) ThreadSet {
	if e := ix.store.Lookup(b); e != nil {
		return e.Holders
	}
	return ThreadSet{}
}

// Entry returns block b's record for in-place use, or nil when no block
// of its page was ever recorded. The pointer stays valid until Clear.
func (ix *Interest) Entry(b int64) *Entry { return ix.store.Lookup(b) }

// Population returns the total membership across all blocks — the index's
// size in (thread, block) pairs. Leak checks compare it against the
// detectors' own touched-block accounting.
func (ix *Interest) Population() int {
	total := 0
	ix.store.Range(func(_ int64, e *Entry) bool {
		total += e.Holders.Len()
		return true
	})
	return total
}
