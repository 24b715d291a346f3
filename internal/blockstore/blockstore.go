// Package blockstore provides the flat per-block metadata store backing
// the detectors' hot paths.
//
// Both online detectors (svd, frd) consult per-block metadata on every
// memory access. The paper's practicality argument (§7.3) hinges on that
// per-access cost being a small constant: SVD's space overhead is "a CU
// pointer for each memory block", which in hardware is an indexed lookup,
// not a hash probe. The VM's address space is word-addressed and dense
// (workloads size memory at 2^16-2^18 words), so the natural software
// analogue is a two-level page table of dense pages: the per-access lookup
// is two array indexes and a mask instead of a map probe, and pages are
// materialized only for the address ranges a thread actually touches.
//
// Block numbers outside the dense range (negative, or beyond MaxPages
// pages) transparently overflow into a map.
//
// A store outlives one run: Clear empties it for the next while keeping
// the pages it materialized, zeroed, for Ensure to hand out again, so a
// detector reused across streams stops allocating (and collecting) its
// block tables once warm. From its first Clear on, a store lists the
// slots its caller names with Wrote, and the caller must name every
// slot it writes: Clear then zeroes only those, so its cost follows what
// the run touched rather than the pages it spread over.
package blockstore

import "unsafe"

// DefaultPageShift sizes pages at 1<<9 = 512 entries: small enough that a
// thread touching one hot region does not commit megabytes, large enough
// that the page table stays short for the VM's 2^16-2^18-word memories.
const DefaultPageShift = 9

// defaultMaxPages caps the dense page table at 2^15 pages (2^24 blocks at
// the default page size); blocks beyond it fall into the overflow map.
const defaultMaxPages = 1 << 15

// Options configure a Store.
type Options struct {
	// PageShift selects pages of 1<<PageShift entries; zero means
	// DefaultPageShift.
	PageShift uint

	// MaxPages bounds the dense page table; zero means a 2^15-page cap.
	// Blocks at or beyond MaxPages<<PageShift go to the overflow map.
	MaxPages int
}

// Store is a paged flat store of per-block metadata of type T, indexed by
// block number. The zero value of T must represent "no metadata recorded";
// dense slots are materialized a page at a time, already zeroed.
type Store[T any] struct {
	pageShift uint
	mask      int64
	maxPages  int
	pages     [][]T
	overflow  map[int64]*T

	// spare holds the zeroed pages Clear detached, each at the page
	// index it served (nspare of them): ensureSlow takes the page back
	// for the same index, so a run that touches the blocks the last one
	// did finds their slots where Clear's zeroing left them in cache,
	// and otherwise takes any spare (the next after scan) before
	// allocating.
	spare  [][]T
	nspare int
	scan   int

	// From the first Clear on (listing; a store never cleared keeps no
	// list): written lists the blocks Wrote named since the last Clear,
	// npages counts the dense pages materialized since then, and over
	// marks a list that outgrew its bound (a quarter of those pages'
	// slots), past which Clear zeroes whole pages and Wrote stops
	// recording.
	listing bool
	written []int64
	npages  int
	over    bool
}

// New builds an empty store.
func New[T any](opts Options) *Store[T] {
	if opts.PageShift == 0 {
		opts.PageShift = DefaultPageShift
	}
	if opts.MaxPages <= 0 {
		opts.MaxPages = defaultMaxPages
	}
	return &Store[T]{
		pageShift: opts.PageShift,
		mask:      (int64(1) << opts.PageShift) - 1,
		maxPages:  opts.MaxPages,
	}
}

// Lookup returns the slot for block b, or nil if no page (or overflow
// entry) has been materialized for it. A non-nil result may still be a
// zero T: pages materialize 1<<PageShift neighbors at once, and it is the
// caller's convention (e.g. a touched flag in T) that distinguishes a
// recorded block from a zeroed neighbor.
func (s *Store[T]) Lookup(b int64) *T {
	if b >= 0 {
		pi := b >> s.pageShift
		if pi < int64(len(s.pages)) {
			if p := s.pages[pi]; p != nil {
				return &p[b&s.mask]
			}
			return nil
		}
		if pi < int64(s.maxPages) {
			return nil
		}
	}
	return s.overflow[b]
}

// Ensure returns the slot for block b, materializing its page (or
// overflow entry) if needed. The materialized-page case is kept small
// enough to inline into the detectors' per-access paths.
func (s *Store[T]) Ensure(b int64) *T {
	if b >= 0 {
		pi := b >> s.pageShift
		if pi < int64(len(s.pages)) {
			if p := s.pages[pi]; p != nil {
				return &p[b&s.mask]
			}
		}
	}
	return s.ensureSlow(b)
}

func (s *Store[T]) ensureSlow(b int64) *T {
	if b >= 0 {
		pi := b >> s.pageShift
		if pi < int64(s.maxPages) {
			if pi >= int64(len(s.pages)) {
				grown := make([][]T, pi+1)
				copy(grown, s.pages)
				s.pages = grown
			}
			if s.pages[pi] == nil {
				s.pages[pi] = s.newPage(pi)
				s.npages++
			}
			return &s.pages[pi][b&s.mask]
		}
	}
	if s.overflow == nil {
		s.overflow = make(map[int64]*T)
	}
	v := s.overflow[b]
	if v == nil {
		v = new(T)
		s.overflow[b] = v
	}
	return v
}

// newPage returns a zeroed page for page index pi: the spare Clear
// detached from pi, else any spare, else a new one.
func (s *Store[T]) newPage(pi int64) []T {
	if s.nspare > 0 {
		if pi >= int64(len(s.spare)) || s.spare[pi] == nil {
			for s.spare[s.scan] == nil {
				s.scan++
			}
			pi = int64(s.scan)
		}
		p := s.spare[pi]
		s.spare[pi] = nil
		s.nspare--
		return p
	}
	return make([]T, 1<<s.pageShift)
}

// Wrote records that the caller wrote block b's slot, for Clear.
// Naming a slot twice, or one already zero, is harmless.
func (s *Store[T]) Wrote(b int64) {
	if !s.listing || s.over {
		return
	}
	if len(s.written) >= s.npages<<s.pageShift>>2 {
		s.over = true
		return
	}
	s.written = append(s.written, b)
}

// Delete clears block b's slot back to the zero T (dense) or removes its
// entry (overflow). Pages are not reclaimed.
func (s *Store[T]) Delete(b int64) {
	if b >= 0 {
		pi := b >> s.pageShift
		if pi < int64(len(s.pages)) {
			if p := s.pages[pi]; p != nil {
				var zero T
				p[b&s.mask] = zero
			}
			return
		}
		if pi < int64(s.maxPages) {
			return
		}
	}
	delete(s.overflow, b)
}

// Range calls f for every materialized slot until f returns false. Dense
// pages are visited in block order and include zero-valued neighbors of
// recorded blocks; overflow entries follow in unspecified order.
func (s *Store[T]) Range(f func(b int64, v *T) bool) {
	for pi, p := range s.pages {
		if p == nil {
			continue
		}
		base := int64(pi) << s.pageShift
		for i := range p {
			if !f(base+int64(i), &p[i]) {
				return
			}
		}
	}
	for b, v := range s.overflow {
		if !f(b, v) {
			return
		}
	}
}

// Reset drops all pages and overflow entries.
func (s *Store[T]) Reset() {
	s.pages = nil
	s.overflow = nil
	s.spare, s.nspare, s.scan = nil, 0, 0
	s.written, s.npages, s.over, s.listing = nil, 0, false, false
}

// Clear empties the store like Reset but keeps its pages: each
// materialized page is zeroed and detached, so Lookup answers nil for
// every block again and PageStats counts only what is materialized
// after the clear, while Ensure reuses the detached pages before it
// allocates. Only pages materialized since the last Clear are zeroed,
// and only the slots Wrote named when the list stayed within its bound;
// a first Clear zeroes whole pages. Overflow entries are dropped.
func (s *Store[T]) Clear() {
	whole := !s.listing || s.over
	if !whole {
		var zero T
		for _, b := range s.written {
			if pi := b >> s.pageShift; b >= 0 && pi < int64(len(s.pages)) {
				if p := s.pages[pi]; p != nil {
					p[b&s.mask] = zero
				}
			}
		}
	}
	if len(s.spare) < len(s.pages) {
		s.spare = append(s.spare, make([][]T, len(s.pages)-len(s.spare))...)
	}
	for pi, p := range s.pages {
		if p != nil {
			if whole {
				clear(p)
			}
			// Free: a page takes its index's spare when it materializes.
			s.spare[pi] = p
			s.nspare++
			s.pages[pi] = nil
		}
	}
	s.scan = 0
	s.overflow = nil
	s.written, s.npages, s.over, s.listing = s.written[:0], 0, false, true
}

// heldPages reports the dense pages the store holds: materialized ones
// plus the spares Clear kept for reuse.
func (s *Store[T]) heldPages() int {
	_, pages, _ := s.PageStats()
	return pages + s.nspare
}

// HeldBytes reports the memory of the dense pages the store holds —
// materialized ones plus the spares Clear kept for reuse — page table
// and overflow entries aside.
func (s *Store[T]) HeldBytes() int {
	var zero T
	return s.heldPages() << s.pageShift * int(unsafe.Sizeof(zero))
}

// Slots reports the number of materialized slots (dense page entries plus
// overflow entries) — the store's space commitment in units of T.
func (s *Store[T]) Slots() int {
	slots, _, overflow := s.PageStats()
	return slots + overflow
}

// PageStats breaks the store's space commitment down for occupancy
// telemetry: slots is the dense entries committed, pages the materialized
// dense pages they span, and overflow the map-backed entries.
func (s *Store[T]) PageStats() (slots, pages, overflow int) {
	for _, p := range s.pages {
		if p != nil {
			pages++
			slots += len(p)
		}
	}
	return slots, pages, len(s.overflow)
}
