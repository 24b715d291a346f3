package svd

// This file manages computational-unit storage. The detector allocates a
// CU for nearly every load of an untracked block and retires most of them
// within a few instructions (merged away by a store, or cut by a shared
// dependence); with the paper reporting thousands of CUs per million
// instructions, the allocator sits squarely on the hot path. Units are
// therefore carved from slab chunks (one heap allocation per cuSlabSize
// units) and recycled through a free list once provably unreachable.
//
// Reachability is tracked with reference counts. A CU is referenced from
// exactly four kinds of slots, and every assignment to one of those slots
// goes through acquire/release:
//
//   - blockState.cu        (a block's current unit)
//   - threadState.regs[r]  (register CU sets)
//   - ctrlEntry.cuSet      (Skipper control-stack sets)
//   - cu.parent            (union-find forwarding of merged units)
//
// Local variables never count: they are always shadowed by one of the
// slots above for the duration of their use (callers pin, see cut). When
// the last counted reference drops, the unit is unreachable — no future
// resolve, check, cut, or merge can see it — so it is reset and pushed
// onto the free list. Retirement (active=false) alone is NOT sufficient to
// recycle: stale references to a merged-away unit must keep forwarding to
// its union-find root until the last of them is lazily resolved away.
//
// Options.NoCUArena keeps the counting but never reuses memory, restoring
// the seed allocator's behavior for differential testing.

// cu is a computational unit: an inferred approximation of one dynamic
// atomic region, represented by its read (input) and write block sets
// (§4.3 "Represent CU with memory blocks, not dynamic instructions").
type cu struct {
	id     uint64
	born   uint64 // detector instruction count at creation (telemetry)
	parent *cu    // union-find forwarding set by merge_and_update
	active bool
	refs   int32    // counted references; see the file comment
	rs     blockSet // input blocks: read before written by this CU
	ws     blockSet // blocks written by this CU
}

// cuSlabSize is the slab chunk size: one heap allocation per this many
// fresh units.
const cuSlabSize = 256

// newCU returns a live, empty unit — from the free list when possible,
// else from the current slab chunk.
func (d *Detector) newCU() *cu {
	d.nextCU++
	d.stats.CUsCreated++
	var c *cu
	if n := len(d.free); n > 0 {
		c = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		d.stats.CUsReused++
	} else {
		if len(d.slab) == 0 {
			d.slab = d.nextSlab()
		}
		c = &d.slab[0]
		d.slab = d.slab[1:]
		d.stats.CUsAllocated++
	}
	c.id = d.nextCU
	c.born = d.stats.Instructions
	c.active = true
	return c
}

// nextSlab returns the next chunk to carve units from: one already
// carved before the last Reset when there is one, else a fresh
// allocation. Under NoCUArena chunks are never kept.
func (d *Detector) nextSlab() []cu {
	if d.nslab < len(d.slabs) {
		s := d.slabs[d.nslab]
		d.nslab++
		return s
	}
	s := make([]cu, cuSlabSize)
	if !d.opts.NoCUArena {
		d.slabs = append(d.slabs, s)
		d.nslab++
	}
	return s
}

// rewindArena is Reset's half of the arena: every unit carved so far
// becomes uncarved storage again. The chunks are zeroed, which also
// drops spill storage and forwarding links, and are carved again in
// order — as fresh allocations in the stats, so a reset detector counts
// CUsAllocated and CUsReused exactly as a new one does.
func (d *Detector) rewindArena() {
	for _, s := range d.slabs[:d.nslab] {
		clear(s)
	}
	d.nslab = 0
	d.slab = nil
	clear(d.free)
	d.free = d.free[:0]
}

// acquire records a new counted reference to c.
func (d *Detector) acquire(c *cu) *cu {
	c.refs++
	return c
}

// release drops a counted reference; the last one reclaims the unit.
func (d *Detector) release(c *cu) {
	c.refs--
	if c.refs == 0 {
		d.reclaim(c)
	}
}

// reclaim recycles an unreachable unit: its forwarding reference is
// dropped (cascading reclamation up dead union-find chains) and its
// storage returns to the free list.
func (d *Detector) reclaim(c *cu) {
	if p := c.parent; p != nil {
		c.parent = nil
		d.release(p)
	}
	c.active = false
	c.rs.reset()
	c.ws.reset()
	if d.opts.NoCUArena {
		return
	}
	d.stats.CUsRecycled++
	d.free = append(d.free, c)
}

// find resolves union-find forwarding with path compression, keeping
// reference counts consistent as parent slots are rewritten. A root —
// the common case once chains compress — inlines to one nil test.
func (d *Detector) find(c *cu) *cu {
	if c.parent == nil {
		return c
	}
	return d.findSlow(c)
}

func (d *Detector) findSlow(c *cu) *cu {
	for c.parent != nil {
		p := c.parent
		if pp := p.parent; pp != nil {
			d.acquire(pp)
			c.parent = pp
			d.release(p)
			c = pp
		} else {
			c = p
		}
	}
	return c
}

// resolve returns the live root units referenced by a register or control
// set, rewriting the set in place. The set owns one counted reference per
// element; dropped and forwarded elements have their references released
// or transferred accordingly.
func (d *Detector) resolve(set []*cu) []*cu {
	out := set[:0]
	for _, c := range set {
		root := d.find(c)
		if !root.active {
			d.release(c)
			continue
		}
		dup := false
		for _, p := range out {
			if p == root {
				dup = true
				break
			}
		}
		if dup {
			d.release(c)
			continue
		}
		if root != c {
			d.acquire(root)
			d.release(c)
		}
		out = append(out, root)
	}
	for i := len(out); i < len(set); i++ {
		set[i] = nil
	}
	return out
}

// releaseSet releases every reference a set owns and clears it.
func (d *Detector) releaseSet(set []*cu) {
	for i, c := range set {
		d.release(c)
		set[i] = nil
	}
}
