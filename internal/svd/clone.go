package svd

import (
	"repro/internal/blockstore"
	"repro/internal/obs"
)

// Clone deep-copies the detector. Backward error recovery snapshots the
// detector together with the machine: the paper's hardware BER keeps the
// detector's state (block FSMs, CU references) inside the checkpointed
// caches, so a rollback restores it — resetting the detector instead would
// blind it to any computational unit spanning a checkpoint boundary.
//
// Computational units are translated through a mapping so the clone's CU
// graph is disjoint from the original's; dead units (merged or cut) are
// dropped, which matches the lazy resolution the detector applies anyway.
// Clone units are ordinary heap allocations with one counted reference per
// installed slot, so the clone's arena works exactly like a fresh
// detector's.
func (d *Detector) Clone() *Detector {
	nd := &Detector{
		prog:   d.prog,
		opts:   d.opts,
		nextCU: d.nextCU,
		stats:  d.stats,
	}
	nd.violations = append([]Violation(nil), d.violations...)
	nd.groups = d.groups.Clone()
	nd.all = append([]obs.Witness(nil), d.all...)
	nd.logEntries = append([]LogEntry(nil), d.logEntries...)
	nd.logSeen = make(map[logKey]int, len(d.logSeen))
	for k, v := range d.logSeen {
		nd.logSeen[k] = v
	}
	if d.sites != nil {
		nd.sites = make(map[int64]*Site, len(d.sites))
		for k, s := range d.sites {
			cp := *s
			nd.sites[k] = &cp
		}
	}
	if d.ix != nil {
		nd.ix = blockstore.NewInterest(blockstore.Options{})
	}

	cuMap := make(map[*cu]*cu)
	translate := func(c *cu) *cu {
		if c == nil {
			return nil
		}
		c = d.find(c)
		if !c.active {
			return nil
		}
		if nc, ok := cuMap[c]; ok {
			return nc
		}
		nc := &cu{id: c.id, born: c.born, active: true}
		c.rs.forEach(func(b int64) bool { nc.rs.add(b); return true })
		c.ws.forEach(func(b int64) bool { nc.ws.add(b); return true })
		cuMap[c] = nc
		return nc
	}
	translateSet := func(set []*cu) []*cu {
		var out []*cu
		for _, c := range set {
			if nc := translate(c); nc != nil {
				out = append(out, nd.acquire(nc))
			}
		}
		return out
	}

	nd.threads = make([]*threadState, len(d.threads))
	for i, t := range d.threads {
		nt := &threadState{
			d:       nd,
			id:      t.id,
			blocks:  blockstore.New[blockState](blockstore.Options{}),
			nblocks: t.nblocks,
			depth:   t.depth,
		}
		t.blocks.Range(func(b int64, bs *blockState) bool {
			if !bs.touched {
				return true
			}
			if nd.ix != nil {
				nd.ix.Add(b, nt.id)
			}
			cp := *bs
			cp.cu = translate(bs.cu)
			if cp.cu != nil {
				nd.acquire(cp.cu)
			} else if bs.cu != nil {
				// The unit died; the block's FSM resets with it.
				cp.state = stIdle
				cp.conflict = false
			}
			*nt.blocks.Ensure(b) = cp
			return true
		})
		for r := range t.regs {
			nt.regs[r] = translateSet(t.regs[r])
		}
		nt.ctrl = make([]ctrlEntry, len(t.ctrl))
		for j, e := range t.ctrl {
			nt.ctrl[j] = ctrlEntry{
				cuSet:    translateSet(e.cuSet),
				reconvPC: e.reconvPC,
				depth:    e.depth,
			}
		}
		nd.threads[i] = nt
	}
	return nd
}

// CopyFrom rewinds the detector to a previously cloned state (the clone
// itself stays reusable).
func (d *Detector) CopyFrom(saved *Detector) {
	fresh := saved.Clone()
	*d = *fresh
	for _, t := range d.threads {
		t.d = d
	}
}
