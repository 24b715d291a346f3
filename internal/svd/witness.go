package svd

import (
	"slices"

	"repro/internal/obs"
)

// Witness assembly for the violation flight recorder (DESIGN.md §9). All
// of this runs only at report time, on the cold path behind a confirmed
// strict-2PL violation; the hot path's whole contribution is the ring
// append in load/store.

// foldWitness folds violation v into its site-pair group. Only a
// violation that opens a group (while fewer than MaxViolations groups
// exist) assembles a witness, counted in Stats.Witnesses and handed to
// the recorder; every later one at the pair only bumps the count. With
// WitnessAll every violation under the retention cap also assembles its
// own witness into the flat list, in the violations slice's order.
func (t *threadState) foldWitness(v Violation, c *cu, bs *blockState) {
	d := t.d
	var w obs.Witness
	built := false
	if !d.groups.Bump("svd", v.StorePC, v.ConflictPC) && d.groups.Len() < d.opts.MaxViolations {
		w, built = t.buildWitness(v, c, bs), true
		d.stats.Witnesses++
		if r := d.rec; r != nil {
			r.Witness(&w)
		}
		d.groups.Open(w)
	}
	if d.opts.WitnessAll && len(d.all) < d.opts.MaxViolations {
		if !built {
			w = t.buildWitness(v, c, bs)
		}
		d.all = append(d.all, w)
	}
}

// buildWitness captures the evidence behind one violation: the victim
// unit's footprint, the local access that pulled the conflicted block into
// the unit, the conflicting remote access, and the interleaving window
// sliced from the victim's and the conflicting thread's access rings.
func (t *threadState) buildWitness(v Violation, c *cu, bs *blockState) obs.Witness {
	w := obs.Witness{
		Detector: "svd",
		Seq:      v.Seq,
		CPU:      v.CPU,
		PC:       v.StorePC,
		Block:    v.Block,
		CU:       v.CU,
		Inputs:   footprint(&c.rs),
		Outputs:  footprint(&c.ws),
		Conflict: obs.WitnessAccess{
			CPU:   v.ConflictCPU,
			PC:    v.ConflictPC,
			Block: v.Block,
			Write: bs.conflictWrite,
			Seq:   v.ConflictSeq,
		},
	}
	// The stale input: the unit's read of the block the remote access
	// invalidated. Blocks checked through ws (CheckAllBlocks) may carry
	// only a local write.
	if bs.hasLocalLoad {
		w.Stale = &obs.WitnessAccess{CPU: t.id, PC: int64(bs.localLoadPC), Block: v.Block, Seq: bs.localLoadSeq, CU: c.id}
	} else if bs.hasLocalWrite {
		w.Stale = &obs.WitnessAccess{CPU: t.id, PC: int64(bs.localWritePC), Block: v.Block, Write: true, Seq: bs.localWriteSeq, CU: c.id}
	}

	var remote *obs.AccessRing
	if v.ConflictCPU >= 0 && v.ConflictCPU < len(t.d.threads) && v.ConflictCPU != t.id {
		remote = t.d.threads[v.ConflictCPU].ring
	}
	// The reporting store itself enters the ring only after the check,
	// so it closes the window explicitly; the conflicting access opens
	// it when the remote ring has already evicted it (everything
	// retained is newer, so the window stays sorted).
	w.Window = obs.Window(t.ring, remote, v.Seq, t.d.opts.WitnessRing-1,
		obs.WitnessAccess{CPU: t.id, PC: v.StorePC, Block: v.Block, Write: true, Seq: v.Seq, CU: c.id}, w.Conflict)
	return w
}

// footprint snapshots a block set as a sorted slice capped at
// obs.MaxFootprintBlocks.
func footprint(s *blockSet) []int64 {
	if s.len() == 0 {
		return nil
	}
	out := make([]int64, s.len())
	for i := range out {
		out[i] = s.at(i)
	}
	slices.Sort(out)
	if len(out) > obs.MaxFootprintBlocks {
		out = append([]int64(nil), out[:obs.MaxFootprintBlocks]...)
	}
	return out
}
