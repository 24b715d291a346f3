package frd

import (
	"fmt"

	"repro/internal/vm"
)

// StepColumns processes one columnar batch (vm.ColumnObserver),
// bit-identical to per-event Step on the equivalent rows. The happens-before
// detector only looks at memory operations, and the columnar form makes
// the skip cheap: rows whose flags carry neither load nor store are
// rejected on the flags column alone — one byte test, no program
// indexing, no Event materialized. The opcode test stays behind it as
// the authoritative filter: the flags byte and the opcode agree on
// every row the VM emits and the validating wire decoder (which
// enforces the per-PC flag class, see wire.Deframer) lets through, so
// the pre-skip never rejects a row the opcode test would keep.
//
// Bounds checks on PC are hoisted out of the row loop exactly as in
// svd.StepColumns: one OR-fold proves every PC in range before any row
// executes, and a failing batch poisons the detector (BatchErr reports
// a vm.ErrBadBatch; later batches are dropped) instead of half-applying.
//
// Block ids come from the batch's Blocks column when its shift matches
// ours, skipping the per-row shift the producer already paid for.
func (d *Detector) StepColumns(eb *vm.EventBatch) {
	if d.batchErr != nil {
		return
	}
	n := eb.Len()
	code := d.prog.Code
	codeLen := int64(len(code))
	var or int64
	for _, pc := range eb.PC {
		or |= pc | (codeLen - 1 - pc)
	}
	if or < 0 {
		d.batchErr = fmt.Errorf("%w: pc outside program of %d instructions", vm.ErrBadBatch, codeLen)
		return
	}
	// Bulk-advance: recorder timestamps within a batch see the
	// post-batch count. The counter itself matches per-event Step at
	// every batch boundary; only trace timestamps are batch-grained.
	d.stats.Instructions += uint64(n)
	shift := d.opts.BlockShift
	blocks := eb.Blocks
	if s, on := eb.BlockShift(); !on || s != shift {
		blocks = nil
	}
	// Materialized in place per memory row; hoisted for the same reason
	// as svd.StepColumns — overwriting one stack slot beats building a
	// fresh ~72-byte struct through a temporary on every row.
	var ev vm.Event
	for k := 0; k < n; k++ {
		flags := eb.Flags[k]
		if flags&(vm.FlagLoad|vm.FlagStore) == 0 {
			continue
		}
		pc := eb.PC[k]
		in := code[pc]
		if !in.Op.IsMem() {
			continue
		}
		ev.Seq = eb.Seq[k]
		ev.CPU = int(eb.CPU[k])
		ev.PC = pc
		ev.Instr = in
		ev.Addr = eb.Addr[k]
		ev.IsLoad = flags&vm.FlagLoad != 0
		ev.IsStore = flags&vm.FlagStore != 0
		ev.Taken = flags&vm.FlagTaken != 0
		var b int64
		if blocks != nil {
			b = blocks[k]
		} else {
			b = ev.Addr >> shift
		}
		d.stepMem(&ev, b)
	}
}
