package frd

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/vm"
)

// StepColumns processes one columnar batch (vm.ColumnObserver),
// bit-identical to per-event Step on the equivalent rows, for any
// batch. The happens-before detector only looks at data accesses: rows
// whose opcode is a memory operation and whose flags carry a load or
// store bit, the rule per-event Step applies too. The columnar form
// makes the skip cheap: rows whose flags carry neither bit are rejected
// on the flags column alone — one byte test, no program indexing, no
// Event materialized — and the opcode test follows.
//
// Bounds checks on PC are hoisted out of the row loop exactly as in
// svd.StepColumns: one OR-fold proves every PC in range before any row
// executes, and a failing batch poisons the detector (BatchErr reports
// a vm.ErrBadBatch; later batches are dropped) instead of half-applying.
//
// Block ids come from the batch's Blocks column when its shift matches
// ours, skipping the per-row shift the producer already paid for. No
// vm.Event is built: a data row's fields travel as an access value, as
// in svd.StepColumns.
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
	for k := 0; k < n; k++ {
		flags := eb.Flags[k]
		if flags&(vm.FlagLoad|vm.FlagStore) == 0 {
			continue
		}
		pc := eb.PC[k]
		op := code[pc].Op
		if !op.IsMem() {
			continue
		}
		var b int64
		if blocks != nil {
			b = blocks[k]
		} else {
			b = eb.Addr[k] >> shift
		}
		d.stepMem(access{
			seq: eb.Seq[k], pc: pc, cpu: int(eb.CPU[k]),
			load: flags&vm.FlagLoad != 0, store: flags&vm.FlagStore != 0, cas: op == isa.OpCas,
		}, b)
	}
}
