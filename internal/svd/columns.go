package svd

import (
	"fmt"

	"repro/internal/vm"
)

// Columnar fast path. StepColumns consumes the struct-of-arrays batch
// form (vm.EventBatch) that the wire decoder and the VM's columnar ring
// produce, so the served ingest path never materializes []vm.Event.
// Output is bit-identical to feeding the rows through Step one at a
// time, for any batch: both paths run the same per-row instance code
// (mem, other, deliver), and the differential tests in internal/report
// chop batches at pathological boundaries and compare violations,
// witnesses, the a-posteriori log and stats against the per-event path.

// StepColumns processes one columnar batch (vm.ColumnObserver).
//
// The batch is walked as runs of same-thread events so the thread
// instance lookup happens once per run. No vm.Event is built: a memory
// row's sequence number, PC, thread and store bit travel as an access
// value, its instruction by pointer into the program, and its block id
// comes from the batch's Blocks column when its shift matches ours
// (computed once at append time by the producer). The opcode decides
// whether a row is a memory access, exactly as in Step; of the flags
// only the store bit is read.
//
// Bounds checks on PC are hoisted out of the row loop: one pass ORs
// every PC with its distance from the end of the program, so a single
// sign test proves the whole batch in-range before any row executes.
// A batch that fails poisons the detector — the batch is dropped,
// BatchErr reports a vm.ErrBadBatch, and every later batch is rejected
// — so a malformed stream cannot half-apply and then diverge from the
// per-event path. The VM and the validating wire decoder never produce
// such a batch; the preflight guards direct API callers.
func (d *Detector) StepColumns(eb *vm.EventBatch) {
	if d.batchErr != nil {
		return
	}
	code := d.prog.Code
	n := eb.Len()
	codeLen := int64(len(code))
	var or int64
	for _, pc := range eb.PC {
		or |= pc | (codeLen - 1 - pc)
	}
	if or < 0 {
		d.batchErr = fmt.Errorf("%w: pc outside program of %d instructions", vm.ErrBadBatch, codeLen)
		return
	}
	shift := d.opts.BlockShift
	blocks := eb.Blocks
	if s, on := eb.BlockShift(); !on || s != shift {
		blocks = nil
	}
	var a access
	for i := 0; i < n; {
		cpu := eb.CPU[i]
		t := d.threads[cpu]
		a.cpu = cpu
		j := i + 1
		for j < n && eb.CPU[j] == cpu {
			j++
		}
		for k := i; k < j; k++ {
			// Instructions advances per event, not per batch: observer
			// timestamps (recorder events, CU birth times) are derived
			// from it and must match the per-event path exactly.
			d.stats.Instructions++
			pc := eb.PC[k]
			in := &code[pc]
			if len(t.ctrl) != 0 {
				t.popCtrl(pc)
			}
			if !in.Op.IsMem() {
				t.other(pc, in)
				continue
			}
			a.seq, a.pc, a.store = eb.Seq[k], pc, eb.Flags[k]&vm.FlagStore != 0
			var b int64
			if blocks != nil {
				b = blocks[k]
			} else {
				b = eb.Addr[k] >> shift
			}
			d.deliver(a, b, t.mem(a, in, b))
		}
		i = j
	}
}
