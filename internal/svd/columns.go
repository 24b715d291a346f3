package svd

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Columnar fast path. StepColumns consumes the struct-of-arrays batch
// form (vm.EventBatch) that the wire decoder and the VM's columnar ring
// produce, so the served ingest path never materializes []vm.Event.
// Output is bit-identical to feeding the rows through Step one at a
// time: the differential test in internal/report chops batches at
// pathological boundaries and compares violations, witnesses, the
// a-posteriori log and stats against the per-event path.

// StepColumns processes one columnar batch (vm.ColumnObserver).
//
// The batch is walked as runs of same-thread events so the thread
// instance lookup happens once per run, and memory rows inside a run
// are further grouped into same-block sub-runs: the block id comes from
// the batch's Blocks column when its shift matches ours (computed once
// at append time by the producer) and is compared against the previous
// row's, so a sub-run resolves the thread's block state through the MRU
// cache's one-compare hit path after the first access and — once an
// access proves the block quiet — skips the remote fan-out for the rest
// of the sub-run outright. Quietness is stable within a sub-run because
// only the accessing thread can gain interest in the block between its
// own consecutive accesses, and a thread is excluded from its own
// fan-out; see fanout.
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
	peers := uint64(len(d.threads) - 1)
	// One event materialized in place per row. The variable lives outside
	// the loops so each iteration overwrites fields in the same stack slot
	// instead of building a fresh struct through a temporary — at ~72
	// bytes per Event the construct-and-copy showed up as a double-digit
	// ns/event tax on the served ingest path.
	var ev vm.Event
	for i := 0; i < n; {
		cpu := eb.CPU[i]
		t := d.threads[cpu]
		ev.CPU = int(cpu)
		j := i + 1
		for j < n && eb.CPU[j] == cpu {
			j++
		}
		// Sub-run state: the block of the previous memory row and whether
		// an access already proved it quiet. Any non-memory row is
		// interest-neutral, so it does not break a sub-run.
		var runB int64
		runLive, runQuiet := false, false
		for k := i; k < j; k++ {
			// Instructions advances per event, not per batch: observer
			// timestamps (recorder events, CU birth times) are derived
			// from it and must match the per-event path exactly.
			d.stats.Instructions++
			flags := eb.Flags[k]
			pc := eb.PC[k]
			ev.Seq = eb.Seq[k]
			ev.PC = pc
			ev.Instr = code[pc]
			ev.Addr = eb.Addr[k]
			ev.IsLoad = flags&vm.FlagLoad != 0
			ev.IsStore = flags&vm.FlagStore != 0
			ev.Taken = flags&vm.FlagTaken != 0
			in := &ev.Instr
			if flags&(vm.FlagLoad|vm.FlagStore) == 0 || !in.Op.IsMem() {
				t.local(&ev)
				if flags&(vm.FlagLoad|vm.FlagStore) != 0 {
					// Memory flags on a non-memory opcode: rows the VM never
					// emits and the validating deframer rejects, kept
					// behavior-identical to the per-event path for direct
					// callers. No sub-run bookkeeping — the fanout result
					// says nothing about load/store rows of the same block.
					d.fanout(&ev, ev.Addr>>shift)
				}
				continue
			}
			var b int64
			if blocks != nil {
				b = blocks[k]
			} else {
				b = ev.Addr >> shift
			}
			if !runLive || b != runB {
				runLive, runB, runQuiet = true, b, false
			}
			if len(t.ctrl) != 0 {
				t.popCtrl(pc)
			}
			switch in.Op {
			case isa.OpLoad:
				d.stats.Loads++
				t.load(&ev, b, in.Rd)
			case isa.OpStore:
				d.stats.Stores++
				t.store(&ev, b, in.Rs2, in.Rs1)
			case isa.OpCas:
				d.stats.Loads++
				t.load(&ev, b, in.Rd)
				if ev.IsStore {
					d.stats.Stores++
					t.store(&ev, b, in.Rs3, in.Rs1)
				}
			}
			if runQuiet || t.quietHit(b) {
				runQuiet = true
				d.stats.RemoteSkipped += peers
			} else {
				runQuiet = d.fanout(&ev, b)
			}
		}
		i = j
	}
}
