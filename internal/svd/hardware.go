package svd

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/vm"
)

// This file explores the paper's §4.4 hardware SVD sketch: "multiprocessor
// caches can help store CUs; cache coherence protocols can help detect
// serializability violations". Instead of the software detector's perfect
// fan-out of every access to every instance, the Hardware wrapper routes
// remote-access messages through an MSI cache model: an instance hears
// about a remote access only when the coherence protocol actually delivers
// it an invalidation or downgrade, and it loses a block's detection state
// when the line is evicted — exactly the visibility a real cache-resident
// implementation would have. Comparing it against the software detector
// quantifies the detection cost of finite caches (BenchmarkHardwareSVD).

// StepLocal processes one instruction on its own CPU's instance only,
// without the software fan-out. Hardware-mode wrappers pair it with
// DeliverRemote.
func (d *Detector) StepLocal(ev *vm.Event) {
	d.stats.Instructions++
	t := d.threads[ev.CPU]
	if len(t.ctrl) != 0 {
		t.popCtrl(ev.PC)
	}
	if in := &ev.Instr; in.Op.IsMem() {
		t.mem(eventAccess(ev), in, d.block(ev.Addr))
	} else {
		t.other(ev.PC, in)
	}
}

// DeliverRemote delivers a remote-access message for ev to one instance —
// the hardware analogue of a snooped coherence transaction.
func (d *Detector) DeliverRemote(toCPU int, ev *vm.Event) {
	if !ev.Instr.Op.IsMem() || toCPU == ev.CPU {
		return
	}
	d.threads[toCPU].remote(eventAccess(ev), d.block(ev.Addr))
}

// EvictBlock drops one instance's state for a block, as when the cache
// line holding it is evicted: the FSM, conflict flag, and access history
// are gone. Any computational unit keeps its membership sets, but with the
// conflict flag lost the block can no longer trigger a violation.
func (d *Detector) EvictBlock(cpu int, block int64) {
	d.threads[cpu].evictBlock(block)
}

// Hardware is a vm.Observer running the detector with cache-mediated
// remote visibility.
type Hardware struct {
	Det    *Detector
	Caches *cache.Hierarchy

	blocksPerLine int64
}

// NewHardware builds a hardware-mode detector. The cache line size must be
// at least the detector block size.
func NewHardware(prog *isa.Program, numCPUs int, opts Options, ccfg cache.Config) (*Hardware, error) {
	ccfg = cache.Config{Sets: ccfg.Sets, Ways: ccfg.Ways, LineShift: ccfg.LineShift}
	if ccfg.LineShift < opts.BlockShift {
		return nil, fmt.Errorf("svd: cache lines (shift %d) smaller than detector blocks (shift %d)",
			ccfg.LineShift, opts.BlockShift)
	}
	return &Hardware{
		Det:           New(prog, numCPUs, opts),
		Caches:        cache.New(numCPUs, ccfg),
		blocksPerLine: 1 << (ccfg.LineShift - opts.BlockShift),
	}, nil
}

// Step implements vm.Observer.
func (hw *Hardware) Step(ev *vm.Event) {
	hw.Det.StepLocal(ev)
	if !ev.Instr.Op.IsMem() {
		return
	}
	res := hw.Caches.Access(ev.CPU, ev.Addr, ev.IsStore)
	for _, cpu := range res.Invalidated {
		hw.Det.DeliverRemote(cpu, ev)
	}
	for _, cpu := range res.Downgraded {
		hw.Det.DeliverRemote(cpu, ev)
	}
	if res.EvictedLine >= 0 {
		base := res.EvictedLine << (hw.Caches.Config().LineShift - hw.Det.opts.BlockShift)
		for i := int64(0); i < hw.blocksPerLine; i++ {
			hw.Det.EvictBlock(ev.CPU, base+i)
		}
	}
}
