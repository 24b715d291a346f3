// Package vm implements a deterministic multiprocessor virtual machine for
// the isa package's instruction set.
//
// The machine plays the role Simics plays in the paper (§6.1): it provides
// a deterministic, replayable execution environment in which one simulated
// CPU runs each workload thread (the paper approximates threads with
// processors, §4.3), memory is sequentially consistent and word-addressed,
// and a detector can observe every dynamic instruction without perturbing
// the execution. Starting from the same seed, the interleaving of the CPUs
// is always identical, which is what makes post-mortem replay with a
// detector attached meaningful.
package vm

import (
	"fmt"

	"repro/internal/isa"
)

// ScheduleMode selects how the scheduler interleaves CPUs.
type ScheduleMode int

const (
	// Interleave picks a random runnable CPU for each quantum of a random
	// length in [1, MaxQuantum]. This is the normal, bug-exposing mode.
	Interleave ScheduleMode = iota

	// Serialize runs each runnable CPU for very long quanta in round-robin
	// order, switching only on Yield or Halt. Backward error recovery
	// re-executes in this mode to avoid recurrence of a detected
	// serializability violation (§1.1).
	Serialize

	// TimingFirst advances per-CPU cycle clocks using the configured cost
	// model and always runs the CPU with the smallest virtual time — the
	// timing-first simulation style of the paper's Wisconsin SMP model
	// [Mauer, Hill & Wood 2002]. Interleavings then follow modeled
	// latencies (cache misses stall a CPU relative to the others) instead
	// of a random quantum lottery. A small seeded jitter keeps ties and
	// lockstep phases from being degenerate.
	TimingFirst
)

// CostModel assigns a latency in cycles to each executed instruction.
// Implementations may keep state (e.g. a cache model); they are consulted
// once per instruction in execution order.
type CostModel interface {
	Cost(ev *Event) uint64
}

// FixedCost is a stateless cost model: ALU and control instructions take
// one cycle, memory accesses take MemCost.
type FixedCost struct {
	MemCost uint64
}

// Cost implements CostModel.
func (c FixedCost) Cost(ev *Event) uint64 {
	if ev.Instr.Op.IsMem() {
		if c.MemCost == 0 {
			return 3
		}
		return c.MemCost
	}
	return 1
}

// Config parameterizes a machine.
type Config struct {
	// NumCPUs is the number of simulated processors (= workload threads).
	NumCPUs int

	// MemWords is the size of shared memory in 64-bit words.
	MemWords int64

	// StackWords is the size of each CPU's stack region, carved from the
	// top of memory. CPU i's stack pointer starts at
	// MemWords - i*StackWords and grows down.
	StackWords int64

	// Seed determines the interleaving. The same seed replays the same
	// execution exactly.
	Seed uint64

	// MaxQuantum bounds the number of instructions a CPU runs before the
	// scheduler may switch (Interleave mode). Must be >= 1; a value of 1
	// interleaves at instruction granularity.
	MaxQuantum int

	// Mode selects the scheduling policy.
	Mode ScheduleMode

	// Cost is the cycle cost model used by TimingFirst mode; nil means
	// FixedCost{}.
	Cost CostModel

	// BatchCap sizes the columnar event ring serving AttachColumns
	// observers: events buffer until the ring fills or the run reaches a
	// stopping point, then flush as one StepColumns call. Zero means
	// DefaultBatchCap.
	BatchCap int
}

func (c Config) withDefaults() Config {
	if c.NumCPUs <= 0 {
		c.NumCPUs = 2
	}
	if c.MemWords <= 0 {
		c.MemWords = DefaultMemWords
	}
	if c.StackWords <= 0 {
		c.StackWords = 1 << 10
	}
	if c.MaxQuantum <= 0 {
		c.MaxQuantum = 16
	}
	if c.BatchCap <= 0 {
		c.BatchCap = DefaultBatchCap
	}
	return c
}

// Event describes one executed dynamic instruction. Observers receive a
// pointer to a reused Event and must not retain it across calls.
type Event struct {
	Seq   uint64 // global sequence number: the program trace total order (§3.1)
	CPU   int    // executing processor (= thread id)
	PC    int64  // program counter of the instruction
	Instr isa.Instr

	// Memory effects. A load has IsLoad set; a store has IsStore set. A
	// CAS always loads and additionally stores when it succeeds.
	Addr    int64
	IsLoad  bool
	IsStore bool
	Loaded  int64 // value read (loads and CAS)
	Stored  int64 // value written (stores and successful CAS)

	// Taken reports the outcome of a conditional branch.
	Taken bool
}

// Observer receives every dynamic instruction in execution order. The
// detector implementations attach as observers; they are entirely hidden
// from the simulated program, as in the paper.
type Observer interface {
	Step(ev *Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ev *Event)

// Step calls f(ev).
func (f ObserverFunc) Step(ev *Event) { f(ev) }

// DefaultMemWords is the shared-memory size when Config.MemWords is zero.
const DefaultMemWords = 1 << 16

// DefaultBatchCap is the event ring capacity when Config.BatchCap is zero:
// large enough to amortize the per-batch dispatch, small enough that the
// ring's columns stay cache-resident.
const DefaultBatchCap = 512

// CPUState is the architectural state of one processor.
type CPUState struct {
	Regs   [isa.NumRegs]int64
	PC     int64
	Halted bool
}

// Fault describes a runtime fault (bad memory access, division by zero,
// invalid jump target). Faults abort the run; the workloads in this
// repository fault only when a concurrency bug corrupts an index — which is
// itself a signal (the MySQL prepared-query bug crashes the server, §2.3).
type Fault struct {
	CPU  int
	PC   int64
	Seq  uint64
	Why  string
	Code isa.Instr
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("vm: fault on cpu %d at pc %d (seq %d): %s [%s]", f.CPU, f.PC, f.Seq, f.Why, f.Code)
}

// VM is a running machine instance.
type VM struct {
	cfg  Config
	prog *isa.Program

	mem  []int64
	cpus []CPUState

	rng         rngState
	seq         uint64
	running     int      // count of non-halted CPUs
	cur         int      // CPU owning the current quantum
	quantum     int      // instructions left in the current quantum
	cycles      []uint64 // per-CPU virtual time (TimingFirst mode)
	observers   []Observer
	colObs      []ColumnObserver
	cols        *EventBatch // pending events for columnar observers
	colShift    uint        // Blocks-column shift for cols (SetColumnBlockShift)
	colShiftSet bool

	ev Event // reused event buffer
}

// New boots prog on a machine with the given configuration. The data image
// is copied into memory at prog.DataBase; each CPU's SP and TID registers
// are initialized, and PCs are set from prog.Entries. CPUs beyond the entry
// table halt immediately.
func New(prog *isa.Program, cfg Config) (*VM, error) {
	cfg = cfg.withDefaults()
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if int64(cfg.NumCPUs)*cfg.StackWords > cfg.MemWords {
		return nil, fmt.Errorf("vm: %d CPUs x %d stack words exceed %d memory words",
			cfg.NumCPUs, cfg.StackWords, cfg.MemWords)
	}
	if prog.DataBase+int64(len(prog.Data)) > cfg.MemWords-int64(cfg.NumCPUs)*cfg.StackWords {
		return nil, fmt.Errorf("vm: data segment [%d,%d) collides with stacks",
			prog.DataBase, prog.DataBase+int64(len(prog.Data)))
	}
	m := &VM{
		cfg:    cfg,
		prog:   prog,
		mem:    make([]int64, cfg.MemWords),
		cpus:   make([]CPUState, cfg.NumCPUs),
		rng:    newRNG(cfg.Seed),
		cycles: make([]uint64, cfg.NumCPUs),
	}
	if m.cfg.Cost == nil {
		m.cfg.Cost = FixedCost{}
	}
	copy(m.mem[prog.DataBase:], prog.Data)
	for i := range m.cpus {
		c := &m.cpus[i]
		c.Regs[isa.RegSP] = cfg.MemWords - int64(i)*cfg.StackWords
		c.Regs[isa.RegTID] = int64(i)
		if i < len(prog.Entries) {
			c.PC = prog.Entries[i]
			m.running++
		} else {
			c.Halted = true
		}
	}
	m.cur = -1
	return m, nil
}

// Attach registers an observer for all subsequent instructions.
func (m *VM) Attach(obs Observer) { m.observers = append(m.observers, obs) }

// AttachColumns registers a columnar observer: instead of one virtual
// call per instruction, events accumulate in the machine's columnar ring
// (Config.BatchCap rows) and deliver as StepColumns calls. Run and
// RunToScheduleBoundary flush before returning; callers driving Step
// directly must FlushBatch before inspecting the observer. This is the
// event form the wire decoder hands the detection service, so attaching
// detectors this way makes an in-process run exercise the identical
// consumer code.
func (m *VM) AttachColumns(obs ColumnObserver) {
	if m.cols == nil {
		m.cols = NewEventBatch(m.cfg.BatchCap)
		if m.colShiftSet {
			m.cols.EnableBlocks(m.colShift)
		}
	}
	m.colObs = append(m.colObs, obs)
}

// SetColumnBlockShift sets the shift of the columnar ring's Blocks
// column (NewEventBatch's default is 0), so the block ids the VM
// computes once per event match the attached detectors' block size.
// Call before the first event is emitted.
func (m *VM) SetColumnBlockShift(shift uint) {
	m.colShift, m.colShiftSet = shift, true
	if m.cols != nil {
		m.cols.EnableBlocks(shift)
	}
}

// FlushBatch delivers any buffered events to the columnar observers and
// empties the ring.
func (m *VM) FlushBatch() {
	if m.cols != nil && m.cols.Len() > 0 {
		for _, o := range m.colObs {
			o.StepColumns(m.cols)
		}
		m.cols.Reset()
	}
}

// DetachAll removes all observers, delivering any buffered events first.
func (m *VM) DetachAll() {
	m.FlushBatch()
	m.observers = nil
	m.colObs = nil
}

// Program returns the loaded program.
func (m *VM) Program() *isa.Program { return m.prog }

// Config returns the machine configuration.
func (m *VM) Config() Config { return m.cfg }

// NumCPUs returns the processor count.
func (m *VM) NumCPUs() int { return m.cfg.NumCPUs }

// Seq returns the number of instructions executed so far, which is also the
// next event's sequence number.
func (m *VM) Seq() uint64 { return m.seq }

// Cycles returns CPU i's virtual time (meaningful in TimingFirst mode).
func (m *VM) Cycles(i int) uint64 { return m.cycles[i] }

// Done reports whether every CPU has halted.
func (m *VM) Done() bool { return m.running == 0 }

// Mem returns the word at addr, for post-run inspection by tests and
// examples.
func (m *VM) Mem(addr int64) int64 {
	if addr < 0 || addr >= int64(len(m.mem)) {
		return 0
	}
	return m.mem[addr]
}

// SetMem writes the word at addr, for test setup.
func (m *VM) SetMem(addr, val int64) {
	if addr >= 0 && addr < int64(len(m.mem)) {
		m.mem[addr] = val
	}
}

// MemRange copies words [addr, addr+n) into a fresh slice.
func (m *VM) MemRange(addr, n int64) []int64 {
	out := make([]int64, n)
	copy(out, m.mem[addr:addr+n])
	return out
}

// CPU returns a copy of the architectural state of processor i.
func (m *VM) CPU(i int) CPUState { return m.cpus[i] }

// SetMode switches the scheduling policy; the current quantum is abandoned
// so the new policy takes effect on the next step.
func (m *VM) SetMode(mode ScheduleMode) {
	m.cfg.Mode = mode
	m.quantum = 0
}

// SkewSerialOrder rotates which CPU the Serialize policy schedules first,
// abandoning the current quantum. Backward error recovery uses this to try
// a different serialization when re-execution in one order still fails.
func (m *VM) SkewSerialOrder(k int) {
	if m.cfg.NumCPUs > 0 {
		m.cur = ((m.cur+k)%m.cfg.NumCPUs + m.cfg.NumCPUs) % m.cfg.NumCPUs
	}
	m.quantum = 0
}

// pickCPU selects the CPU for the next quantum.
func (m *VM) pickCPU() int {
	switch m.cfg.Mode {
	case TimingFirst:
		// Run the runnable CPU with the smallest virtual time.
		best, bestCycles := -1, ^uint64(0)
		for c := range m.cpus {
			if m.cpus[c].Halted {
				continue
			}
			if m.cycles[c] < bestCycles {
				best, bestCycles = c, m.cycles[c]
			}
		}
		m.quantum = 1
		return best
	case Serialize:
		// Round-robin starting after the current CPU; long quanta.
		start := m.cur + 1
		for i := 0; i < m.cfg.NumCPUs; i++ {
			c := (start + i) % m.cfg.NumCPUs
			if !m.cpus[c].Halted {
				m.quantum = 1 << 30
				return c
			}
		}
	default:
		// Uniform choice among runnable CPUs, quantum length in
		// [1, MaxQuantum].
		k := int(m.rng.next() % uint64(m.running))
		for c := range m.cpus {
			if m.cpus[c].Halted {
				continue
			}
			if k == 0 {
				m.quantum = 1 + int(m.rng.next()%uint64(m.cfg.MaxQuantum))
				return c
			}
			k--
		}
	}
	return -1
}

// Step executes one dynamic instruction on the scheduled CPU and notifies
// observers. It returns false once every CPU has halted.
func (m *VM) Step() (bool, error) {
	if m.running == 0 {
		return false, nil
	}
	if m.quantum <= 0 || m.cur < 0 || m.cpus[m.cur].Halted {
		m.cur = m.pickCPU()
		if m.cur < 0 {
			return false, nil
		}
	}
	m.quantum--

	c := &m.cpus[m.cur]
	pc := c.PC
	if pc < 0 || pc >= int64(len(m.prog.Code)) {
		return false, &Fault{CPU: m.cur, PC: pc, Seq: m.seq, Why: "pc outside code"}
	}
	in := m.prog.Code[pc]

	ev := &m.ev
	*ev = Event{Seq: m.seq, CPU: m.cur, PC: pc, Instr: in}
	m.seq++

	next := pc + 1
	fault := func(why string) (bool, error) {
		return false, &Fault{CPU: m.cur, PC: pc, Seq: ev.Seq, Why: why, Code: in}
	}

	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		c.Halted = true
		m.running--
		m.quantum = 0
	case isa.OpYield:
		m.quantum = 0
	case isa.OpLI:
		m.setReg(c, in.Rd, in.Imm)
	case isa.OpMov:
		m.setReg(c, in.Rd, c.Regs[in.Rs1])
	case isa.OpAdd:
		m.setReg(c, in.Rd, c.Regs[in.Rs1]+c.Regs[in.Rs2])
	case isa.OpSub:
		m.setReg(c, in.Rd, c.Regs[in.Rs1]-c.Regs[in.Rs2])
	case isa.OpMul:
		m.setReg(c, in.Rd, c.Regs[in.Rs1]*c.Regs[in.Rs2])
	case isa.OpDiv:
		if c.Regs[in.Rs2] == 0 {
			return fault("division by zero")
		}
		m.setReg(c, in.Rd, c.Regs[in.Rs1]/c.Regs[in.Rs2])
	case isa.OpMod:
		if c.Regs[in.Rs2] == 0 {
			return fault("modulo by zero")
		}
		m.setReg(c, in.Rd, c.Regs[in.Rs1]%c.Regs[in.Rs2])
	case isa.OpAnd:
		m.setReg(c, in.Rd, c.Regs[in.Rs1]&c.Regs[in.Rs2])
	case isa.OpOr:
		m.setReg(c, in.Rd, c.Regs[in.Rs1]|c.Regs[in.Rs2])
	case isa.OpXor:
		m.setReg(c, in.Rd, c.Regs[in.Rs1]^c.Regs[in.Rs2])
	case isa.OpShl:
		m.setReg(c, in.Rd, c.Regs[in.Rs1]<<(uint64(c.Regs[in.Rs2])&63))
	case isa.OpShr:
		m.setReg(c, in.Rd, int64(uint64(c.Regs[in.Rs1])>>(uint64(c.Regs[in.Rs2])&63)))
	case isa.OpSlt:
		m.setReg(c, in.Rd, b2i(c.Regs[in.Rs1] < c.Regs[in.Rs2]))
	case isa.OpSle:
		m.setReg(c, in.Rd, b2i(c.Regs[in.Rs1] <= c.Regs[in.Rs2]))
	case isa.OpSeq:
		m.setReg(c, in.Rd, b2i(c.Regs[in.Rs1] == c.Regs[in.Rs2]))
	case isa.OpSne:
		m.setReg(c, in.Rd, b2i(c.Regs[in.Rs1] != c.Regs[in.Rs2]))
	case isa.OpAddi:
		m.setReg(c, in.Rd, c.Regs[in.Rs1]+in.Imm)
	case isa.OpLoad:
		addr := c.Regs[in.Rs1] + in.Imm
		if addr < 0 || addr >= int64(len(m.mem)) {
			return fault(fmt.Sprintf("load from invalid address %d", addr))
		}
		v := m.mem[addr]
		m.setReg(c, in.Rd, v)
		ev.Addr, ev.IsLoad, ev.Loaded = addr, true, v
	case isa.OpStore:
		addr := c.Regs[in.Rs1] + in.Imm
		if addr < 0 || addr >= int64(len(m.mem)) {
			return fault(fmt.Sprintf("store to invalid address %d", addr))
		}
		v := c.Regs[in.Rs2]
		m.mem[addr] = v
		ev.Addr, ev.IsStore, ev.Stored = addr, true, v
	case isa.OpCas:
		addr := c.Regs[in.Rs1]
		if addr < 0 || addr >= int64(len(m.mem)) {
			return fault(fmt.Sprintf("cas on invalid address %d", addr))
		}
		old := m.mem[addr]
		ev.Addr, ev.IsLoad, ev.Loaded = addr, true, old
		if old == c.Regs[in.Rs2] {
			repl := c.Regs[in.Rs3]
			m.mem[addr] = repl
			ev.IsStore, ev.Stored = true, repl
			m.setReg(c, in.Rd, 1)
		} else {
			m.setReg(c, in.Rd, 0)
		}
	case isa.OpBeqz:
		if c.Regs[in.Rs1] == 0 {
			next = in.Imm
			ev.Taken = true
		}
	case isa.OpBnez:
		if c.Regs[in.Rs1] != 0 {
			next = in.Imm
			ev.Taken = true
		}
	case isa.OpJmp:
		next = in.Imm
		ev.Taken = true
	case isa.OpJal:
		m.setReg(c, in.Rd, pc+1)
		next = in.Imm
		ev.Taken = true
	case isa.OpJr:
		next = c.Regs[in.Rs1]
		if next < 0 || next >= int64(len(m.prog.Code)) {
			return fault(fmt.Sprintf("jr to invalid pc %d", next))
		}
		ev.Taken = true
	default:
		return fault("unknown opcode")
	}

	if !c.Halted {
		c.PC = next
	}
	if m.cfg.Mode == TimingFirst {
		cost := m.cfg.Cost.Cost(ev)
		if cost == 0 {
			cost = 1
		}
		// A one-in-eight single-cycle jitter breaks lockstep phases the
		// way microarchitectural noise does on real machines,
		// deterministically per seed.
		if m.rng.next()&7 == 0 {
			cost++
		}
		m.cycles[m.cur] += cost
		if in.Op == isa.OpYield {
			// Yield models a descheduling hint: push the CPU's virtual
			// time past its peers.
			max := m.cycles[m.cur]
			for c := range m.cycles {
				if !m.cpus[c].Halted && m.cycles[c] > max {
					max = m.cycles[c]
				}
			}
			m.cycles[m.cur] = max + 1
		}
	}
	for _, o := range m.observers {
		o.Step(ev)
	}
	if m.colObs != nil {
		m.cols.Append(ev)
		if m.cols.Len() == m.cfg.BatchCap {
			m.FlushBatch()
		}
	}
	return m.running > 0, nil
}

// Run executes up to maxSteps instructions, stopping early when all CPUs
// halt. It returns the number of instructions executed.
func (m *VM) Run(maxSteps uint64) (uint64, error) {
	start := m.seq
	for m.seq-start < maxSteps {
		more, err := m.Step()
		if err != nil {
			m.FlushBatch()
			return m.seq - start, err
		}
		if !more {
			break
		}
	}
	m.FlushBatch()
	return m.seq - start, nil
}

// RunToScheduleBoundary executes at least minSteps instructions and then
// continues until the running CPU's quantum ends (it yields, halts, or
// exhausts its quantum) so that no CPU is stopped at an arbitrary
// instruction, or until the maxSteps hard cap. Backward error recovery
// ends its serialized re-execution windows here: cutting a window
// mid-quantum would park a thread inside an atomic region and poison the
// checkpoint taken at the seam.
func (m *VM) RunToScheduleBoundary(minSteps, maxSteps uint64) (uint64, error) {
	if maxSteps < minSteps {
		maxSteps = minSteps
	}
	start := m.seq
	for {
		more, err := m.Step()
		if err != nil {
			m.FlushBatch()
			return m.seq - start, err
		}
		if !more {
			m.FlushBatch()
			return m.seq - start, nil
		}
		ran := m.seq - start
		if (ran >= minSteps && m.quantum <= 0) || ran >= maxSteps {
			m.FlushBatch()
			return ran, nil
		}
	}
}

func (m *VM) setReg(c *CPUState, rd isa.Reg, v int64) {
	if rd != isa.RegZero {
		c.Regs[rd] = v
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
