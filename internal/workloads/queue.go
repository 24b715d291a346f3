package workloads

import (
	"fmt"

	"repro/internal/vm"
)

// QueueConfig parameterizes the shared work-queue model.
type QueueConfig struct {
	Producers int
	Consumers int
	Items     int // items produced per producer
	Capacity  int64
	Buggy     bool // omit the queue lock
	Seed      uint64
}

func (c QueueConfig) withDefaults() QueueConfig {
	if c.Producers <= 0 {
		c.Producers = 2
	}
	if c.Consumers <= 0 {
		c.Consumers = 2
	}
	if c.Items <= 0 {
		c.Items = 64
	}
	if c.Capacity <= 0 {
		c.Capacity = 1 << 12 // ample: producers never wrap in the model
	}
	return c
}

// QueueWork builds the paper's §5.1/Figure 9 scenario: an atomic region
// that performs multiple *independent* computations — filling an item's
// two fields from unrelated inputs and bumping the queue index. The
// fields' stores are not data-dependent on each other, so the region
// hypothesis's connectivity rule cannot join them; what ties each store to
// the region is its ADDRESS dependence on the index. The paper's defense
// is exactly that: "SVD mitigates the problem by checking address
// dependences (on variable head) before a variable is written to memory."
// The buggy variant omits the lock; detecting its corruptions requires
// address dependences, which BenchmarkAblationNoAddressDeps and the
// workload tests verify.
func QueueWork(cfg QueueConfig) *Workload { return must(queueWork(cfg)) }

// queueWork is QueueWork, returning a compile failure instead of panicking.
func queueWork(cfg QueueConfig) (*Workload, error) {
	cfg = cfg.withDefaults()
	lockQ, unlockQ := "lock(qlock);", "unlock(qlock);"
	lockD, unlockD := "lock(qlock);", "unlock(qlock);"
	if cfg.Buggy {
		lockQ, unlockQ, lockD, unlockD = "", "", "", ""
	}
	total := cfg.Producers * cfg.Items

	src := fmt.Sprintf(`// shared work queue (paper Figure 9 / §5.1)
lock qlock;
shared fielda[%d];       // item payload field A (queue slot array)
shared fieldb[%d];       // item payload field B
shared filled;           // next slot to fill
shared head;             // next slot to take
shared ina[%d];          // per-producer input rows for field A
shared inb[%d];          // per-producer input rows for field B
shared taken[%d];        // per-consumer items consumed
shared checksum[%d];     // per-consumer payload checksum
shared produced[%d];     // per-producer items enqueued

func producer(n) {
    var i, slot;
    for (i = 0; i < n; i = i + 1) {
        %s
        slot = filled;                     // the queue index
        fielda[slot] = ina[tid * %d + i];  // independent computation 1
        fieldb[slot] = inb[tid * %d + i];  // independent computation 2
        filled = slot + 1;                 // publish
        %s
        produced[tid] = produced[tid] + 1;
    }
}

// Consumers poll for a fixed attempt budget — exit logic is entirely
// thread-local, so detector reports come only from the queue operations
// themselves.
func consumer(budget) {
    var i, v, w, slot;
    for (i = 0; i < budget; i = i + 1) {
        %s
        if (head < filled) {
            slot = head;
            v = fielda[slot];              // address-dependent on head
            w = fieldb[slot];
            head = slot + 1;
            taken[tid - %d] = taken[tid - %d] + 1;
            checksum[tid - %d] = checksum[tid - %d] + v * 3 + w;
        }
        %s
        yield();
    }
}
%s%s`,
		cfg.Capacity, cfg.Capacity, total, total,
		cfg.Consumers, cfg.Consumers, cfg.Producers,
		lockQ, cfg.Items, cfg.Items, unlockQ,
		lockD, cfg.Producers, cfg.Producers, cfg.Producers, cfg.Producers, unlockD,
		threadDecls(cfg.Producers, "producer", fmt.Sprintf("%d", cfg.Items)),
		consumerDecls(cfg.Producers, cfg.Consumers, 3*total+64))

	name := "queue-fixed"
	if cfg.Buggy {
		name = "queue-buggy"
	}
	prog, err := compile(name, src)
	if err != nil {
		return nil, err
	}

	var bugPCs map[int64]bool
	if cfg.Buggy {
		bugPCs = pcsForLines(prog, name, []int{
			lineOf(src, "slot = filled;"),
			lineOf(src, "fielda[slot] = ina[tid"),
			lineOf(src, "fieldb[slot] = inb[tid"),
			lineOf(src, "filled = slot + 1;"),
			lineOf(src, "v = fielda[slot];"),
			lineOf(src, "w = fieldb[slot];"),
			lineOf(src, "head = slot + 1;"),
		})
	}

	producers, consumers, items := cfg.Producers, cfg.Consumers, cfg.Items
	seed := cfg.Seed
	return &Workload{
		Name: name,
		Description: fmt.Sprintf("shared work queue, %d producers x %d items, %d consumers, buggy=%v",
			cfg.Producers, cfg.Items, cfg.Consumers, cfg.Buggy),
		Source:     src,
		Prog:       prog,
		NumThreads: cfg.Producers + cfg.Consumers,
		Buggy:      cfg.Buggy,
		BugPCs:     bugPCs,
		MemWords:   1 << 17,
		StackWords: 1 << 10,
		Setup: func(m *vm.VM) {
			rng := newSurgeGen(seed+0x9E37, 1)
			a := make([]int64, producers*items)
			b := make([]int64, producers*items)
			for i := range a {
				a[i] = int64(rng.next()%1000) + 1
				b[i] = int64(rng.next()%1000) + 1
			}
			pokeArray(m, "ina", a)
			pokeArray(m, "inb", b)
		},
		// Consistency: every produced item consumed exactly once, and the
		// consumed checksum matches the inputs' checksum.
		Check: func(m *vm.VM) (bool, string) {
			var prod, cons int64
			for p := 0; p < producers; p++ {
				prod += symWord(m, "produced", int64(p))
			}
			for c := 0; c < consumers; c++ {
				cons += symWord(m, "taken", int64(c))
			}
			if prod != cons {
				return true, fmt.Sprintf("produced %d items, consumed %d", prod, cons)
			}
			var want int64
			base := m.Program().Symbols["ina"]
			baseB := m.Program().Symbols["inb"]
			for i := int64(0); i < int64(producers*items); i++ {
				want += m.Mem(base+i)*3 + m.Mem(baseB+i)
			}
			var got int64
			for c := 0; c < consumers; c++ {
				got += symWord(m, "checksum", int64(c))
			}
			if got != want {
				return true, fmt.Sprintf("payload checksum %d, want %d (items lost, duplicated, or torn)", got, want)
			}
			return false, "queue consistent"
		},
	}, nil
}

// consumerDecls renders the consumer thread declarations on CPUs after the
// producers.
func consumerDecls(producers, consumers, budget int) string {
	out := ""
	for i := 0; i < consumers; i++ {
		out += fmt.Sprintf("thread %d consumer(%d);\n", producers+i, budget)
	}
	return out
}
