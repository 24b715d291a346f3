package workloads

import (
	"strings"
	"testing"

	"repro/internal/vm"
)

func TestRegistryNamesStable(t *testing.T) {
	names := Names()
	want := []string{
		"apache-buggy", "apache-fixed", "mysql-prepared-buggy",
		"mysql-prepared-fixed", "mysql-tables", "pgsql-oltp",
		"queue-buggy", "queue-fixed",
	}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("apache-buggy", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Buggy || w.NumThreads != 4 {
		t.Errorf("workload = %+v", w)
	}
	if _, err := ByName("nope", 1, 0); err == nil {
		t.Error("unknown name accepted")
	}
	// Scale 0 defaults to 1.
	if _, err := ByName("pgsql-oltp", 0, 0); err != nil {
		t.Error(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	// Zero-value configs must produce runnable workloads.
	for _, w := range []*Workload{
		ApacheLog(ApacheConfig{}),
		MySQLTables(MySQLTablesConfig{}),
		MySQLPrepared(MySQLPreparedConfig{}),
		PgSQLOLTP(PgSQLConfig{}),
	} {
		m, err := w.NewVM(1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if _, err := m.Run(1 << 26); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !m.Done() {
			t.Errorf("%s with default config did not finish", w.Name)
		}
	}
}

func TestApacheMaxLenClamped(t *testing.T) {
	w := ApacheLog(ApacheConfig{BufWords: 8, MaxLen: 100, Threads: 2, Requests: 4})
	m, err := w.NewVM(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1 << 22); err != nil {
		t.Fatalf("oversized records overflow the buffer: %v", err)
	}
}

func TestReoptimizedPreservesBehavior(t *testing.T) {
	w := ApacheLog(ApacheConfig{Threads: 3, Requests: 16, Buggy: false, Seed: 3})
	o := w.Reoptimized()
	if !strings.HasSuffix(o.Name, "-opt") {
		t.Errorf("name = %q", o.Name)
	}
	if len(o.Prog.Code) >= len(w.Prog.Code) {
		t.Errorf("optimized code (%d) not smaller than plain (%d)", len(o.Prog.Code), len(w.Prog.Code))
	}
	if o.BugPCs != nil {
		t.Error("BugPCs must be cleared on reoptimized copies")
	}
	for _, wl := range []*Workload{w, o} {
		m, err := wl.NewVM(5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(1 << 24); err != nil {
			t.Fatal(err)
		}
		if bad, detail := wl.Check(m); bad {
			t.Errorf("%s corrupted: %s", wl.Name, detail)
		}
	}
}

func TestNewVMWithModes(t *testing.T) {
	w := MySQLTables(MySQLTablesConfig{Lockers: 2, Ops: 20})
	for _, mode := range []vm.ScheduleMode{vm.Interleave, vm.Serialize, vm.TimingFirst} {
		m, err := w.NewVMWith(1, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(1 << 22); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if !m.Done() {
			t.Errorf("mode %d did not finish", mode)
		}
		if bad, detail := w.Check(m); bad {
			t.Errorf("mode %d corrupted: %s", mode, detail)
		}
	}
}

func TestPokeArrayUnknownSymbolPanics(t *testing.T) {
	w := MySQLTables(MySQLTablesConfig{})
	m, err := w.NewVM(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("pokeArray accepted an unknown symbol")
		}
	}()
	pokeArray(m, "does-not-exist", []int64{1})
}

// TestByNameRefusesHostileScale: a scale a client can put in a Hello
// must come back as an error, never a panic, and never a compile. Scale
// 8192 once made pgsql-oltp's globals overflow the compiler's limit and
// panicked a serving daemon.
func TestByNameRefusesHostileScale(t *testing.T) {
	for _, name := range Names() {
		for _, scale := range []int{MaxScale + 1, 1024, 8192, 1 << 40} {
			w, err := ByName(name, scale, 1)
			if err == nil || w != nil {
				t.Errorf("%s at scale %d: got %v, %v; want an error", name, scale, w, err)
			}
		}
		if _, err := ByName(name, MaxScale, 1); err != nil {
			t.Errorf("%s at MaxScale: %v", name, err)
		}
	}
	if _, err := compile("broken", "shared x[;"); err == nil {
		t.Error("compile accepted a malformed source")
	}
}

// TestCheckMemory: a workload whose data segment outgrows its memory is
// refused. queue-fixed at scale 1024 laid out 204,809 data words in a
// 131,072-word machine and was served anyway.
func TestCheckMemory(t *testing.T) {
	w, err := queueWork(QueueConfig{Producers: 2, Consumers: 2, Items: 48 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.checkMemory(); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Errorf("checkMemory = %v, want a does-not-fit error", err)
	}
	if _, err := w.NewVM(1); err == nil {
		t.Error("the VM booted the oversized workload; the check is stricter than it needs to be")
	}
	ok, err := ByName("queue-fixed", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.checkMemory(); err != nil {
		t.Errorf("queue-fixed at scale 8: %v", err)
	}
}

// TestProgramCache: registry workloads share one compiled program per
// name and scale, whatever the seed, and the cache stays bounded.
func TestProgramCache(t *testing.T) {
	a, err := ByName("queue-fixed", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("queue-fixed", 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.Prog != b.Prog {
		t.Error("two seeds of one workload compiled twice")
	}
	if c, _ := ByName("queue-fixed", 4, 1); c.Prog == a.Prog {
		t.Error("two scales share a program")
	}
	for scale := 1; scale <= MaxScale; scale++ {
		if _, err := ByName("mysql-tables", scale, 0); err != nil {
			t.Fatal(err)
		}
	}
	progCache.Lock()
	n, order := len(progCache.progs), len(progCache.order)
	progCache.Unlock()
	if n > maxCachedPrograms || n != order {
		t.Errorf("cache holds %d programs (%d ordered), bound %d", n, order, maxCachedPrograms)
	}
}
