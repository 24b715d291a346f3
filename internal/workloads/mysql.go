package workloads

import (
	"fmt"

	"repro/internal/vm"
)

// MySQLTablesConfig parameterizes the Figure 1 benign-race model.
type MySQLTablesConfig struct {
	Lockers int // threads taking and releasing table locks
	Ops     int // lock/unlock cycles per locker; checker probes as often
	// ThinkWork is the per-operation local computation (loop iterations)
	// modelling the table work done while the lock is held by the
	// bookkeeping; real MySQL queries dwarf the THR_LOCK counter update.
	ThinkWork int64
}

func (c MySQLTablesConfig) withDefaults() MySQLTablesConfig {
	if c.Lockers <= 0 {
		c.Lockers = 3
	}
	if c.Ops <= 0 {
		c.Ops = 100
	}
	if c.ThinkWork <= 0 {
		c.ThinkWork = 40
	}
	return c
}

// MySQLTables builds the Figure 1 workload: MySQL's THR_LOCK bookkeeping.
// Locker threads maintain tot_lock under internal_lock; a checker thread
// reads tot_lock with no synchronization — a real data race that is benign
// because the invariant tot_lock >= 0 keeps the guarded branch dead. FRD
// reports the race; a correct serializability detector stays silent. There
// is no bug: every report by either detector is a false positive.
func MySQLTables(cfg MySQLTablesConfig) *Workload { return must(mySQLTables(cfg)) }

// mySQLTables is MySQLTables, returning a compile failure instead of panicking.
func mySQLTables(cfg MySQLTablesConfig) (*Workload, error) {
	cfg = cfg.withDefaults()
	src := fmt.Sprintf(`// MySQL table-locking model (paper Figure 1)
shared tot_lock;        // count of table locks held (data, not a lock word)
shared errcount;        // checker's impossible-state observations
lock internal_lock;

// usetable models the query work performed while the table lock is held.
func usetable(work) {
    var k, h;
    k = 0;
    h = tid;
    while (k < work) {
        h = h * 37 + k;
        k = k + 1;
    }
    return h;
}

func locker(n) {
    var i;
    i = 0;
    while (i < n) {
        lock(internal_lock);
        tot_lock = tot_lock + 1;     // thr_lock: register the table lock
        unlock(internal_lock);
        usetable(%d);                // use the table
        yield();
        lock(internal_lock);
        tot_lock = tot_lock - 1;     // thr_unlock
        unlock(internal_lock);
        i = i + 1;
    }
}

func checker(n) {
    var i;
    i = 0;
    while (i < n) {
        if (tot_lock < 0) {          // the unlocked racy read (stmt 2.03)
            errcount = errcount + 1; // never reached: benign race
        }
        usetable(%d);
        yield();
        i = i + 1;
    }
}
%sthread %d checker(%d);
`,
		cfg.ThinkWork, cfg.ThinkWork,
		threadDecls(cfg.Lockers, "locker", fmt.Sprintf("%d", cfg.Ops)),
		cfg.Lockers, cfg.Ops*2)

	prog, err := compile("mysql-tables", src)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Name: "mysql-tables",
		Description: fmt.Sprintf(
			"MySQL table locking, %d lockers x %d ops + 1 unlocked checker (benign races)",
			cfg.Lockers, cfg.Ops),
		Source:     src,
		Prog:       prog,
		NumThreads: cfg.Lockers + 1,
		Buggy:      false,
		MemWords:   1 << 16,
		StackWords: 1 << 10,
		Check: func(m *vm.VM) (bool, string) {
			if v := symWord(m, "errcount", 0); v != 0 {
				return true, fmt.Sprintf("checker saw impossible state %d times", v)
			}
			if v := symWord(m, "tot_lock", 0); v != 0 {
				return true, fmt.Sprintf("tot_lock ended at %d, want 0", v)
			}
			return false, "bookkeeping consistent"
		},
	}, nil
}

// MySQLPreparedConfig parameterizes the Figure 3 model.
type MySQLPreparedConfig struct {
	Threads int // concurrent query threads
	Queries int // prepared queries per thread
	Fields  int // table width (field slots)
	Buggy   bool
	// ThinkWork models per-query execution outside the buggy bookkeeping.
	ThinkWork int64
	Seed      uint64
}

func (c MySQLPreparedConfig) withDefaults() MySQLPreparedConfig {
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Queries <= 0 {
		c.Queries = 64
	}
	if c.Fields <= 0 {
		c.Fields = 8
	}
	if c.ThinkWork <= 0 {
		c.ThinkWork = 40
	}
	return c
}

// MySQLPrepared builds the Figure 3 workload: MySQL 4.1.1's prepared-query
// bug. Each query marks the fields it uses (field->query_id = my id) and
// records how many (join_tab->used_fields), then iterates over them. Both
// variables were meant to be per-query (thread-local) but live in shared
// table structures, so a concurrent query overwrites them and the loop
// reads inconsistent state — the crash the paper's authors diagnosed with
// the a posteriori log. The fixed variant declares them thread-local.
func MySQLPrepared(cfg MySQLPreparedConfig) *Workload { return must(mySQLPrepared(cfg)) }

// mySQLPrepared is MySQLPrepared, returning a compile failure instead of panicking.
func mySQLPrepared(cfg MySQLPreparedConfig) (*Workload, error) {
	cfg = cfg.withDefaults()
	storage := "shared"
	if !cfg.Buggy {
		storage = "local"
	}
	src := fmt.Sprintf(`// MySQL prepared-query model (paper Figure 3)
shared qfields[%d];         // per-thread rows: fields used by each query
%s field_query_id[%d];      // MISTAKENLY SHARED when buggy
%s used_fields;             // MISTAKENLY SHARED when buggy
shared inconsist;           // detected corrupt iterations ("crashes")
shared done[%d];            // per-thread completed-query counters

// execquery models the rest of query execution: parsing, row fetches.
func execquery(work) {
    var k, h;
    k = 0;
    h = tid;
    while (k < work) {
        h = h * 41 + k;
        k = k + 1;
    }
    return h;
}

func runquery(n) {
    var q, i, cnt, qid;
    q = 0;
    while (q < n) {
        execquery(%d);
        qid = (tid + 1) * 1000000 + q + 1;
        cnt = qfields[tid * %d + q];
        i = 0;
        while (i < cnt) {
            field_query_id[i] = qid;     // mark field used by this query
            i = i + 1;
        }
        used_fields = cnt;               // record the count
        yield();                         // query optimization runs here
        cnt = used_fields;               // read the count back
        i = 0;
        while (i < cnt) {
            if (field_query_id[i] != qid) {
                inconsist = inconsist + 1;   // corrupt field set: crash
            }
            i = i + 1;
        }
        done[tid] = done[tid] + 1;
        q = q + 1;
    }
}
%s`,
		cfg.Threads*cfg.Queries, storage, cfg.Fields, storage, cfg.Threads,
		cfg.ThinkWork, cfg.Queries,
		threadDecls(cfg.Threads, "runquery", fmt.Sprintf("%d", cfg.Queries)))

	name := "mysql-prepared-fixed"
	if cfg.Buggy {
		name = "mysql-prepared-buggy"
	}
	prog, err := compile(name, src)
	if err != nil {
		return nil, err
	}

	var bugPCs map[int64]bool
	if cfg.Buggy {
		bugPCs = pcsForLines(prog, name, []int{
			lineOf(src, "field_query_id[i] = qid;"),
			lineOf(src, "used_fields = cnt;"),
			lineOf(src, "cnt = used_fields;"),
			lineOf(src, "if (field_query_id[i] != qid) {"),
		})
	}

	threads, queries, fields := cfg.Threads, cfg.Queries, int64(cfg.Fields)
	seed := cfg.Seed
	return &Workload{
		Name: name,
		Description: fmt.Sprintf(
			"MySQL prepared queries, %d threads x %d queries over %d fields, buggy=%v",
			cfg.Threads, cfg.Queries, cfg.Fields, cfg.Buggy),
		Source:     src,
		Prog:       prog,
		NumThreads: cfg.Threads,
		Buggy:      cfg.Buggy,
		BugPCs:     bugPCs,
		MemWords:   1 << 17,
		StackWords: 1 << 10,
		Setup: func(m *vm.VM) {
			gen := newQueryGen(seed+0x514C, 2, fields)
			pokeArray(m, "qfields", gen.FieldCounts(threads*queries))
		},
		Check: func(m *vm.VM) (bool, string) {
			if v := symWord(m, "inconsist", 0); v != 0 {
				return true, fmt.Sprintf("query state corrupted %d times (server crash)", v)
			}
			return false, "query state consistent"
		},
	}, nil
}
