package workloads

import (
	"fmt"

	"repro/internal/vm"
)

// PgSQLConfig parameterizes the DBT-2-like OLTP model.
type PgSQLConfig struct {
	Warehouses int // warehouse rows, each with its own lock
	Terminals  int // terminal threads (database connections)
	Txns       int // transactions per terminal
	// ThinkWork is the per-transaction local computation (loop
	// iterations) modelling query planning and tuple processing, which in
	// a real DBMS dwarfs the locked row update.
	ThinkWork int64
	Seed      uint64
}

func (c PgSQLConfig) withDefaults() PgSQLConfig {
	if c.Warehouses <= 0 {
		c.Warehouses = 4
	}
	if c.Terminals <= 0 {
		c.Terminals = 4
	}
	if c.Txns <= 0 {
		c.Txns = 128
	}
	if c.ThinkWork <= 0 {
		c.ThinkWork = 150
	}
	return c
}

// initialStock is each warehouse's starting stock level.
const initialStock = 10000

// PgSQLOLTP builds the PostgreSQL/DBT-2 model: a mature, data-race-free
// OLTP server. Terminals run new-order-style transactions against
// warehouse rows, each protected by its own lock; per-terminal ledgers are
// private. FRD finds no races here. SVD's computational units, however,
// outlive the critical sections (they are cut only when a shared
// dependence is observed, often after the atomic region finished — §5.2),
// so occasional post-commit bookkeeping that reuses a value read under the
// lock produces a low rate of strict-2PL false positives: the Table 2
// PgSQL inversion.
func PgSQLOLTP(cfg PgSQLConfig) *Workload { return must(pgSQLOLTP(cfg)) }

// pgSQLOLTP is PgSQLOLTP, returning a compile failure instead of panicking.
func pgSQLOLTP(cfg PgSQLConfig) (*Workload, error) {
	cfg = cfg.withDefaults()
	src := fmt.Sprintf(`// PostgreSQL DBT-2 OLTP model (paper Table 1, PgSQL row)
lock wlock[%d];          // one lock per warehouse row
shared ytd[%d];          // year-to-date totals
shared stock[%d];        // stock levels
shared restocks[%d];     // restock events
shared wseq[%d];         // per-terminal rows: warehouse picks
shared dseq[%d];         // per-terminal rows: order quantities
shared myytd[%d];        // per-terminal committed amounts (private slots)
local ledger[4];         // terminal-private bookkeeping

// plan models the terminal-local work of a transaction: parsing, planning,
// and tuple processing outside the brief row-lock region.
func plan(work) {
    var k, h;
    k = 0;
    h = tid;
    while (k < work) {
        h = h * 33 + k;
        k = k + 1;
    }
    return h;
}

func terminal(n) {
    var t, w, d, y;
    t = 0;
    while (t < n) {
        plan(%d);
        w = wseq[tid * %d + t];
        d = dseq[tid * %d + t];
        lock(wlock[w]);
        y = ytd[w];                          // read under the lock
        ytd[w] = y + d;
        stock[w] = stock[w] - d;
        if (stock[w] < 100) {
            stock[w] = stock[w] + 1000;      // restock delivery
            restocks[w] = restocks[w] + 1;
        }
        myytd[tid] = myytd[tid] + d;         // commit record (private slot)
        unlock(wlock[w]);
        if (t %% 16 == 0) {
            ledger[0] = ledger[0] + y;       // post-commit reuse of y
        }
        t = t + 1;
    }
}
%s`,
		cfg.Warehouses, cfg.Warehouses, cfg.Warehouses, cfg.Warehouses,
		cfg.Terminals*cfg.Txns, cfg.Terminals*cfg.Txns, cfg.Terminals,
		cfg.ThinkWork, cfg.Txns, cfg.Txns,
		threadDecls(cfg.Terminals, "terminal", fmt.Sprintf("%d", cfg.Txns)))

	prog, err := compile("pgsql-oltp", src)
	if err != nil {
		return nil, err
	}
	warehouses, terminals, txns := cfg.Warehouses, cfg.Terminals, cfg.Txns
	seed := cfg.Seed
	return &Workload{
		Name: "pgsql-oltp",
		Description: fmt.Sprintf(
			"PgSQL DBT-2 OLTP, %d warehouses, %d terminals x %d txns (race-free)",
			cfg.Warehouses, cfg.Terminals, cfg.Txns),
		Source:     src,
		Prog:       prog,
		NumThreads: cfg.Terminals,
		Buggy:      false,
		MemWords:   1 << 18,
		StackWords: 1 << 10,
		Setup: func(m *vm.VM) {
			rng := newSurgeGen(seed+0xD812, 1)
			n := terminals * txns
			ws := make([]int64, n)
			ds := make([]int64, n)
			for i := range ws {
				ws[i] = int64(rng.next() % uint64(warehouses))
				ds[i] = 1 + int64(rng.next()%9)
			}
			pokeArray(m, "wseq", ws)
			pokeArray(m, "dseq", ds)
			stocks := make([]int64, warehouses)
			for i := range stocks {
				stocks[i] = initialStock
			}
			pokeArray(m, "stock", stocks)
		},
		// Database consistency: ytd totals equal the terminals' committed
		// amounts, and stock levels reconcile against ytd and restocks.
		// The locking is correct, so any divergence is corruption.
		Check: func(m *vm.VM) (bool, string) {
			var ytdSum, committed int64
			for w := 0; w < warehouses; w++ {
				ytdSum += symWord(m, "ytd", int64(w))
			}
			for t := 0; t < terminals; t++ {
				committed += symWord(m, "myytd", int64(t))
			}
			if ytdSum != committed {
				return true, fmt.Sprintf("ytd %d != committed %d", ytdSum, committed)
			}
			for w := 0; w < warehouses; w++ {
				got := symWord(m, "stock", int64(w))
				want := initialStock - symWord(m, "ytd", int64(w)) + 1000*symWord(m, "restocks", int64(w))
				if got != want {
					return true, fmt.Sprintf("warehouse %d stock %d, want %d", w, got, want)
				}
			}
			return false, "database consistent"
		},
	}, nil
}
