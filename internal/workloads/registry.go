package workloads

import (
	"fmt"
	"sort"
)

// MaxScale is the largest work scale ByName builds. Table 2 and the
// benchmarks run at scales 1 to 8; at 64 every registry workload still
// compiles in about a millisecond and its data segment fits its
// memory (pgsql-oltp, the largest, fills a quarter), while a detection
// service that rebuilds workloads from a client's Hello cannot be made
// to compile for seconds, allocate without bound, or serve a program
// its own machine could not boot. It also bounds the keys of the
// program cache at eight names times 64 scales.
const MaxScale = 64

// builders are the registry's constructors by name, taking the work
// scale (1 is a quick run) and the input seed.
var builders = map[string]func(scale int, seed uint64) (*Workload, error){
	"apache-buggy": func(scale int, seed uint64) (*Workload, error) {
		return apacheLog(ApacheConfig{Threads: 4, Requests: 64 * scale, Buggy: true, Seed: seed})
	},
	"apache-fixed": func(scale int, seed uint64) (*Workload, error) {
		return apacheLog(ApacheConfig{Threads: 4, Requests: 64 * scale, Buggy: false, Seed: seed})
	},
	"mysql-tables": func(scale int, seed uint64) (*Workload, error) {
		return mySQLTables(MySQLTablesConfig{Lockers: 3, Ops: 80 * scale})
	},
	"mysql-prepared-buggy": func(scale int, seed uint64) (*Workload, error) {
		return mySQLPrepared(MySQLPreparedConfig{Threads: 4, Queries: 48 * scale, Buggy: true, Seed: seed})
	},
	"mysql-prepared-fixed": func(scale int, seed uint64) (*Workload, error) {
		return mySQLPrepared(MySQLPreparedConfig{Threads: 4, Queries: 48 * scale, Buggy: false, Seed: seed})
	},
	"pgsql-oltp": func(scale int, seed uint64) (*Workload, error) {
		return pgSQLOLTP(PgSQLConfig{Warehouses: 4, Terminals: 4, Txns: 128 * scale, Seed: seed})
	},
	"queue-buggy": func(scale int, seed uint64) (*Workload, error) {
		return queueWork(QueueConfig{Producers: 2, Consumers: 2, Items: 48 * scale, Buggy: true, Seed: seed})
	},
	"queue-fixed": func(scale int, seed uint64) (*Workload, error) {
		return queueWork(QueueConfig{Producers: 2, Consumers: 2, Items: 48 * scale, Buggy: false, Seed: seed})
	},
}

// Registry returns the named workload constructors at a given work scale,
// for command-line tools. Scale 1 is a quick run. The constructors panic
// on a workload that fails to build; ByName reports it instead.
func Registry(scale int, seed uint64) map[string]func() *Workload {
	if scale <= 0 {
		scale = 1
	}
	out := make(map[string]func() *Workload, len(builders))
	for name, build := range builders {
		out[name] = func() *Workload { return must(build(scale, seed)) }
	}
	return out
}

// Names returns the registry's workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ByName builds a registered workload. Scale <= 0 means 1; a scale
// above MaxScale is refused before anything is compiled, and so is a
// workload that fails to compile or whose data segment does not fit its
// memory.
func ByName(name string, scale int, seed uint64) (*Workload, error) {
	build, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
	}
	if scale <= 0 {
		scale = 1
	}
	if scale > MaxScale {
		return nil, fmt.Errorf("workloads: scale %d above the maximum %d", scale, MaxScale)
	}
	w, err := build(scale, seed)
	if err != nil {
		return nil, err
	}
	if err := w.checkMemory(); err != nil {
		return nil, err
	}
	return w, nil
}
