package report

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/workloads"
)

// Table2Config scales the Table 2 reproduction. Scale 1 is a quick run;
// larger scales lengthen every workload proportionally (the paper samples
// 16-40M instructions per row; scale ~8 approaches that).
type Table2Config struct {
	Scale   int // work multiplier; zero means 1
	Samples int // samples per bug-free row; zero means 4
	Seed    uint64

	// Parallelism fans a row's samples across this many workers (see
	// RunMany); zero or negative means GOMAXPROCS. Results are identical
	// to the sequential run for any value.
	Parallelism int

	// Obs collects telemetry (event traces, histograms) across every
	// sample of every row; nil disables it.
	Obs *obs.Sink

	// Witness enables the detectors' flight recorders on every sample; the
	// merged stats then carry a capped witness digest.
	Witness bool
}

func (c Table2Config) withDefaults() Table2Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Samples <= 0 {
		c.Samples = 4
	}
	return c
}

// Table2Workloads builds the five workload configurations of the paper's
// Table 2: Apache with the erroneous execution, Apache bug-free, MySQL
// with the erroneous execution, MySQL bug-free, and PgSQL (bug-free by
// construction).
func Table2Workloads(cfg Table2Config) []struct {
	W       *workloads.Workload
	Samples int
} {
	cfg = cfg.withDefaults()
	s := cfg.Scale
	return []struct {
		W       *workloads.Workload
		Samples int
	}{
		{workloads.ApacheLog(workloads.ApacheConfig{
			Threads: 4, Requests: 64 * s, Buggy: true, Seed: cfg.Seed,
		}), 1},
		{workloads.ApacheLog(workloads.ApacheConfig{
			Threads: 4, Requests: 64 * s, Buggy: false, Seed: cfg.Seed,
		}), cfg.Samples},
		{workloads.MySQLPrepared(workloads.MySQLPreparedConfig{
			Threads: 4, Queries: 48 * s, Buggy: true, Seed: cfg.Seed,
		}), 1},
		{workloads.MySQLTables(workloads.MySQLTablesConfig{
			Lockers: 3, Ops: 80 * s,
		}), cfg.Samples},
		{workloads.PgSQLOLTP(workloads.PgSQLConfig{
			Warehouses: 4, Terminals: 4, Txns: 128 * s, Seed: cfg.Seed,
		}), cfg.Samples},
	}
}

// Table2 reproduces the paper's Table 2: each workload is run for its
// sample count with distinct seeds, both detectors attached, and the
// classified results aggregated into rows. The second return value is
// the field-wise sum of both detectors' counters across every sample —
// the merged stats that per-row aggregation alone would drop.
func Table2(cfg Table2Config) ([]Row, MergedStats, error) {
	cfg = cfg.withDefaults()
	var rows []Row
	var all []*Sample
	for _, entry := range Table2Workloads(cfg) {
		samples, err := RunMany(entry.W, Seeds(cfg.Seed, entry.Samples), Options{Obs: cfg.Obs, Witness: cfg.Witness}, cfg.Parallelism)
		if err != nil {
			return nil, MergedStats{}, fmt.Errorf("table2: %s: %w", entry.W.Name, err)
		}
		rows = append(rows, Aggregate(entry.W.Name, samples))
		all = append(all, samples...)
	}
	return rows, MergeSamples(all), nil
}

// ScalingPoint is one point of the §7.3 execution-length sweep.
type ScalingPoint struct {
	Workload string
	Factor   int
	MInsts   float64
	StaticFP int    // distinct SVD false-positive sites
	DynFP    uint64 // dynamic SVD false positives
}

// ScalingSweep reproduces the §7.3 observation: as execution length grows,
// static false positives grow slowly (they track exercised code, not
// time), while dynamic false positives grow roughly linearly.
func ScalingSweep(factors []int, seed uint64) ([]ScalingPoint, error) {
	var out []ScalingPoint
	for _, f := range factors {
		for _, w := range []*workloads.Workload{
			workloads.ApacheLog(workloads.ApacheConfig{Threads: 4, Requests: 32 * f, Buggy: false, Seed: seed}),
			workloads.PgSQLOLTP(workloads.PgSQLConfig{Warehouses: 4, Terminals: 4, Txns: 64 * f, Seed: seed}),
		} {
			sm, err := Run(w, seed, Options{})
			if err != nil {
				return nil, fmt.Errorf("scaling: %s x%d: %w", w.Name, f, err)
			}
			out = append(out, ScalingPoint{
				Workload: w.Name,
				Factor:   f,
				MInsts:   float64(sm.Instructions) / 1e6,
				StaticFP: len(sm.SVD.FalseSites),
				DynFP:    sm.SVD.DynamicFalse,
			})
		}
	}
	return out, nil
}
