package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/report"
	"repro/internal/svd"
	"repro/internal/workloads"
)

// benchSnapshot is the machine-readable -hotpath result (-json FILE).
type benchSnapshot struct {
	Workload string `json:"workload"`
	Scale    int    `json:"scale"`
	Seed     uint64 `json:"seed"`

	BareNsPerInstr float64 `json:"bare_ns_per_instr"`
	SVDNsPerInstr  float64 `json:"svd_ns_per_instr"`
	FRDNsPerInstr  float64 `json:"frd_ns_per_instr"`

	SVDAllocsPerKInstr float64 `json:"svd_allocs_per_kinstr"`

	SeqMinstrPerSec float64 `json:"seq_minstr_per_sec"`
	ParMinstrPerSec float64 `json:"par_minstr_per_sec"`
	Parallelism     int     `json:"parallelism"`
	Speedup         float64 `json:"speedup"`
}

// runHotpath microbenchmarks the detector hot path on the PgSQL workload
// (the largest bug-free Table 2 row): per-instruction detector cost,
// allocation rate, and the sample-runner's parallel throughput.
func runHotpath(scale int, seed uint64, parallel int, jsonPath string) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	w := workloads.PgSQLOLTP(workloads.PgSQLConfig{
		Warehouses: 4, Terminals: 4, Txns: 128 * scale, Seed: seed,
	})
	snap := benchSnapshot{Workload: w.Name, Scale: scale, Seed: seed, Parallelism: parallel}

	fmt.Println("== detector hot path ==")
	snap.BareNsPerInstr = timeRun(w, seed, "none")
	snap.SVDNsPerInstr = timeRun(w, seed, "svd")
	snap.FRDNsPerInstr = timeRun(w, seed, "frd")
	snap.SVDAllocsPerKInstr = measureSVDAllocs(w, seed)
	fmt.Printf("%-22s %12.1f ns/instr\n", "bare VM", snap.BareNsPerInstr)
	fmt.Printf("%-22s %12.1f ns/instr (%.1fx), %.2f allocs/Kinstr\n",
		"with SVD", snap.SVDNsPerInstr, snap.SVDNsPerInstr/snap.BareNsPerInstr, snap.SVDAllocsPerKInstr)
	fmt.Printf("%-22s %12.1f ns/instr (%.1fx)\n",
		"with FRD", snap.FRDNsPerInstr, snap.FRDNsPerInstr/snap.BareNsPerInstr)

	seeds := report.Seeds(seed, 2*parallel)
	snap.SeqMinstrPerSec = sampleThroughput(w, seeds, 1)
	snap.ParMinstrPerSec = sampleThroughput(w, seeds, parallel)
	snap.Speedup = snap.ParMinstrPerSec / snap.SeqMinstrPerSec
	fmt.Printf("%-22s %12.2f Minstr/s\n", "samples sequential", snap.SeqMinstrPerSec)
	fmt.Printf("%-22s %12.2f Minstr/s (%d workers, %.2fx)\n",
		"samples parallel", snap.ParMinstrPerSec, parallel, snap.Speedup)

	if jsonPath != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
}

// measureSVDAllocs runs one SVD-attached sample and reports heap
// allocations per thousand detector-observed instructions.
func measureSVDAllocs(w *workloads.Workload, seed uint64) float64 {
	m, err := w.NewVM(seed)
	if err != nil {
		fatal(err)
	}
	det := svd.New(w.Prog, w.NumThreads, svd.Options{})
	m.AttachColumns(det)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := m.Run(1 << 26); err != nil {
		fatal(err)
	}
	runtime.ReadMemStats(&after)
	instrs := det.Stats().Instructions
	if instrs == 0 {
		return 0
	}
	return float64(after.Mallocs-before.Mallocs) / float64(instrs) * 1000
}

// sampleThroughput measures RunMany throughput in million instructions per
// wall-clock second at the given parallelism.
func sampleThroughput(w *workloads.Workload, seeds []uint64, parallel int) float64 {
	start := time.Now()
	sams, err := report.RunMany(w, seeds, report.Options{}, parallel)
	if err != nil {
		fatal(err)
	}
	var instrs uint64
	for _, s := range sams {
		instrs += s.Instructions
	}
	return float64(instrs) / 1e6 / time.Since(start).Seconds()
}
