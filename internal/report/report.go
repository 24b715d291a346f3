// Package report runs workloads under both detectors and classifies their
// output against workload ground truth, reproducing the paper's evaluation
// methodology (§6):
//
//   - dynamic false positives — dynamic report instances not attributable
//     to the injected bug (each one would cost an unnecessary BER
//     rollback; Table 2 normalizes them per million instructions);
//   - static false positives — distinct report sites (program points) not
//     attributable to the bug (each one distracts a programmer);
//   - apparent false negatives — erroneous executions the happens-before
//     baseline catches but SVD does not (counting SVD's a posteriori log,
//     which is how the paper's authors found the MySQL bug);
//   - a posteriori examination entries and computational-unit counts.
package report

import (
	"fmt"
	"sort"

	"repro/internal/frd"
	"repro/internal/obs"
	"repro/internal/svd"
	"repro/internal/workloads"
)

// SiteKey is the composite static identity of one report site. FRD sites
// are canonically ordered PC pairs; SVD sites are single store PCs,
// recorded with PCHigh == -1. Keeping the pair as a struct (rather than
// packing it into one integer) keeps distinct pairs distinct for any PC
// range.
type SiteKey struct {
	PCLow, PCHigh int64
}

func svdSiteKey(storePC int64) SiteKey { return SiteKey{PCLow: storePC, PCHigh: -1} }

// MarshalText renders the key "low/high" so site maps survive JSON
// encoding (struct map keys don't; text-marshaler keys do), keeping whole
// Samples machine-serializable for the -json surfaces.
func (k SiteKey) MarshalText() ([]byte, error) {
	return []byte(fmt.Sprintf("%d/%d", k.PCLow, k.PCHigh)), nil
}

// UnmarshalText parses the "low/high" form MarshalText writes.
func (k *SiteKey) UnmarshalText(b []byte) error {
	_, err := fmt.Sscanf(string(b), "%d/%d", &k.PCLow, &k.PCHigh)
	return err
}

// DetectorResult classifies one detector's output on one sample.
type DetectorResult struct {
	DynamicTrue  uint64 // dynamic reports on bug program points
	DynamicFalse uint64 // dynamic reports elsewhere

	TrueSites  map[SiteKey]bool // static sites on bug PCs
	FalseSites map[SiteKey]bool // static sites elsewhere

	FoundBug bool // any report lands on the bug
}

// Sample is one execution of a workload under both detectors.
type Sample struct {
	Workload     string
	Seed         uint64
	Instructions uint64
	Erroneous    bool // the workload's consistency check failed
	ErrorDetail  string

	SVD DetectorResult
	FRD DetectorResult

	// LogEntries is the number of distinct (s, rw, lw) triples in SVD's a
	// posteriori log; LogFoundBug reports whether any triple touches the
	// bug's program points.
	LogEntries  int
	LogFoundBug bool

	// CUs is the number of computational units SVD inferred.
	CUs uint64

	// SVDStats and FRDStats are the detectors' raw counters for this
	// sample; MergeSamples folds them across a run set. (Before these
	// fields, parallel runs reported per-sample classifications but
	// dropped the underlying detector stats.)
	SVDStats svd.Stats
	FRDStats frd.Stats

	// SVDWitnesses and FRDWitnesses are the flight-recorder witnesses the
	// detectors assembled, paired one-for-one with their retained reports.
	// Nil unless Options.Witness.
	SVDWitnesses []obs.Witness `json:"svd_witnesses,omitempty"`
	FRDWitnesses []obs.Witness `json:"frd_witnesses,omitempty"`
}

// Options tune a sample run.
type Options struct {
	MaxSteps uint64 // instruction budget; zero means 1<<24
	SVD      svd.Options
	FRD      frd.Options

	// Obs collects telemetry across samples (internal/obs). Each Run
	// attaches a per-sample recorder to both detectors and times its
	// phases; RunMany workers all fold into this one sink. Nil disables
	// telemetry entirely.
	Obs *obs.Sink

	// Witness enables both detectors' flight recorders and carries their
	// witnesses into each Sample.
	Witness bool
}

// Run executes one sample.
func Run(w *workloads.Workload, seed uint64, opts Options) (*Sample, error) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 1 << 24
	}
	var rec *obs.Recorder
	if opts.Obs != nil {
		rec = opts.Obs.NewRecorder(fmt.Sprintf("%s seed %d", w.Name, seed))
		defer rec.Flush()
		opts.SVD.Recorder = rec
		opts.FRD.Recorder = rec
	}
	if opts.Witness {
		opts.SVD.Witness = true
		opts.FRD.Witness = true
	}

	endBuild := rec.Span("build-vm")
	m, err := w.NewVM(seed)
	endBuild()
	if err != nil {
		return nil, err
	}
	sd := svd.New(w.Prog, w.NumThreads, opts.SVD)
	fd := frd.New(w.Prog, w.NumThreads, opts.FRD)
	// In-process runs exercise exactly the ingest path the detection
	// service runs (StepColumns), so the loopback -verify comparison
	// covers one code path, not two. The ring carries block ids at SVD's
	// shift, computed once at append time; FRD shares them whenever its
	// shift agrees.
	m.SetColumnBlockShift(opts.SVD.BlockShift)
	m.AttachColumns(sd)
	m.AttachColumns(fd)
	endSim := rec.Span("simulate")
	_, err = m.Run(opts.MaxSteps)
	endSim()
	if err != nil {
		return nil, fmt.Errorf("report: %s seed %d: %w", w.Name, seed, err)
	}
	if !m.Done() {
		return nil, fmt.Errorf("report: %s seed %d did not finish within %d steps", w.Name, seed, opts.MaxSteps)
	}
	sd.FlushObs()
	fd.FlushObs()

	endClassify := rec.Span("classify")
	defer endClassify()
	s := Classify(w, seed, sd, fd)
	if w.Check != nil {
		s.Erroneous, s.ErrorDetail = w.Check(m)
	}
	return s, nil
}

// Classify builds the detection report for a pair of finished detectors:
// counters, witnesses, site classification against the workload's ground
// truth, and the a posteriori log scan. It is the tail of Run, split out
// so a detection service that received the event stream over the wire
// (internal/server) produces reports bit-identical to an in-process run
// by construction — only Erroneous/ErrorDetail stay empty there, because
// judging them takes the finished VM, which only the event producer has.
func Classify(w *workloads.Workload, seed uint64, sd *svd.Detector, fd *frd.Detector) *Sample {
	s := &Sample{
		Workload:     w.Name,
		Seed:         seed,
		Instructions: sd.Stats().Instructions,
		CUs:          sd.Stats().CUsLive(),
		SVDStats:     sd.Stats(),
		FRDStats:     fd.Stats(),
		SVDWitnesses: sd.Witnesses(),
		FRDWitnesses: fd.Witnesses(),
	}
	s.SVD = classifySVD(w, sd)
	s.FRD = classifyFRD(w, fd)
	log := sd.Log()
	s.LogEntries = len(log)
	for _, e := range log {
		if w.BugPCs[e.ReadPC] || w.BugPCs[e.RemoteWritePC] || w.BugPCs[e.LocalWritePC] {
			s.LogFoundBug = true
			break
		}
	}
	return s
}

// MergedStats is the field-wise sum of both detectors' counters across a
// sample set — the whole-run view that per-sample rows used to drop.
type MergedStats struct {
	Samples int       `json:"samples"`
	SVD     svd.Stats `json:"svd"`
	FRD     frd.Stats `json:"frd"`

	// Witnesses collects the samples' flight-recorder witnesses (SVD's
	// first, then FRD's, in sample order), capped at MaxMergedWitnesses.
	// The per-sample slices remain complete; this is the run-level digest
	// the JSON emitters attach. Empty unless Options.Witness.
	Witnesses []obs.Witness `json:"witnesses,omitempty"`
}

// MaxMergedWitnesses caps the witnesses MergedStats retains across a run
// set; full per-violation witness lists stay on the individual samples.
const MaxMergedWitnesses = 256

// SortSamples orders samples by (Workload, Seed), nils first. The
// merged digest's witness section is a capped, order-sensitive fold, so
// two nodes that merge the same sample set in different arrival orders
// would disagree byte-for-byte; sorting both sides before MergeSamples
// is what makes a cluster's scatter-gather /report reproducible and
// comparable against a single-process run.
func SortSamples(samples []*Sample) {
	sort.SliceStable(samples, func(i, j int) bool {
		a, b := samples[i], samples[j]
		if a == nil || b == nil {
			return a == nil && b != nil
		}
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		return a.Seed < b.Seed
	})
}

// MergeSamples folds every sample's detector counters together. Nil
// samples (skipped runs) are ignored. Witnesses enter the capped digest
// as deep copies: a Witness struct copy would share its Inputs/Outputs/
// Window backing arrays with the sample, and the digest is exactly the
// view handed to concurrent readers (the detection server's query path
// serves it while shards are still draining), so aliasing here was a
// read/write race waiting for its first -race run.
func MergeSamples(samples []*Sample) MergedStats {
	var m MergedStats
	for _, s := range samples {
		if s == nil {
			continue
		}
		m.Samples++
		m.SVD.Add(s.SVDStats)
		m.FRD.Add(s.FRDStats)
		for _, w := range s.SVDWitnesses {
			if len(m.Witnesses) >= MaxMergedWitnesses {
				break
			}
			m.Witnesses = append(m.Witnesses, w.Clone())
		}
		for _, w := range s.FRDWitnesses {
			if len(m.Witnesses) >= MaxMergedWitnesses {
				break
			}
			m.Witnesses = append(m.Witnesses, w.Clone())
		}
	}
	return m
}

func classifySVD(w *workloads.Workload, sd *svd.Detector) DetectorResult {
	sites := sd.Sites()
	r := DetectorResult{
		TrueSites:  make(map[SiteKey]bool, len(sites)),
		FalseSites: make(map[SiteKey]bool, len(sites)),
	}
	for _, site := range sites {
		hit := w.BugPCs[site.StorePC] || w.BugPCs[site.First.ConflictPC]
		if hit {
			r.TrueSites[svdSiteKey(site.StorePC)] = true
			r.DynamicTrue += site.Count
			r.FoundBug = true
		} else {
			r.FalseSites[svdSiteKey(site.StorePC)] = true
			r.DynamicFalse += site.Count
		}
	}
	return r
}

func classifyFRD(w *workloads.Workload, fd *frd.Detector) DetectorResult {
	sites := fd.Sites()
	r := DetectorResult{
		TrueSites:  make(map[SiteKey]bool, len(sites)),
		FalseSites: make(map[SiteKey]bool, len(sites)),
	}
	for _, site := range sites {
		hit := w.BugPCs[site.PCLow] || w.BugPCs[site.PCHigh]
		key := SiteKey(site.Key())
		if hit {
			r.TrueSites[key] = true
			r.DynamicTrue += site.Count
			r.FoundBug = true
		} else {
			r.FalseSites[key] = true
			r.DynamicFalse += site.Count
		}
	}
	return r
}

// Row is one Table 2 row: a workload aggregated over samples.
type Row struct {
	Workload string
	Samples  int
	MInsts   float64 // total million instructions across samples

	ErroneousSamples int
	// ApparentFNs counts samples where FRD found the bug but SVD —
	// including its a posteriori log — did not (§6's apparent false
	// negatives).
	ApparentFNs int

	SVDFoundBug bool // online detection on any sample
	LogFoundBug bool // a posteriori log hit on any sample

	SVDStaticFP   int // distinct FP sites across all samples
	FRDStaticFP   int
	SVDStaticTrue int
	FRDStaticTrue int

	SVDDynFP uint64 // total dynamic FP instances
	FRDDynFP uint64

	APosteriori int // distinct log triples (max across samples)

	CUs uint64 // total computational units
}

// SVDDynFPPerM returns SVD dynamic false positives per million
// instructions.
func (r Row) SVDDynFPPerM() float64 { return perM(r.SVDDynFP, r.MInsts) }

// FRDDynFPPerM returns FRD dynamic false positives per million
// instructions.
func (r Row) FRDDynFPPerM() float64 { return perM(r.FRDDynFP, r.MInsts) }

// CUsPerM returns computational units per million instructions.
func (r Row) CUsPerM() float64 { return perM(r.CUs, r.MInsts) }

func perM(n uint64, mInsts float64) float64 {
	if mInsts == 0 {
		return 0
	}
	return float64(n) / mInsts
}

// Aggregate folds samples of one workload into a row.
func Aggregate(name string, samples []*Sample) Row {
	row := Row{Workload: name, Samples: len(samples)}
	svdFP := map[SiteKey]bool{}
	frdFP := map[SiteKey]bool{}
	svdTrue := map[SiteKey]bool{}
	frdTrue := map[SiteKey]bool{}
	for _, s := range samples {
		row.MInsts += float64(s.Instructions) / 1e6
		if s.Erroneous {
			row.ErroneousSamples++
		}
		svdFound := s.SVD.FoundBug || s.LogFoundBug
		if s.FRD.FoundBug && !svdFound {
			row.ApparentFNs++
		}
		row.SVDFoundBug = row.SVDFoundBug || s.SVD.FoundBug
		row.LogFoundBug = row.LogFoundBug || s.LogFoundBug
		for pc := range s.SVD.FalseSites {
			svdFP[pc] = true
		}
		for pc := range s.SVD.TrueSites {
			svdTrue[pc] = true
		}
		for pc := range s.FRD.FalseSites {
			frdFP[pc] = true
		}
		for pc := range s.FRD.TrueSites {
			frdTrue[pc] = true
		}
		row.SVDDynFP += s.SVD.DynamicFalse
		row.FRDDynFP += s.FRD.DynamicFalse
		if s.LogEntries > row.APosteriori {
			row.APosteriori = s.LogEntries
		}
		row.CUs += s.CUs
	}
	row.SVDStaticFP = len(svdFP)
	row.FRDStaticFP = len(frdFP)
	row.SVDStaticTrue = len(svdTrue)
	row.FRDStaticTrue = len(frdTrue)
	return row
}
