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
	"cmp"
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

	// SVDWitnesses and FRDWitnesses are the detectors' flight-recorder
	// witness groups: one per site pair in first-seen order, each with
	// its exact report count and its first report's witness (see
	// svd.Detector.WitnessGroups). Nil unless Options.Witness.
	SVDWitnesses []obs.WitnessGroup `json:"svd_witnesses,omitempty"`
	FRDWitnesses []obs.WitnessGroup `json:"frd_witnesses,omitempty"`
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
	// witness groups into each Sample.
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
// counters, witness groups, site classification against the workload's
// ground truth, and the a posteriori log scan. It is the tail of Run, split out
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
		SVDWitnesses: sd.WitnessGroups(),
		FRDWitnesses: fd.WitnessGroups(),
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

	// Witnesses collects the samples' witness groups (SVD's first, then
	// FRD's, in SortSamples order), capped at MaxMergedWitnesses. Groups
	// are never combined across samples: each keeps its own sample's
	// count and exemplar. The per-sample slices remain complete; this is
	// the run-level digest the JSON emitters attach. Empty unless
	// Options.Witness.
	Witnesses []obs.WitnessGroup `json:"witnesses,omitempty"`
}

// MaxMergedWitnesses caps the witness groups MergedStats retains across
// a run set; every group stays on its individual sample.
const MaxMergedWitnesses = 256

// SampleKey is the order the merged witness section follows: workload,
// seed, instruction count (scale changes it, so one workload and seed
// at two scales stay apart), SVD violation count and FRD race count.
// It reads counters only, never witnesses: samples that tie on it come
// from identically recorded streams, which tie often and merge the same
// in either order.
type SampleKey struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Instructions uint64 `json:"instructions"`
	Violations   uint64 `json:"violations"`
	Races        uint64 `json:"races"`
}

// keyOf returns s's sample key; s must not be nil.
func keyOf(s *Sample) SampleKey {
	return SampleKey{s.Workload, s.Seed, s.Instructions, s.SVDStats.Violations, s.FRDStats.Races}
}

// less orders keys field by field.
func (k SampleKey) less(o SampleKey) bool {
	return cmp.Or(cmp.Compare(k.Workload, o.Workload), cmp.Compare(k.Seed, o.Seed),
		cmp.Compare(k.Instructions, o.Instructions), cmp.Compare(k.Violations, o.Violations),
		cmp.Compare(k.Races, o.Races)) < 0
}

// SortSamples orders samples stably by SampleKey, nils first.
func SortSamples(samples []*Sample) {
	sort.SliceStable(samples, func(i, j int) bool {
		a, b := samples[i], samples[j]
		if a == nil || b == nil {
			return a == nil && b != nil
		}
		return keyOf(a).less(keyOf(b))
	})
}

// Digest is MergedStats made mergeable: Keys[i] is the SampleKey of
// Witnesses[i]'s sample, so later samples, or another digest, enter the
// capped group section at their place in SortSamples order. Folding
// samples in any order, or merging the digests of any partition of
// them, gives the MergedStats of the whole set. Add and Merge replace
// the Witnesses and Keys slices instead of writing into them, and never
// rewrite a group, so a copy of a Digest stays valid while the original
// keeps folding.
type Digest struct {
	MergedStats
	Keys []SampleKey `json:"keys,omitempty"`
}

// Add folds one sample into the digest; nil is ignored. Only groups
// that fall inside the cap are copied in, with deep-copied exemplars: a
// struct copy would share the witness's Inputs/Outputs/Window backing
// arrays with the sample.
func (d *Digest) Add(s *Sample) {
	if s == nil {
		return
	}
	k := keyOf(s)
	room := MaxMergedWitnesses - sort.Search(len(d.Keys), func(i int) bool { return k.less(d.Keys[i]) })
	one := Digest{MergedStats: MergedStats{Samples: 1, SVD: s.SVDStats, FRD: s.FRDStats}}
	for _, gs := range [][]obs.WitnessGroup{s.SVDWitnesses, s.FRDWitnesses} {
		for _, g := range gs {
			if len(one.Witnesses) >= room {
				break
			}
			g.First = g.First.Clone()
			one.Witnesses = append(one.Witnesses, g)
			one.Keys = append(one.Keys, k)
		}
	}
	d.Merge(one)
}

// Merge folds another digest into d, keeping the MaxMergedWitnesses
// lowest-keyed groups of both; on equal keys d's groups stay first. o
// must be well formed: one key per group, keys sorted.
func (d *Digest) Merge(o Digest) {
	d.Samples += o.Samples
	d.SVD.Add(o.SVD)
	d.FRD.Add(o.FRD)
	if len(o.Witnesses) == 0 {
		return
	}
	n := min(len(d.Witnesses)+len(o.Witnesses), MaxMergedWitnesses)
	ws, keys := make([]obs.WitnessGroup, 0, n), make([]SampleKey, 0, n)
	i, j := 0, 0
	for len(ws) < n {
		if j == len(o.Keys) || i < len(d.Keys) && !o.Keys[j].less(d.Keys[i]) {
			ws, keys = append(ws, d.Witnesses[i]), append(keys, d.Keys[i])
			i++
		} else {
			ws, keys = append(ws, o.Witnesses[j]), append(keys, o.Keys[j])
			j++
		}
	}
	d.Witnesses, d.Keys = ws, keys
}

// MergeSamples folds samples into one MergedStats (see Digest): the
// result is a function of the sample set, not of its order. Nil samples
// (skipped runs) are ignored.
func MergeSamples(samples []*Sample) MergedStats {
	var d Digest
	for _, s := range samples {
		d.Add(s)
	}
	return d.MergedStats
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
