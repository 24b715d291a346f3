package obs

// Metrics is one recorder's (or, after merging, a whole run set's)
// aggregate telemetry: lifecycle counters and the histograms named by the
// observability design (DESIGN.md §7). All fields merge associatively, so
// aggregation across report.RunMany workers is order-independent.
type Metrics struct {
	Samples uint64 // recorder flushes folded in

	// Lifecycle counters (one per recorded event, even with tracing off).
	CUCreates  uint64
	CUExtends  uint64
	CUMerges   uint64
	CUCuts     uint64
	Violations uint64
	LogTriples uint64
	Races      uint64
	Witnesses  uint64 // witnesses assembled by the flight recorder: one per site-pair group

	// Arena counters, folded in at FlushObs.
	ArenaAllocated uint64
	ArenaReused    uint64
	ArenaRecycled  uint64

	// Remote-propagation counters, folded in at FlushObs: notifications
	// dispatched to remote thread instances vs. elided by the block
	// interest index.
	RemoteSent    uint64
	RemoteSkipped uint64

	// CULifetime is the age of retired units in dynamic instructions
	// (observed at merge and cut); CUFootprint their rs+ws size at
	// retirement.
	CULifetime  Histogram
	CUFootprint Histogram

	// Blockstore occupancy, one observation per thread-store at FlushObs:
	// dense pages materialized, slots committed, and blocks recorded.
	StorePages   Histogram
	StoreSlots   Histogram
	StoreTouched Histogram

	// Phase holds wall-clock nanoseconds per harness phase (build-vm,
	// simulate, classify, ...).
	Phase map[string]*Histogram
}

func (m *Metrics) observePhase(name string, ns uint64) {
	if m.Phase == nil {
		m.Phase = make(map[string]*Histogram)
	}
	h := m.Phase[name]
	if h == nil {
		h = &Histogram{}
		m.Phase[name] = h
	}
	h.Observe(ns)
}

// Merge folds o into m.
func (m *Metrics) Merge(o *Metrics) {
	m.Samples += o.Samples
	m.CUCreates += o.CUCreates
	m.CUExtends += o.CUExtends
	m.CUMerges += o.CUMerges
	m.CUCuts += o.CUCuts
	m.Violations += o.Violations
	m.LogTriples += o.LogTriples
	m.Races += o.Races
	m.Witnesses += o.Witnesses
	m.ArenaAllocated += o.ArenaAllocated
	m.ArenaReused += o.ArenaReused
	m.ArenaRecycled += o.ArenaRecycled
	m.RemoteSent += o.RemoteSent
	m.RemoteSkipped += o.RemoteSkipped
	m.CULifetime.Merge(&o.CULifetime)
	m.CUFootprint.Merge(&o.CUFootprint)
	m.StorePages.Merge(&o.StorePages)
	m.StoreSlots.Merge(&o.StoreSlots)
	m.StoreTouched.Merge(&o.StoreTouched)
	for name, h := range o.Phase {
		if m.Phase == nil {
			m.Phase = make(map[string]*Histogram)
		}
		dst := m.Phase[name]
		if dst == nil {
			dst = &Histogram{}
			m.Phase[name] = dst
		}
		dst.Merge(h)
	}
}

// clone deep-copies the metrics (the Phase map is the only shared state).
func (m *Metrics) clone() Metrics {
	out := *m
	if m.Phase != nil {
		out.Phase = make(map[string]*Histogram, len(m.Phase))
		for name, h := range m.Phase {
			cp := *h
			out.Phase[name] = &cp
		}
	}
	return out
}

// ArenaReuseRate returns the fraction of CU creations served from the
// free list, the arena's headline number.
func (m *Metrics) ArenaReuseRate() float64 {
	total := m.ArenaAllocated + m.ArenaReused
	if total == 0 {
		return 0
	}
	return float64(m.ArenaReused) / float64(total)
}

// Snapshot is the serialization-friendly view of aggregated metrics used
// by expvar and the -json outputs.
type Snapshot struct {
	Samples uint64 `json:"samples"`

	Counters map[string]uint64 `json:"counters"`

	ArenaReuseRate float64 `json:"arena_reuse_rate"`

	Histograms map[string]Summary `json:"histograms"`
	PhaseNs    map[string]Summary `json:"phase_ns"`
}

// Snapshot flattens the metrics.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Samples: m.Samples,
		Counters: map[string]uint64{
			"cu_creates":      m.CUCreates,
			"cu_extends":      m.CUExtends,
			"cu_merges":       m.CUMerges,
			"cu_cuts":         m.CUCuts,
			"violations":      m.Violations,
			"log_triples":     m.LogTriples,
			"races":           m.Races,
			"witnesses":       m.Witnesses,
			"arena_allocated": m.ArenaAllocated,
			"arena_reused":    m.ArenaReused,
			"arena_recycled":  m.ArenaRecycled,
			"remote_sent":     m.RemoteSent,
			"remote_skipped":  m.RemoteSkipped,
		},
		ArenaReuseRate: m.ArenaReuseRate(),
		Histograms: map[string]Summary{
			"cu_lifetime_instrs": m.CULifetime.Summarize(),
			"cu_footprint":       m.CUFootprint.Summarize(),
			"store_pages":        m.StorePages.Summarize(),
			"store_slots":        m.StoreSlots.Summarize(),
			"store_touched":      m.StoreTouched.Summarize(),
		},
		PhaseNs: map[string]Summary{},
	}
	for name, h := range m.Phase {
		s.PhaseNs[name] = h.Summarize()
	}
	return s
}

// Snapshot returns the sink's aggregated metrics flattened for
// serialization.
func (s *Sink) Snapshot() Snapshot {
	m := s.Metrics()
	return m.Snapshot()
}
