package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// OpenMetrics/Prometheus text exposition of the aggregated metrics
// (DESIGN.md §9). The expvar endpoint from the first telemetry pass
// published a JSON blob a human can read; this writer speaks the format
// scrapers actually consume: `<ns>_<counter>_total` counters, gauges, and
// the power-of-two histograms as cumulative `_bucket{le="..."}` series
// with `_sum`/`_count`, terminated by `# EOF` per the OpenMetrics spec.

// OpenMetricsContentType is the content type of the exposition,
// negotiable down to the classic Prometheus text format by any scraper.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// OpenMetricsWriter builds one exposition page incrementally: metric
// families in any order, then exactly one EOF. It exists so packages
// outside obs (the ingestion engine's shard and stream telemetry) can
// append their own labeled families to the same scrape the sink's
// detector metrics land on, without duplicating format rules — one
// HELP/TYPE header per family, label-distinguished series under it,
// cumulative le-buckets for histograms.
type OpenMetricsWriter struct {
	ew *errWriter
	ns string
}

// NewOpenMetricsWriter starts an exposition under the namespace prefix
// (every family is named ns_<name>). Call EOF exactly once at the end.
func NewOpenMetricsWriter(w io.Writer, ns string) *OpenMetricsWriter {
	return &OpenMetricsWriter{ew: &errWriter{w: w}, ns: ns}
}

// LabeledValue is one series of a labeled counter or gauge family.
type LabeledValue struct {
	Labels map[string]string
	Value  float64
}

// LabeledHistogram is one series of a labeled histogram family.
type LabeledHistogram struct {
	Labels map[string]string
	Hist   *Histogram
}

// Counter emits a single-series counter family.
func (o *OpenMetricsWriter) Counter(name, help string, v uint64) {
	fmt.Fprintf(o.ew, "# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s_total %d\n",
		o.ns, name, help, o.ns, name, o.ns, name, v)
}

// Gauge emits a single-series gauge family.
func (o *OpenMetricsWriter) Gauge(name, help string, v float64) {
	fmt.Fprintf(o.ew, "# HELP %s_%s %s\n# TYPE %s_%s gauge\n%s_%s %g\n",
		o.ns, name, help, o.ns, name, o.ns, name, v)
}

// CounterSeries emits one counter family with a label-distinguished
// series per element, in the order given (callers sort for determinism).
func (o *OpenMetricsWriter) CounterSeries(name, help string, series []LabeledValue) {
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(o.ew, "# HELP %s_%s %s\n# TYPE %s_%s counter\n", o.ns, name, help, o.ns, name)
	for _, s := range series {
		fmt.Fprintf(o.ew, "%s_%s_total%s %g\n", o.ns, name, bareLabels(s.Labels), s.Value)
	}
}

// GaugeSeries emits one gauge family with a label-distinguished series
// per element, in the order given.
func (o *OpenMetricsWriter) GaugeSeries(name, help string, series []LabeledValue) {
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(o.ew, "# HELP %s_%s %s\n# TYPE %s_%s gauge\n", o.ns, name, help, o.ns, name)
	for _, s := range series {
		fmt.Fprintf(o.ew, "%s_%s%s %g\n", o.ns, name, bareLabels(s.Labels), s.Value)
	}
}

// Histogram emits a single-series histogram family.
func (o *OpenMetricsWriter) Histogram(name, help string, h *Histogram) {
	writeHistogram(o.ew, o.ns, name, help, h, nil)
}

// HistogramSeries emits one histogram family with a label-distinguished
// series per element, in the order given — one shared HELP/TYPE header,
// as the OpenMetrics spec requires.
func (o *OpenMetricsWriter) HistogramSeries(name, help string, series []LabeledHistogram) {
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(o.ew, "# HELP %s_%s %s\n# TYPE %s_%s histogram\n", o.ns, name, help, o.ns, name)
	for _, s := range series {
		writeHistogramSeries(o.ew, o.ns, name, s.Hist, s.Labels)
	}
}

// EOF terminates the exposition and reports the first write error.
func (o *OpenMetricsWriter) EOF() error {
	fmt.Fprint(o.ew, "# EOF\n")
	return o.ew.err
}

// Err reports the first write error without terminating the exposition.
func (o *OpenMetricsWriter) Err() error { return o.ew.err }

// WriteOpenMetrics writes the metrics in OpenMetrics text format under the
// given namespace prefix (e.g. "svd"). Series order is deterministic.
func (m *Metrics) WriteOpenMetrics(w io.Writer, ns string) error {
	o := NewOpenMetricsWriter(w, ns)
	m.WriteFamilies(o)
	return o.EOF()
}

// WriteFamilies emits the metrics' families onto an in-progress
// exposition, leaving the EOF to the caller — the hook that lets a
// daemon's /metrics page interleave sink metrics with service telemetry.
func (m *Metrics) WriteFamilies(o *OpenMetricsWriter) {
	ew, ns := o.ew, o.ns
	counter := o.Counter
	gauge := o.Gauge

	gauge("samples", "sample runs folded into this sink", float64(m.Samples))
	counter("cu_creates", "computational units allocated", m.CUCreates)
	counter("cu_extends", "blocks joining a unit footprint", m.CUExtends)
	counter("cu_merges", "units consumed by merge_and_update", m.CUMerges)
	counter("cu_cuts", "units ended by shared dependences", m.CUCuts)
	counter("violations", "dynamic serializability violations", m.Violations)
	counter("log_triples", "dynamic (s, rw, lw) log occurrences", m.LogTriples)
	counter("races", "dynamic happens-before races", m.Races)
	counter("witnesses", "witnesses assembled by the flight recorder, one per site-pair group", m.Witnesses)
	counter("arena_allocated", "units carved fresh from slabs", m.ArenaAllocated)
	counter("arena_reused", "units served from the free list", m.ArenaReused)
	counter("arena_recycled", "units returned to the free list", m.ArenaRecycled)
	counter("remote_sent", "remote notifications dispatched", m.RemoteSent)
	counter("remote_skipped", "remote notifications elided by the interest index", m.RemoteSkipped)
	gauge("arena_reuse_rate", "fraction of unit creations served from the free list", m.ArenaReuseRate())

	writeHistogram(ew, ns, "cu_lifetime_instrs", "unit age at retirement in instructions", &m.CULifetime, nil)
	writeHistogram(ew, ns, "cu_footprint_blocks", "unit rs+ws size at retirement", &m.CUFootprint, nil)
	writeHistogram(ew, ns, "store_pages", "block-store pages materialized per thread store", &m.StorePages, nil)
	writeHistogram(ew, ns, "store_slots", "block-store slots committed per thread store", &m.StoreSlots, nil)
	writeHistogram(ew, ns, "store_touched_blocks", "blocks recorded per thread store", &m.StoreTouched, nil)

	// One metric family, one HELP/TYPE header: the per-phase histograms
	// are label-distinguished series under a single phase_ns family.
	if len(m.Phase) > 0 {
		phases := make([]string, 0, len(m.Phase))
		for name := range m.Phase {
			phases = append(phases, name)
		}
		sort.Strings(phases)
		fmt.Fprintf(ew, "# HELP %s_phase_ns harness phase latency in nanoseconds\n# TYPE %s_phase_ns histogram\n", ns, ns)
		for _, name := range phases {
			writeHistogramSeries(ew, ns, "phase_ns", m.Phase[name], map[string]string{"phase": name})
		}
	}
}

// writeHistogram emits one histogram as cumulative power-of-two buckets.
// Only populated boundaries are emitted (plus the mandatory +Inf), keeping
// the exposition proportional to the data instead of 65 buckets per
// series.
func writeHistogram(w io.Writer, ns, name, help string, h *Histogram, labels map[string]string) {
	fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s histogram\n", ns, name, help, ns, name)
	writeHistogramSeries(w, ns, name, h, labels)
}

// writeHistogramSeries emits one histogram's bucket/sum/count series
// without a family header, so label-distinguished series can share one.
func writeHistogramSeries(w io.Writer, ns, name string, h *Histogram, labels map[string]string) {
	base := labelString(labels)
	var cum uint64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		// Bucket i holds values of bit length i: upper bound 2^i - 1
		// (bucket 0 is exactly zero).
		upper := uint64(0)
		if i > 0 {
			upper = 1<<uint(i) - 1
		}
		fmt.Fprintf(w, "%s_%s_bucket{%sle=\"%d\"} %d\n", ns, name, base, upper, cum)
	}
	fmt.Fprintf(w, "%s_%s_bucket{%sle=\"+Inf\"} %d\n", ns, name, base, h.Count)
	fmt.Fprintf(w, "%s_%s_sum%s %d\n", ns, name, bareLabels(labels), h.Sum)
	fmt.Fprintf(w, "%s_%s_count%s %d\n", ns, name, bareLabels(labels), h.Count)
}

// labelString renders labels for use inside a bucket's braces, with a
// trailing comma so `le` can follow ("" for no labels).
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// bareLabels renders a complete label set ("{k="v"}" or "") for the
// _sum/_count series.
func bareLabels(labels map[string]string) string {
	s := labelString(labels)
	if s == "" {
		return ""
	}
	return "{" + strings.TrimSuffix(s, ",") + "}"
}

// errWriter latches the first write error so the exposition loop stays
// unconditional.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, nil
}

// WriteOpenMetrics writes the sink's aggregated metrics in OpenMetrics
// text format under the namespace prefix.
func (s *Sink) WriteOpenMetrics(w io.Writer, ns string) error {
	m := s.Metrics()
	return m.WriteOpenMetrics(w, ns)
}

// WriteFamilies emits the sink's aggregated families onto an
// in-progress exposition, leaving the EOF to the caller.
func (s *Sink) WriteFamilies(o *OpenMetricsWriter) {
	m := s.Metrics()
	m.WriteFamilies(o)
}
