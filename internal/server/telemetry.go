package server

// Service telemetry: the ingest path's own observability, as opposed to
// the detector-domain metrics the obs.Sink aggregates. Three layers:
//
//   - per-shard: a mutex-guarded shardStats each worker updates once per
//     batch — queue-wait/step/wire-to-verdict power-of-two histograms,
//     queue high-water mark, and a busy-fraction EWMA. One uncontended
//     lock per ~512-event batch keeps the overhead inside the 3% budget
//     BenchmarkServerIngestTelemetry enforces; Options.Telemetry gates
//     the clock reads so the zero-allocation steady-state path is
//     untouched when off.
//
//   - per-stream: lock-free atomic odometers (frames, events, wire
//     bytes, sheds, last activity) written by the producing session and
//     read by Snapshot while ingest runs. The stream's wire-to-verdict
//     histogram is worker-owned (no atomics on the hot path) and is
//     published as a LatencyReport at close, when the close job's
//     happens-before makes it safe to read.
//
//   - engine: Snapshot() captures all of it race-free — shard stats
//     under their locks, stream odometers via atomics, the open-stream
//     registry under the engine mutex — and feeds /statusz, /report,
//     the labeled /metrics families, and svdd's periodic status line.
//
// Clock domains: queue-wait and step time are same-process monotonic
// differences. Wire-to-verdict spans processes, so it compares the
// producer's wall-clock send stamp (wire.Hello Timestamps negotiation)
// against the worker's wall clock — exact on one host (the loopback CI
// and svdload -latency case), skew-bounded across hosts.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// busyAlpha is the busy-fraction EWMA's smoothing factor: each batch's
// processing/(idle+processing) window moves the estimate 5% of the way,
// so the gauge reflects roughly the last few dozen batches.
const busyAlpha = 0.05

// shardStats is one shard worker's telemetry. The worker updates it
// under mu once per processed batch; Snapshot reads under the same
// lock, so scrapes during active ingest are race-free by construction.
type shardStats struct {
	mu       sync.Mutex
	batches  uint64
	events   uint64
	queueHWM int
	busy     float64   // EWMA of processing/(idle+processing)
	lastEnd  time.Time // end of the previous job, for the idle window

	queueWaitNs obs.Histogram // enqueue -> dequeue
	stepNs      obs.Histogram // dequeue -> StepColumns done
	wireNs      obs.Histogram // client send stamp -> StepColumns done
}

// observe folds one processed batch in. depth is the queue length seen
// at dequeue (this job included); wire is the wire-to-verdict latency,
// observed only when the stream carried a send stamp.
func (s *shardStats) observe(enq, t0, t1 time.Time, depth, events int, hasWire bool, wire uint64) {
	s.mu.Lock()
	s.batches++
	s.events += uint64(events)
	if depth > s.queueHWM {
		s.queueHWM = depth
	}
	if wait := t0.Sub(enq); wait > 0 {
		s.queueWaitNs.Observe(uint64(wait))
	} else {
		s.queueWaitNs.Observe(0)
	}
	step := t1.Sub(t0)
	if step < 0 {
		step = 0
	}
	s.stepNs.Observe(uint64(step))
	if hasWire {
		s.wireNs.Observe(wire)
	}
	if !s.lastEnd.IsZero() {
		if cycle := t1.Sub(s.lastEnd); cycle > 0 {
			frac := float64(step) / float64(cycle)
			if frac > 1 {
				frac = 1
			}
			s.busy += busyAlpha * (frac - s.busy)
		}
	}
	s.lastEnd = t1
	s.mu.Unlock()
}

// snapshot copies the stats under the lock.
func (s *shardStats) snapshot(sn *ShardSnapshot) {
	s.mu.Lock()
	sn.Batches = s.batches
	sn.Events = s.events
	sn.QueueHWM = s.queueHWM
	sn.Busy = s.busy
	sn.QueueWaitNs = s.queueWaitNs.Summarize()
	sn.StepNs = s.stepNs.Summarize()
	sn.WireNs = s.wireNs.Summarize()
	s.mu.Unlock()
}

// hists deep-copies the shard's histograms under the lock, for merging
// into the report path.
func (s *shardStats) hists() (queueWait, step, wire obs.Histogram) {
	s.mu.Lock()
	queueWait, step, wire = s.queueWaitNs, s.stepNs, s.wireNs
	s.mu.Unlock()
	return
}

// ShardSnapshot is one shard's telemetry at a point in time.
type ShardSnapshot struct {
	ID       int `json:"id"`
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	QueueHWM int `json:"queue_hwm"`

	// Busy is the worker's EWMA busy fraction in [0,1], as of its last
	// processed job (an idle shard keeps its last estimate).
	Busy float64 `json:"busy"`

	Batches uint64 `json:"batches"`
	Events  uint64 `json:"events"`

	QueueWaitNs obs.Summary `json:"queue_wait_ns"`
	StepNs      obs.Summary `json:"step_ns"`
	WireNs      obs.Summary `json:"wire_to_verdict_ns"`
}

// StreamSnapshot is one open stream's odometer at a point in time.
type StreamSnapshot struct {
	ID       uint64 `json:"id"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Shard    int    `json:"shard"`

	Frames    uint64 `json:"frames"`
	Events    uint64 `json:"events"`
	WireBytes uint64 `json:"wire_bytes"`
	Shed      uint64 `json:"shed"`

	// Poisoned marks a stream that shed under PolicyShed: its eventual
	// result will report the overload instead of counts.
	Poisoned bool `json:"poisoned"`

	OpenedUnixNano     int64 `json:"opened_unix_nano"`
	LastActiveUnixNano int64 `json:"last_active_unix_nano"`
}

// Snapshot is the engine's full operational state at one instant,
// captured race-free while ingest is running: the shard table, every
// open stream's odometer, and the engine counters. It backs /statusz,
// the labeled /metrics families, and the periodic status log line.
type Snapshot struct {
	TakenUnixNano int64   `json:"taken_unix_nano"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Policy        string  `json:"policy"`
	Telemetry     bool    `json:"telemetry"`

	Shards   []ShardSnapshot  `json:"shards"`
	Streams  []StreamSnapshot `json:"streams"` // open streams, hottest (most events) first
	Counters Counters         `json:"counters"`

	// Journal is the durable journal's state when one is attached
	// (svdd -journal); nil otherwise.
	Journal *journal.Stats `json:"journal,omitempty"`
}

// Snapshot captures the engine's operational state. Safe to call at any
// time, including concurrently with active ingest on every shard: shard
// stats are read under their per-shard locks, stream odometers through
// their atomics, and the open-stream registry under the engine mutex.
func (e *Engine) Snapshot() Snapshot {
	now := time.Now()
	sn := Snapshot{
		TakenUnixNano: now.UnixNano(),
		UptimeSeconds: now.Sub(e.started).Seconds(),
		Policy:        e.opts.Policy.String(),
		Telemetry:     e.opts.Telemetry,
		Shards:        make([]ShardSnapshot, len(e.shards)),
		Counters:      e.Counters(),
	}
	if jw := e.opts.Journal; jw != nil {
		js := jw.Stats()
		sn.Journal = &js
	}
	for i, sh := range e.shards {
		s := &sn.Shards[i]
		s.ID = sh.id
		s.QueueLen = len(sh.jobs)
		s.QueueCap = cap(sh.jobs)
		sh.stats.snapshot(s)
	}
	e.mu.Lock()
	sn.Streams = make([]StreamSnapshot, 0, len(e.open))
	for _, st := range e.open {
		shed := st.shed.Load()
		sn.Streams = append(sn.Streams, StreamSnapshot{
			ID:                 st.id,
			Workload:           st.w.Name,
			Seed:               st.seed,
			Shard:              st.sh.id,
			Frames:             st.frames.Load(),
			Events:             st.events.Load(),
			WireBytes:          st.wireBytes.Load(),
			Shed:               shed,
			Poisoned:           shed > 0,
			OpenedUnixNano:     st.opened.UnixNano(),
			LastActiveUnixNano: st.lastActive.Load(),
		})
	}
	e.mu.Unlock()
	// Hottest first; id breaks ties so the order is stable under test.
	sort.Slice(sn.Streams, func(i, j int) bool {
		if sn.Streams[i].Events != sn.Streams[j].Events {
			return sn.Streams[i].Events > sn.Streams[j].Events
		}
		return sn.Streams[i].ID < sn.Streams[j].ID
	})
	return sn
}

// LatencyReport is one stream's ingest-latency digest, assembled at
// close from the worker-owned histogram and echoed to the producer in
// the Result frame when the stream negotiated timestamps. The full
// histogram travels (not just the summary) so a load generator can
// merge reports across streams and quote exact aggregate percentiles.
type LatencyReport struct {
	// Batches is the number of stamped batches observed.
	Batches uint64 `json:"batches"`

	// WireToVerdictNs is client send stamp -> detectors stepped, in
	// nanoseconds. Exact when producer and detector share a host;
	// includes clock skew when they do not.
	WireToVerdictNs obs.Histogram `json:"wire_to_verdict_ns"`
}

// Summary flattens the report's histogram.
func (l *LatencyReport) Summary() obs.Summary { return l.WireToVerdictNs.Summarize() }

// WriteMetrics appends the engine's shard and stream telemetry to an
// OpenMetrics exposition as labeled families (shard="N", stream/workload
// labels), sharing the page with the sink's detector metrics. Families
// are emitted once with one series per shard or open stream, per the
// one-header-per-family rule openmetrics_test pins down.
func (e *Engine) WriteMetrics(o *obs.OpenMetricsWriter) {
	sn := e.Snapshot()

	c := sn.Counters
	o.Counter("streams_opened", "streams admitted by the engine", c.StreamsOpened)
	o.Counter("streams_closed", "streams finalized with a report", c.StreamsClosed)
	o.Counter("ingest_batches", "event batches enqueued to shard workers", c.Batches)
	o.Counter("ingest_events", "events enqueued to shard workers", c.Events)
	o.Counter("batches_shed", "batches dropped under PolicyShed", c.BatchesShed)
	o.Counter("streams_shed", "streams poisoned by shedding", c.StreamsShed)
	o.Counter("detector_reuses", "streams served by their shard's idle detector pair", c.DetectorReuses)
	o.Gauge("streams_open", "streams currently open", float64(len(sn.Streams)))

	if j := sn.Journal; j != nil {
		o.Gauge("journal_segments", "journal segments on disk, sealed plus active", float64(j.Segments))
		o.Gauge("journal_active_bytes", "bytes in the journal's active segment", float64(j.ActiveBytes))
		o.Gauge("journal_total_bytes", "bytes across all retained journal segments", float64(j.TotalBytes))
		o.Counter("journal_appended_records", "wire frames and verdict records appended to the journal", j.AppendedRecords)
		o.Counter("journal_appended_bytes", "payload bytes appended to the journal", j.AppendedBytes)
		o.Counter("journal_rotations", "journal segment rotations", j.Rotations)
		o.Counter("journal_recycled_segments", "rotations that reused a retired segment file in place", j.RecycledSegments)
		o.Counter("journal_append_errors", "journal appends that failed and downgraded their stream", j.AppendErrors)
		o.Histogram("journal_fsync_ns", "journal fsync latency", &j.FsyncNs)
	}

	shardLabel := func(id int) map[string]string {
		return map[string]string{"shard": fmt.Sprintf("%d", id)}
	}
	depth := make([]obs.LabeledValue, len(sn.Shards))
	hwm := make([]obs.LabeledValue, len(sn.Shards))
	busy := make([]obs.LabeledValue, len(sn.Shards))
	batches := make([]obs.LabeledValue, len(sn.Shards))
	events := make([]obs.LabeledValue, len(sn.Shards))
	for i, s := range sn.Shards {
		l := shardLabel(s.ID)
		depth[i] = obs.LabeledValue{Labels: l, Value: float64(s.QueueLen)}
		hwm[i] = obs.LabeledValue{Labels: l, Value: float64(s.QueueHWM)}
		busy[i] = obs.LabeledValue{Labels: l, Value: s.Busy}
		batches[i] = obs.LabeledValue{Labels: l, Value: float64(s.Batches)}
		events[i] = obs.LabeledValue{Labels: l, Value: float64(s.Events)}
	}
	o.GaugeSeries("shard_queue_depth", "pending jobs on the shard queue", depth)
	o.GaugeSeries("shard_queue_hwm", "high-water mark of the shard queue", hwm)
	o.GaugeSeries("shard_busy", "EWMA busy fraction of the shard worker", busy)
	o.CounterSeries("shard_batches", "batches processed by the shard worker", batches)
	o.CounterSeries("shard_events", "events processed by the shard worker", events)

	// The histograms need the live buckets, not the snapshot summaries.
	queueWait := make([]obs.LabeledHistogram, len(e.shards))
	step := make([]obs.LabeledHistogram, len(e.shards))
	wire := make([]obs.LabeledHistogram, len(e.shards))
	for i, sh := range e.shards {
		qw, st, wi := sh.stats.hists()
		l := shardLabel(sh.id)
		queueWait[i] = obs.LabeledHistogram{Labels: l, Hist: &qw}
		step[i] = obs.LabeledHistogram{Labels: l, Hist: &st}
		wire[i] = obs.LabeledHistogram{Labels: l, Hist: &wi}
	}
	o.HistogramSeries("ingest_queue_wait_ns", "batch enqueue to dequeue latency", queueWait)
	o.HistogramSeries("ingest_step_ns", "batch detector-step latency", step)
	o.HistogramSeries("ingest_wire_to_verdict_ns", "client send stamp to detectors-stepped latency", wire)

	streamSeries := func(pick func(StreamSnapshot) float64) []obs.LabeledValue {
		out := make([]obs.LabeledValue, len(sn.Streams))
		for i, s := range sn.Streams {
			out[i] = obs.LabeledValue{
				Labels: map[string]string{
					"stream":   fmt.Sprintf("%d", s.ID),
					"workload": s.Workload,
					"shard":    fmt.Sprintf("%d", s.Shard),
				},
				Value: pick(s),
			}
		}
		return out
	}
	o.CounterSeries("stream_frames", "event frames ingested per open stream",
		streamSeries(func(s StreamSnapshot) float64 { return float64(s.Frames) }))
	o.CounterSeries("stream_events", "events ingested per open stream",
		streamSeries(func(s StreamSnapshot) float64 { return float64(s.Events) }))
	o.CounterSeries("stream_wire_bytes", "wire bytes ingested per open stream",
		streamSeries(func(s StreamSnapshot) float64 { return float64(s.WireBytes) }))
	o.CounterSeries("stream_shed_batches", "batches shed per open stream",
		streamSeries(func(s StreamSnapshot) float64 { return float64(s.Shed) }))
	o.GaugeSeries("stream_poisoned", "1 when the open stream has shed and will report overload",
		streamSeries(func(s StreamSnapshot) float64 {
			if s.Poisoned {
				return 1
			}
			return 0
		}))
	o.GaugeSeries("stream_last_active_unix_nano", "wall clock of the stream's last ingested batch",
		streamSeries(func(s StreamSnapshot) float64 { return float64(s.LastActiveUnixNano) }))

	if rt := e.clusterRt; rt != nil {
		cs := rt.Snapshot()
		o.Counter("cluster_misroutes", "streams that arrived at a non-owner node", cs.Misroutes)
		o.Counter("cluster_forwarded", "frames relayed toward a stream's owning node", cs.ForwardedFrames)
		o.CounterSeries("cluster_handoffs", "drained-stream transfers by direction", []obs.LabeledValue{
			{Labels: map[string]string{"direction": "in"}, Value: float64(cs.HandoffsIn)},
			{Labels: map[string]string{"direction": "out"}, Value: float64(cs.HandoffsOut)},
		})
		o.Gauge("cluster_handoffs_in_flight", "stream transfers currently replaying or relaying", float64(cs.HandoffsInFlight))
		o.Counter("cluster_members_down", "members this node declared dead", cs.MembersDown)
		o.Gauge("cluster_epoch", "membership view epoch in force", float64(cs.Epoch))
		o.Gauge("cluster_ring_version", "consistent-hash ring version in force", float64(cs.RingVersion))
		o.Gauge("cluster_members", "members in the current view", float64(len(cs.Members)))
	}
}

// MetricsWriter adapts WriteMetrics to the obs.NewServeMux extra-writer
// hook, so the daemon mounts one /metrics page carrying both detector
// and service families.
func (e *Engine) MetricsWriter() func(*obs.OpenMetricsWriter) {
	return func(o *obs.OpenMetricsWriter) { e.WriteMetrics(o) }
}
