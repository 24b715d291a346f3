// Package server is the detection service's ingestion engine: it turns
// wire-format event streams into detector work spread across shards.
//
// The paper positions SVD as an always-on monitor for server programs
// (§1); this package is the piece that lets one long-running daemon
// monitor many executions at once. The design splits three concerns:
//
//   - sessions (session.go) speak the wire protocol on one connection,
//     decoding frames and pushing decoded batches into the engine;
//   - the shard router assigns each stream to one of N detector workers
//     (round-robin over engine-assigned stream ids, or an FNV hash of
//     the client's stream key when it supplies one), so one stream's
//     events are always processed by one goroutine in order while
//     distinct streams run in parallel;
//   - shard workers own all detector state. Each worker pulls jobs off
//     a bounded queue and runs the columnar detector path —
//     svd.Detector and frd.Detector StepColumns, bit-identical to the
//     per-event code an in-process report.Run drives — then classifies
//     the finished detectors with report.Classify, so a served result
//     is bit-identical to a local one.
//
// # Batch ownership
//
// The ingest hot path is zero-copy: the wire decoder fills a columnar
// vm.EventBatch in place (Deframer.ReadFrameInto) and that same buffer
// travels to the shard worker. No []vm.Event is materialized and no
// copy-on-enqueue happens. That works only because buffer ownership is
// explicit and linear:
//
//  1. The session borrows an empty batch with Stream.GetBatch — from
//     the stream's recycle ring when the worker has returned one, from
//     the shard's sync.Pool otherwise.
//  2. Stream.IngestBatch(eb) transfers ownership to the engine. The
//     session must not touch eb afterwards — not even its length. If
//     the batch is not handed off (empty batch, shed, non-event frame
//     decoded into it), the session keeps ownership and parks the
//     buffer in Stream.spare for the next GetBatch.
//  3. The shard worker, after StepColumns, recycles the buffer: onto
//     the stream's single-producer/single-consumer ring (ring.go) when
//     there is room, back to the shard pool when not. In steady state
//     a stream circulates a small fixed set of buffers and the pool is
//     never touched.
//  4. The close job drains the stream's ring back to the pool; the
//     session is provably parked in Close/Abort by then, which is what
//     licenses the worker to touch the consumer end.
//
// The per-shard queues are bounded; Options.Policy picks what happens
// when a queue fills. PolicyBlock stalls the producing session, which
// propagates backpressure to the client through TCP — the right default
// for a detector whose results must be complete. PolicyShed drops the
// batch and poisons the stream: its eventual result carries an
// overload error instead of silently wrong counts, the standard
// monitoring-service trade (Tunç et al. shed under burst; a detector
// that sheds must say so).
//
// Shutdown follows obs.Server's context idiom: Shutdown(ctx) stops new
// streams, waits for open streams to drain (bounded by ctx), then stops
// the workers.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/frd"
	"repro/internal/isa"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/svd"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// Policy selects the overload behavior of a full shard queue.
type Policy int

const (
	// PolicyBlock stalls the producer until the worker catches up —
	// lossless, backpressure flows to the client over TCP.
	PolicyBlock Policy = iota

	// PolicyShed drops the batch, counts it, and poisons the stream so
	// its result reports the overload instead of wrong counts.
	PolicyShed
)

// String names the policy for flags and logs.
func (p Policy) String() string {
	if p == PolicyShed {
		return "shed"
	}
	return "block"
}

// ParsePolicy parses "block" or "shed".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block", "":
		return PolicyBlock, nil
	case "shed":
		return PolicyShed, nil
	default:
		return 0, fmt.Errorf("server: unknown overload policy %q (want block or shed)", s)
	}
}

// Options tune the engine.
type Options struct {
	// Shards is the detector worker count. <= 0 means 1.
	Shards int

	// QueueDepth bounds each shard's pending-job queue. <= 0 means 64.
	QueueDepth int

	// Policy picks blocking or shedding when a shard queue is full.
	Policy Policy

	// SVD and FRD configure every stream's detectors. Witness is forced
	// on per stream when its Hello asks for it.
	SVD svd.Options
	FRD frd.Options

	// Scale is the workload scale used to rebuild registry workloads
	// for streams that name one. It must match the producer's scale or
	// programs diverge; the Hello carries the client's value, which
	// wins when nonzero.
	Scale int

	// Obs collects detector telemetry across streams; nil disables it.
	Obs *obs.Sink

	// Journal, when set, is the durable store sessions append ingested
	// wire frames to, each before its batch reaches a shard. In-process
	// producers that bypass the wire (Stream.IngestBatch) are not
	// journaled — the journal records what arrived on the wire, exactly.
	// Violation anchors are derived from it after the fact
	// (ReplayJournalAnchored, svdreplay -anchors), not while serving.
	Journal *journal.Writer

	// StreamBase offsets engine-assigned stream ids. A daemon reopening
	// a journal passes the writer's StreamBase() so ids stay unique
	// across restarts sharing one journal directory.
	StreamBase uint64

	// ForceWitness runs every stream's detectors with the flight
	// recorder on, regardless of what its Hello asked for, and with
	// WitnessAll, so every retained violation has its own witness for
	// its anchor. Replay tools use it to re-detect anchored violations
	// with witnesses; a serving daemon leaves it off so the client's
	// Witness flag stays in charge.
	ForceWitness bool

	// Telemetry enables the ingest path's own instrumentation: per-batch
	// queue-wait/step clocks folded into per-shard histograms and the
	// busy-fraction EWMA (telemetry.go). Off, the hot path takes no
	// clock readings and shard stats stay zero; stream odometers and
	// wire-to-verdict latency (driven by the peer's Timestamps
	// negotiation, not this flag) still work.
	Telemetry bool

	// Logger receives operational events; nil means slog.Default().
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Counters is the engine's ingest odometer, served by the query surface.
type Counters struct {
	StreamsOpened uint64 `json:"streams_opened"`
	StreamsClosed uint64 `json:"streams_closed"`
	Batches       uint64 `json:"batches"`
	Events        uint64 `json:"events"`
	BatchesShed   uint64 `json:"batches_shed"`
	StreamsShed   uint64 `json:"streams_shed"` // streams poisoned by shedding

	// StreamsHandedOff counts streams drained here and transferred to
	// another cluster node; their results are published by the new
	// owner, not this engine.
	StreamsHandedOff uint64 `json:"streams_handed_off,omitempty"`

	// DetectorReuses counts streams served by their shard's idle
	// detector pair instead of newly built detectors.
	DetectorReuses uint64 `json:"detector_reuses,omitempty"`
}

// Engine is the sharded ingestion engine. Create with New, feed with
// OpenStream (or ServeConn / Serve for wire transport), stop with
// Shutdown.
type Engine struct {
	opts    Options
	shards  []*shard
	started time.Time

	nextStream atomic.Uint64
	streams    sync.WaitGroup // open streams

	draining atomic.Bool
	stopOnce sync.Once // closes the shard queues exactly once

	counters struct {
		streamsOpened    atomic.Uint64
		streamsClosed    atomic.Uint64
		batches          atomic.Uint64
		events           atomic.Uint64
		batchesShed      atomic.Uint64
		streamsShed      atomic.Uint64
		streamsHandedOff atomic.Uint64
		detectorReuses   atomic.Uint64
	}

	// clusterRt is the cluster router when this engine runs as a
	// cluster node (set by NewClusterServer before any serving starts);
	// nil for a standalone daemon. /statusz and /metrics read it.
	clusterRt *cluster.Router

	mu          sync.Mutex
	digest      report.Digest         // every published sample, folded in by the close job
	open        map[uint64]*Stream    // registry behind Snapshot's stream table
	conns       map[net.Conn]struct{} // connections of running sessions (serve)
	connsClosed bool                  // CloseConns ran: refuse new connections
}

// job is one unit of shard work. Exactly one of open/close/eb is set.
type job struct {
	st    *Stream
	open  bool
	close bool
	eb    *vm.EventBatch // owned by the worker once enqueued; recycled after StepColumns

	// sendNanos is the producer's wall-clock send stamp (0 when the
	// stream did not negotiate timestamps); enq is the local enqueue
	// time, taken only under Options.Telemetry.
	sendNanos uint64
	enq       time.Time

	// loc is the journal record this batch was replayed from, valid
	// when journaled is set; the worker anchors any violations the batch
	// produces to it.
	loc       journal.Loc
	journaled bool
}

type shard struct {
	id    int
	jobs  chan job
	pool  sync.Pool // *vm.EventBatch buffers (overflow beyond the per-stream rings)
	stats shardStats

	// idle is the shard's one spare detector pair: reset by the close
	// job of the stream that used it, taken by the next open job whose
	// stream needs the same key. Worker-owned; sd is nil when empty.
	idle detectorPair
}

// detectorPair is one stream's detectors with the key a later stream
// must match to reuse them.
type detectorPair struct {
	key pairKey
	sd  *svd.Detector
	fd  *frd.Detector
}

// pairKey is what building a stream's detectors takes beyond the
// engine's fixed options: the program (registry programs are cached, so
// equal workload and scale mean the same pointer), the thread count and
// the witness settings.
type pairKey struct {
	prog                *isa.Program
	threads             int
	witness, witnessAll bool
}

// idlePairBudget caps the storage a pair may keep (svd and frd
// Detector.Retained) to stay a shard's idle pair. A registry pair at
// scale 1 holds 0.7–1.4 MB; one whose stream sprayed addresses across
// its workload's memory would keep tens of megabytes, and is dropped
// instead.
const idlePairBudget = 4 << 20

// New builds and starts the engine's shard workers.
func New(opts Options) *Engine {
	e := &Engine{
		opts:    opts.withDefaults(),
		started: time.Now(),
		open:    make(map[uint64]*Stream),
		conns:   make(map[net.Conn]struct{}),
	}
	e.shards = make([]*shard, e.opts.Shards)
	for i := range e.shards {
		sh := &shard{id: i, jobs: make(chan job, e.opts.QueueDepth)}
		sh.pool.New = func() any {
			eb := vm.NewEventBatch(vm.DefaultBatchCap)
			// The wire decoder fills the Blocks column from its address
			// column; at the engine's SVD shift both detectors (FRD too,
			// when its shift agrees) skip the per-row block computation.
			eb.EnableBlocks(e.opts.SVD.BlockShift)
			return eb
		}
		e.shards[i] = sh
		go e.worker(sh)
	}
	return e
}

// route picks the shard for a new stream: FNV-1a of the client-supplied
// key when present, round-robin over engine-assigned ids otherwise.
func (e *Engine) route(key string, id uint64) *shard {
	if key != "" {
		h := fnv.New64a()
		h.Write([]byte(key))
		return e.shards[h.Sum64()%uint64(len(e.shards))]
	}
	return e.shards[id%uint64(len(e.shards))]
}

// Stream is one open event stream: the handle a session (or an
// in-process producer like the ingest benchmark) feeds batches through.
type Stream struct {
	eng *Engine
	sh  *shard
	id  uint64

	// Resolved stream identity, fixed at open.
	w        *workloads.Workload
	registry bool // w came from the workload registry, not an embedded program
	seed     uint64
	witness  bool
	key      string // cluster routing key; empty outside cluster mode

	// Worker-owned detector state, set by the open job (fresh, or the
	// shard's idle pair reset by an earlier stream); only the owning
	// shard worker touches these after OpenStream returns.
	sd      *svd.Detector
	fd      *frd.Detector
	pairKey pairKey
	rec     *obs.Recorder

	// ring carries processed batch buffers back from the shard worker
	// to the session; spare holds a borrowed-but-unsent buffer on the
	// session side. See the package comment's ownership rules.
	ring  batchRing
	spare *vm.EventBatch

	shed     atomic.Uint64 // batches dropped under PolicyShed
	aborted  bool          // set before the close job when the producer died
	released bool          // set before the close job when the stream is handed off

	// Telemetry odometers: written by the producing session, read by
	// Engine.Snapshot through the atomics while the stream is live.
	timestamps bool // the Hello negotiated send stamps
	opened     time.Time
	frames     atomic.Uint64
	events     atomic.Uint64
	wireBytes  atomic.Uint64
	lastActive atomic.Int64 // wall clock of the last ingested batch

	// lat is the stream's wire-to-verdict histogram. Only the owning
	// shard worker touches it until the close job publishes it as
	// latReport; the st.done close is the happens-before edge that lets
	// Latency() read it afterwards.
	lat       obs.Histogram
	latReport *LatencyReport

	// anchors collects a replayed stream's violation anchors;
	// worker-owned until the close job signals done. anchorCapSVD
	// and anchorCapFRD bound it to the detectors' retention caps: a
	// violation past the cap has no retained record or witness to point
	// at, so anchoring it would grow the slice without bound on
	// pathological streams.
	anchors      []Anchor
	anchorCapSVD uint64
	anchorCapFRD uint64

	done   chan struct{}
	sample *report.Sample // set before done closes
	err    error          // terminal stream error (overload, abort)
}

// resolve maps a Hello to a runnable workload: a registry entry when it
// names one (ground truth included; the bool result is true), else a
// synthetic workload wrapping the embedded program (no ground truth;
// every report classifies as a false positive, which is the honest
// reading of "no bug annotations"). A registry scale above
// workloads.MaxScale is refused like an unknown name.
func (e *Engine) resolve(h wire.Hello) (*workloads.Workload, bool, error) {
	if h.Workload != "" {
		scale := h.Scale
		if scale <= 0 {
			scale = e.opts.Scale
		}
		w, err := workloads.ByName(h.Workload, scale, h.Seed)
		if err == nil {
			if w.NumThreads != h.Threads {
				return nil, false, fmt.Errorf("server: workload %q has %d threads, hello declares %d",
					h.Workload, w.NumThreads, h.Threads)
			}
			return w, true, nil
		}
		if h.Program == nil {
			return nil, false, err
		}
	}
	if h.Program == nil {
		return nil, false, fmt.Errorf("server: hello carries neither a known workload nor a program")
	}
	name := h.Program.Name
	if name == "" {
		name = "remote"
	}
	return &workloads.Workload{Name: name, Prog: h.Program, NumThreads: h.Threads, MemWords: h.MemWords}, false, nil
}

// memWords is the memory a stream's addresses must fall within, which
// its deframer enforces (wire.Deframer.SetMemWords): the workload's
// MemWords, or vm.DefaultMemWords when it leaves it 0, as the VM does.
func memWords(w *workloads.Workload) int64 {
	if w.MemWords > 0 {
		return w.MemWords
	}
	return vm.DefaultMemWords
}

// OpenStream admits a new stream described by its handshake. key feeds
// the shard router; empty means round-robin. The returned Stream is not
// safe for concurrent use by multiple producers.
func (e *Engine) OpenStream(h wire.Hello, key string) (*Stream, error) {
	if e.draining.Load() {
		return nil, fmt.Errorf("server: draining, not accepting streams")
	}
	w, registry, err := e.resolve(h)
	if err != nil {
		return nil, err
	}
	id := e.opts.StreamBase + e.nextStream.Add(1) - 1
	st := &Stream{
		eng:        e,
		sh:         e.route(key, id),
		id:         id,
		w:          w,
		registry:   registry,
		seed:       h.Seed,
		witness:    h.Witness || e.opts.ForceWitness,
		key:        key,
		timestamps: h.Timestamps,
		opened:     time.Now(),
		done:       make(chan struct{}),
	}
	e.streams.Add(1)
	e.counters.streamsOpened.Add(1)
	e.mu.Lock()
	e.open[id] = st
	e.mu.Unlock()
	// The open job cannot shed: losing it would orphan the stream.
	st.sh.jobs <- job{st: st, open: true}
	return st, nil
}

// ID reports the stream's engine-assigned id — the identity journal
// records carry, offset by Options.StreamBase across daemon restarts.
func (s *Stream) ID() uint64 { return s.id }

// GetBatch borrows an empty batch buffer for the producer to fill —
// typically as the target of wire.Deframer.ReadFrameInto. Ownership
// rests with the caller until IngestBatch transfers it; a buffer that
// ends up not being ingested is returned with PutBatch.
func (s *Stream) GetBatch() *vm.EventBatch {
	if eb := s.spare; eb != nil {
		s.spare = nil
		eb.Reset()
		return eb
	}
	if eb := s.ring.pop(); eb != nil {
		eb.Reset()
		return eb
	}
	return s.sh.pool.Get().(*vm.EventBatch)
}

// PutBatch returns a borrowed buffer that was never ingested (the
// frame decoded into it turned out to be a Goodbye, or the stream is
// being torn down). It must not be called for a buffer already passed
// to IngestBatch.
func (s *Stream) PutBatch(eb *vm.EventBatch) {
	if s.spare == nil {
		s.spare = eb
		return
	}
	eb.Reset()
	s.sh.pool.Put(eb)
}

// IngestBatch feeds one columnar event batch, transferring ownership
// of eb to the engine — the caller must not touch it afterwards. Under
// PolicyBlock a full shard queue blocks; under PolicyShed the batch is
// dropped (its buffer reclaimed) and the stream poisoned. An empty
// batch is a no-op whose buffer is reclaimed immediately.
func (s *Stream) IngestBatch(eb *vm.EventBatch) {
	s.IngestBatchAt(eb, 0)
}

// IngestBatchAt is IngestBatch carrying the producer's wall-clock send
// stamp (UnixNano; 0 for none). Sessions pass the stamp decoded from the
// Events frame; the shard worker turns it into the stream's
// wire-to-verdict latency observation.
func (s *Stream) IngestBatchAt(eb *vm.EventBatch, sendNanos uint64) {
	s.ingest(job{st: s, eb: eb, sendNanos: sendNanos})
}

// IngestBatchJournaled is IngestBatchAt for a batch replayed from the
// journal record at loc: the shard worker anchors any violations the
// batch produces to that record.
func (s *Stream) IngestBatchJournaled(eb *vm.EventBatch, sendNanos uint64, loc journal.Loc) {
	s.ingest(job{st: s, eb: eb, sendNanos: sendNanos, loc: loc, journaled: true})
}

// ingest enqueues one batch job, applying the overload policy.
func (s *Stream) ingest(j job) {
	eb := j.eb
	n := eb.Len()
	if n == 0 {
		s.PutBatch(eb)
		return
	}
	if s.eng.opts.Telemetry {
		j.enq = time.Now()
		s.lastActive.Store(j.enq.UnixNano())
	}
	if s.eng.opts.Policy == PolicyShed {
		select {
		case s.sh.jobs <- j:
		default:
			s.PutBatch(eb)
			if s.shed.Add(1) == 1 {
				s.eng.counters.streamsShed.Add(1)
			}
			s.eng.counters.batchesShed.Add(1)
			return
		}
	} else {
		s.sh.jobs <- j
	}
	s.eng.counters.batches.Add(1)
	s.eng.counters.events.Add(uint64(n))
	s.frames.Add(1)
	s.events.Add(uint64(n))
}

// NoteWireBytes adds n to the stream's wire-byte odometer. Sessions call
// it with the deframer's frame size after each decoded Events frame;
// in-process producers have no wire bytes and never call it.
func (s *Stream) NoteWireBytes(n int) {
	s.wireBytes.Add(uint64(n))
}

// Latency returns the stream's wire-to-verdict latency report. It is
// populated by the close job, so it must not be called before Close (or
// Abort) returns; nil when the stream never carried a send stamp.
func (s *Stream) Latency() *LatencyReport { return s.latReport }

// Close finalizes the stream and returns its report. The close job
// never sheds — a queue full of this stream's own batches must drain
// first, which is exactly the ordering that makes the report complete.
func (s *Stream) Close() (*report.Sample, error) {
	s.sh.jobs <- job{st: s, close: true}
	<-s.done
	return s.sample, s.err
}

// Abort tears the stream down without publishing a report — the path
// for a producer that died mid-stream. Idempotent with respect to
// Close is NOT provided: call exactly one of Close or Abort.
func (s *Stream) Abort() {
	s.aborted = true
	s.sh.jobs <- job{st: s, close: true}
	<-s.done
}

// Release is the handoff drain: it tears the stream down like Abort but
// records the teardown as a transfer, not a failure — no sample, and
// the handed-off counter moves instead of looking like a dead producer.
// The caller has already captured the stream's frame history; the new
// owner's replay rebuilds the detector state exactly, which is why
// discarding the local detectors loses nothing. Returns once every
// batch enqueued before the release has been stepped and the shard has
// let go of the stream. Call exactly one of Close, Abort, or Release.
func (s *Stream) Release() {
	s.released = true
	s.sh.jobs <- job{st: s, close: true}
	<-s.done
}

// worker is one shard's detector loop: it owns every detector that was
// routed to it, processing open/batch/close jobs strictly in order per
// stream.
func (e *Engine) worker(sh *shard) {
	for j := range sh.jobs {
		st := j.st
		switch {
		case j.open:
			svdOpts := e.opts.SVD
			frdOpts := e.opts.FRD
			if st.witness {
				svdOpts.Witness = true
				frdOpts.Witness = true
			}
			if e.opts.ForceWitness {
				svdOpts.WitnessAll = true
				frdOpts.WitnessAll = true
			}
			if e.opts.Obs != nil {
				st.rec = e.opts.Obs.NewRecorder(fmt.Sprintf("%s seed %d stream %d", st.w.Name, st.seed, st.id))
				svdOpts.Recorder = st.rec
				frdOpts.Recorder = st.rec
			}
			st.pairKey = pairKey{st.w.Prog, st.w.NumThreads, svdOpts.Witness, svdOpts.WitnessAll}
			if p := sh.idle; p.sd != nil && p.key == st.pairKey {
				sh.idle = detectorPair{}
				e.counters.detectorReuses.Add(1)
				st.sd, st.fd = p.sd, p.fd
				st.sd.SetRecorder(svdOpts.Recorder)
				st.fd.SetRecorder(frdOpts.Recorder)
			} else {
				st.sd = svd.New(st.w.Prog, st.w.NumThreads, svdOpts)
				st.fd = frd.New(st.w.Prog, st.w.NumThreads, frdOpts)
			}
			// Mirror the detectors' retention defaulting (<=0 means 1<<16)
			// so the anchor bound always matches what they retain.
			st.anchorCapSVD = 1 << 16
			if svdOpts.MaxViolations > 0 {
				st.anchorCapSVD = uint64(svdOpts.MaxViolations)
			}
			st.anchorCapFRD = 1 << 16
			if frdOpts.MaxRaces > 0 {
				st.anchorCapFRD = uint64(frdOpts.MaxRaces)
			}
		case j.close:
			// Reclaim the stream's recycle ring. The session is parked
			// in Close/Abort (the close job's channel send happened
			// after its last ring access), so popping the consumer end
			// here is race-free.
			for eb := st.ring.pop(); eb != nil; eb = st.ring.pop() {
				sh.pool.Put(eb)
			}
			st.sd.FlushObs()
			st.fd.FlushObs()
			sample := report.Classify(st.w, st.seed, st.sd, st.fd)
			if st.rec != nil {
				st.rec.Flush()
			}
			switch {
			case st.released:
				st.err = fmt.Errorf("server: stream %d released for handoff", st.id)
			case st.aborted:
				st.err = fmt.Errorf("server: stream %d aborted by its producer", st.id)
			case st.sd.BatchErr() != nil:
				st.err = fmt.Errorf("server: stream %d: %w", st.id, st.sd.BatchErr())
			case st.fd.BatchErr() != nil:
				st.err = fmt.Errorf("server: stream %d: %w", st.id, st.fd.BatchErr())
			case st.shed.Load() > 0:
				st.err = fmt.Errorf("server: overloaded: shed %d batches of stream %d (results incomplete)", st.shed.Load(), st.id)
			default:
				st.sample = sample
			}
			if st.lat.Count > 0 {
				st.latReport = &LatencyReport{Batches: st.lat.Count, WireToVerdictNs: st.lat}
			}
			if st.sample != nil {
				attachWitnesses(st.anchors, st.sd.AllWitnesses(), st.fd.AllWitnesses())
			}
			e.mu.Lock()
			delete(e.open, st.id)
			e.digest.Add(st.sample)
			e.mu.Unlock()
			if st.released {
				e.counters.streamsHandedOff.Add(1)
			}
			// Drop detector state before signaling: the stream handle
			// may outlive the shard's interest in it.
			pair := detectorPair{key: st.pairKey, sd: st.sd, fd: st.fd}
			st.sd, st.fd, st.rec = nil, nil, nil
			e.counters.streamsClosed.Add(1)
			e.streams.Done()
			close(st.done)
			// Reset the pair into the shard's idle slot after signaling:
			// the sample and the anchors hold nothing Reset writes into
			// (it drops the witness slices they share), so the session
			// encodes the result meanwhile. An embedded program is never
			// seen again and keeps nothing; a pair over the budget is
			// dropped for the collector.
			if st.registry && pair.sd.Retained()+pair.fd.Retained() <= idlePairBudget {
				pair.sd.Reset()
				pair.fd.Reset()
				pair.sd.SetRecorder(nil)
				pair.fd.SetRecorder(nil)
				sh.idle = pair
			}
		default:
			// Telemetry clocks: Options.Telemetry feeds the shard stats,
			// a send stamp feeds the stream's wire-to-verdict histogram;
			// with neither, the steady-state path reads no clocks at all.
			track := e.opts.Telemetry
			stamped := j.sendNanos != 0
			var t0 time.Time
			if track || stamped {
				t0 = time.Now()
			}
			// Journaled batches bracket the step with detector counts so a
			// violation lands an anchor on exactly the record that holds
			// its batch. Stats() is a struct copy — no clock, no alloc.
			var v0, r0 uint64
			if j.journaled {
				v0 = st.sd.Stats().Violations
				r0 = st.fd.Stats().Races
			}
			st.sd.StepColumns(j.eb)
			st.fd.StepColumns(j.eb)
			n := j.eb.Len()
			if j.journaled {
				firstSeq, lastSeq := j.eb.Seq[0], j.eb.Seq[n-1]
				if v1 := st.sd.Stats().Violations; v1 > v0 {
					if v1 > st.anchorCapSVD {
						v1 = st.anchorCapSVD
					}
					for i := v0; i < v1; i++ {
						st.anchors = append(st.anchors, Anchor{
							Detector: "svd", Index: int(i), Loc: j.loc,
							FirstSeq: firstSeq, LastSeq: lastSeq,
						})
					}
				}
				if r1 := st.fd.Stats().Races; r1 > r0 {
					if r1 > st.anchorCapFRD {
						r1 = st.anchorCapFRD
					}
					for i := r0; i < r1; i++ {
						st.anchors = append(st.anchors, Anchor{
							Detector: "frd", Index: int(i), Loc: j.loc,
							FirstSeq: firstSeq, LastSeq: lastSeq,
						})
					}
				}
			}
			j.eb.Reset()
			if !st.ring.push(j.eb) {
				sh.pool.Put(j.eb)
			}
			if track || stamped {
				t1 := time.Now()
				var wire uint64
				if stamped {
					if d := t1.UnixNano() - int64(j.sendNanos); d > 0 {
						wire = uint64(d)
					}
					st.lat.Observe(wire)
				}
				if track {
					sh.stats.observe(j.enq, t0, t1, len(sh.jobs)+1, n, stamped, wire)
				}
			}
		}
	}
}

// Counters snapshots the ingest odometer.
func (e *Engine) Counters() Counters {
	return Counters{
		StreamsOpened: e.counters.streamsOpened.Load(),
		StreamsClosed: e.counters.streamsClosed.Load(),
		Batches:       e.counters.batches.Load(),
		Events:        e.counters.events.Load(),
		BatchesShed:   e.counters.batchesShed.Load(),
		StreamsShed:   e.counters.streamsShed.Load(),

		StreamsHandedOff: e.counters.streamsHandedOff.Load(),
		DetectorReuses:   e.counters.detectorReuses.Load(),
	}
}

// Digest returns the run digest: every completed stream's sample,
// folded in at close. The copy stays valid while streams keep closing
// (see report.Digest).
func (e *Engine) Digest() report.Digest {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.digest
}

// Report is the query surface's answer: the run-level digest over every
// completed stream plus the ingest odometer. Witnesses inside Merged
// are deep copies that no shard writes again, so callers can hold the
// Report while shards keep draining.
type Report struct {
	Shards   int                `json:"shards"`
	Policy   string             `json:"policy"`
	Counters Counters           `json:"counters"`
	Merged   report.MergedStats `json:"merged"`

	// Obs is the sink's aggregated detector telemetry — histogram
	// summaries included — merged across streams from every shard. An
	// earlier Report dropped it entirely, so /report showed counters
	// while the unit-lifetime and footprint distributions the sink had
	// collected were unreachable. Nil when the engine runs without a
	// sink.
	Obs *obs.Snapshot `json:"obs,omitempty"`

	// Ingest is the live service snapshot: shard table, open-stream
	// odometers, uptime, and the journal's store stats when the engine
	// runs with one.
	Ingest Snapshot `json:"ingest"`
}

// Report builds the current query answer.
func (e *Engine) Report() Report {
	r := Report{
		Shards:   len(e.shards),
		Policy:   e.opts.Policy.String(),
		Counters: e.Counters(),
		Merged:   e.Digest().MergedStats,
		Ingest:   e.Snapshot(),
	}
	if e.opts.Obs != nil {
		sn := e.opts.Obs.Snapshot()
		r.Obs = &sn
	}
	return r
}

// ReportHandler serves the query surface as JSON — mounted on the
// daemon's metrics mux next to /metrics and /debug/pprof.
func (e *Engine) ReportHandler() http.Handler { return jsonHandler(func() any { return e.Report() }) }

// DigestHandler serves the engine's run digest as JSON — the scatter
// half of a cluster's scatter-gather /report: peers fetch each node's
// digest and merge them, which needs no order, so the merged section is
// independent of which node answered first.
func (e *Engine) DigestHandler() http.Handler { return jsonHandler(func() any { return e.Digest() }) }

// jsonHandler serves v() as indented JSON.
func jsonHandler(v func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v())
	})
}

// Shutdown drains the engine: new streams are refused immediately, open
// streams may finish until ctx expires, then the shard workers stop.
// It returns ctx.Err() when the deadline cut the drain short (worker
// goroutines stay alive to avoid corrupting in-flight detector state;
// the process is expected to exit shortly after).
func (e *Engine) Shutdown(ctx context.Context) error {
	e.draining.Store(true)
	drained := make(chan struct{})
	go func() {
		e.streams.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	e.stopOnce.Do(func() {
		for _, sh := range e.shards {
			close(sh.jobs)
		}
	})
	return nil
}
