package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/journal"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// Journal replay: re-serve captured traffic through a live engine and
// hold the fresh verdicts against the journaled ones, byte for byte.
// Because the journal stores the exact wire bytes the deframer
// validated, replay runs the identical decode path (ReadFrameInto into
// borrowed batches) and the identical detector path (shard workers,
// report.Classify) as the original serve — any divergence means the
// pipeline is not deterministic, which is precisely what -verify exists
// to catch.

// ReplayedStream is one journaled stream's replay outcome.
type ReplayedStream struct {
	Stream   uint64 `json:"stream"`
	Workload string `json:"workload,omitempty"`
	Events   uint64 `json:"events"`

	// Incomplete marks a stream with no journaled Goodbye — the
	// producer (or the daemon) died mid-stream. Its events still replay
	// through the detectors, but there is no verdict to verify against.
	Incomplete bool `json:"incomplete,omitempty"`

	// Verified is set when a journaled verdict existed and was compared;
	// Match reports byte equality of the sample JSON.
	Verified bool `json:"verified,omitempty"`
	Match    bool `json:"match,omitempty"`

	// Divergence describes the first mismatch when Verified && !Match.
	Divergence string `json:"divergence,omitempty"`

	// Err is a replay-side failure (decode error, engine refusal).
	Err string `json:"err,omitempty"`
}

// ReplaySummary aggregates a journal replay.
type ReplaySummary struct {
	Streams    []ReplayedStream `json:"streams"`
	Replayed   int              `json:"replayed"`
	Verified   int              `json:"verified"`
	Matched    int              `json:"matched"`
	Diverged   int              `json:"diverged"`
	Incomplete int              `json:"incomplete"`
	Errors     int              `json:"errors"`
}

// Ok reports a clean replay: nothing diverged and nothing errored.
func (s *ReplaySummary) Ok() bool { return s.Diverged == 0 && s.Errors == 0 }

// ReplayJournal re-serves every journaled stream through e, comparing
// each completed stream's fresh verdict against the journaled one. The
// engine must be configured with the live daemon's detector options or
// verdicts will legitimately differ. Streams replay sequentially, in
// stream-id order.
func (e *Engine) ReplayJournal(r *journal.Reader) (*ReplaySummary, error) {
	sum := &ReplaySummary{}
	for _, si := range r.Streams() {
		rs := e.replayStream(r, si)
		sum.Streams = append(sum.Streams, rs)
		sum.Replayed++
		switch {
		case rs.Err != "":
			sum.Errors++
		case rs.Incomplete:
			sum.Incomplete++
		case rs.Verified && rs.Match:
			sum.Verified++
			sum.Matched++
		case rs.Verified:
			sum.Verified++
			sum.Diverged++
		}
	}
	return sum, nil
}

// replayStream runs one journaled stream through the engine.
func (e *Engine) replayStream(r *journal.Reader, si journal.StreamInfo) ReplayedStream {
	rs := ReplayedStream{Stream: si.Stream}
	if !si.HasHello {
		rs.Err = "journal holds no hello for this stream"
		return rs
	}
	d := wire.NewDeframer(r.StreamReader(si.Stream))
	fr, err := d.ReadFrame()
	if err != nil || fr.Type != wire.FrameHello {
		rs.Err = fmt.Sprintf("replay hello: %v (type %v)", err, fr.Type)
		return rs
	}
	st, err := e.OpenStream(fr.Hello, "")
	if err != nil {
		rs.Err = err.Error()
		return rs
	}
	rs.Workload = st.w.Name
	d.SetProgram(st.w.Prog, st.w.NumThreads)

	closed := false
	defer func() {
		if !closed {
			st.Abort()
		}
	}()
	for {
		eb := st.GetBatch()
		fr, err := d.ReadFrameInto(eb)
		if err != nil {
			st.PutBatch(eb)
			if errors.Is(err, io.EOF) {
				// The journal ends mid-stream: the capture was cut by a
				// crash. The events were still stepped — the detectors ran
				// — but there is no goodbye and no verdict.
				closed = true
				st.Abort()
				rs.Incomplete = true
				return rs
			}
			rs.Err = err.Error()
			return rs
		}
		switch fr.Type {
		case wire.FrameEvents:
			rs.Events += uint64(eb.Len())
			// Replay is not a live measurement: the captured send stamps
			// would register as enormous wire-to-verdict latencies, so
			// they are deliberately not forwarded.
			st.IngestBatchAt(eb, 0)
		case wire.FrameGoodbye:
			st.PutBatch(eb)
			closed = true
			sample, serr := st.Close()
			liveSample, liveErr, ok := r.Result(si.Stream)
			if !ok {
				// Goodbye journaled but the daemon died before the result
				// record: nothing to verify against.
				rs.Incomplete = true
				return rs
			}
			if liveErr != "" {
				// The live stream ended in a terminal error (overload
				// shed). Replay under PolicyBlock cannot reproduce a shed;
				// report it as an error outcome, not a divergence.
				rs.Err = fmt.Sprintf("live verdict was an error: %s", liveErr)
				return rs
			}
			if serr != nil {
				rs.Verified = true
				rs.Divergence = fmt.Sprintf("replay errored where live succeeded: %v", serr)
				return rs
			}
			fresh, err := json.Marshal(sample)
			if err != nil {
				rs.Err = fmt.Sprintf("encode replay sample: %v", err)
				return rs
			}
			rs.Verified = true
			rs.Match = string(fresh) == string(liveSample)
			if !rs.Match {
				rs.Divergence = describeDivergence(liveSample, fresh)
			}
			return rs
		default:
			st.PutBatch(eb)
			rs.Err = fmt.Sprintf("unexpected %s frame in journaled stream", fr.Type)
			return rs
		}
	}
}

// describeDivergence pinpoints the first differing byte of two sample
// encodings, with a window of context from each.
func describeDivergence(live, fresh []byte) string {
	n := len(live)
	if len(fresh) < n {
		n = len(fresh)
	}
	i := 0
	for i < n && live[i] == fresh[i] {
		i++
	}
	window := func(b []byte) string {
		lo, hi := i-20, i+20
		if lo < 0 {
			lo = 0
		}
		if hi > len(b) {
			hi = len(b)
		}
		return string(b[lo:hi])
	}
	return fmt.Sprintf("first differing byte at %d of %d/%d: live %q vs replay %q",
		i, len(live), len(fresh), window(live), window(fresh))
}

// DecodeStreamEvents decodes one journaled stream's events into rows —
// the offline differential's input. The hello resolves through the
// engine's workload registry exactly as a served stream would; the
// returned program and thread count parameterize the offline recorder.
func (e *Engine) DecodeStreamEvents(r *journal.Reader, stream uint64) (*workloads.Workload, []vm.Event, error) {
	d := wire.NewDeframer(r.StreamReader(stream))
	fr, err := d.ReadFrame()
	if err != nil {
		return nil, nil, fmt.Errorf("server: replay hello: %w", err)
	}
	if fr.Type != wire.FrameHello {
		return nil, nil, fmt.Errorf("server: journaled stream %d opens with %s, not hello", stream, fr.Type)
	}
	w, err := e.resolve(fr.Hello)
	if err != nil {
		return nil, nil, err
	}
	d.SetProgram(w.Prog, w.NumThreads)
	var evs []vm.Event
	eb := vm.NewEventBatch(0)
	for {
		fr, err := d.ReadFrameInto(eb)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return w, evs, nil // cut capture: serve what decoded
			}
			return nil, nil, err
		}
		switch fr.Type {
		case wire.FrameEvents:
			evs = eb.AppendEvents(evs, w.Prog.Code)
		case wire.FrameGoodbye:
			return w, evs, nil
		default:
			return nil, nil, fmt.Errorf("server: unexpected %s frame in journaled stream %d", fr.Type, stream)
		}
	}
}

// Anchored replay: re-detect a capture with violation anchoring (and,
// when the engine runs with Options.ForceWitness, flight-recorder
// witnesses) regardless of what the original producer asked for. This
// is the forensic half of the journal: a daemon that served a stream
// without -witness still anchored its violations, and an anchored
// replay re-derives the witness evidence for each of them after the
// fact. It deliberately does NOT byte-compare against the journaled
// verdict — forcing witnesses on a witnessless capture legitimately
// changes the sample encoding, which is why svdreplay runs -verify and
// -anchors on separate engines.

// AnchoredStream is one journaled stream's re-detection outcome: its
// violation anchors, each carrying the journal coordinates of the batch
// that produced it and (with ForceWitness) its re-derived witness.
type AnchoredStream struct {
	Stream   uint64   `json:"stream"`
	Workload string   `json:"workload,omitempty"`
	Seed     uint64   `json:"seed"`
	Events   uint64   `json:"events"`
	Anchors  []Anchor `json:"anchors,omitempty"`

	// Incomplete marks a cut capture: anchors up to the cut are still
	// produced, but witnesses cannot attach (no close-time sample).
	Incomplete bool   `json:"incomplete,omitempty"`
	Err        string `json:"err,omitempty"`
}

// ReplayJournalAnchored re-detects every journaled stream with each
// Events batch anchored to its original journal record, returning the
// per-stream anchors. Streams replay sequentially, in stream-id order.
func (e *Engine) ReplayJournalAnchored(r *journal.Reader) ([]AnchoredStream, error) {
	var out []AnchoredStream
	for _, si := range r.Streams() {
		out = append(out, e.replayStreamAnchored(r, si))
	}
	return out, nil
}

func (e *Engine) replayStreamAnchored(r *journal.Reader, si journal.StreamInfo) AnchoredStream {
	as := AnchoredStream{Stream: si.Stream}
	if !si.HasHello {
		as.Err = "journal holds no hello for this stream"
		return as
	}
	locs := r.StreamEventLocs(si.Stream)
	d := wire.NewDeframer(r.StreamReader(si.Stream))
	fr, err := d.ReadFrame()
	if err != nil || fr.Type != wire.FrameHello {
		as.Err = fmt.Sprintf("replay hello: %v (type %v)", err, fr.Type)
		return as
	}
	st, err := e.OpenStream(fr.Hello, "")
	if err != nil {
		as.Err = err.Error()
		return as
	}
	as.Workload, as.Seed = st.w.Name, st.seed
	d.SetProgram(st.w.Prog, st.w.NumThreads)

	// The close path appends this stream's StreamAnchors to e.anchors;
	// replay is sequential, so the entries past this mark are ours.
	e.mu.Lock()
	mark := len(e.anchors)
	e.mu.Unlock()

	closed := false
	defer func() {
		if !closed {
			st.Abort()
		}
	}()
	k := 0
	for {
		eb := st.GetBatch()
		fr, err := d.ReadFrameInto(eb)
		if err != nil {
			st.PutBatch(eb)
			if !errors.Is(err, io.EOF) {
				as.Err = err.Error()
				return as
			}
			// Cut capture: close out what was stepped so the anchors
			// publish; without a sample no witnesses attach.
			closed = true
			st.Abort()
			as.Incomplete = true
			break
		}
		switch fr.Type {
		case wire.FrameEvents:
			as.Events += uint64(eb.Len())
			if k >= len(locs) {
				st.PutBatch(eb)
				as.Err = "more events frames than journaled event records"
				return as
			}
			st.IngestBatchJournaled(eb, 0, locs[k])
			k++
		case wire.FrameGoodbye:
			st.PutBatch(eb)
			closed = true
			_, _ = st.Close()
		default:
			st.PutBatch(eb)
			as.Err = fmt.Sprintf("unexpected %s frame in journaled stream", fr.Type)
			return as
		}
		if closed {
			break
		}
	}
	e.mu.Lock()
	for _, sa := range e.anchors[mark:] {
		as.Anchors = append(as.Anchors, sa.Anchors...)
	}
	e.mu.Unlock()
	return as
}
