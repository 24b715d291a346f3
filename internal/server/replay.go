package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/journal"
	"repro/internal/report"
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
		rs := verifyReplay(r, si.Stream, e.replayStream(r, si))
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

// replayed is what replaying one journaled stream did — the one result
// that -verify (verifyReplay) and -anchors (ReplayJournalAnchored) each
// read their own outcome from.
type replayed struct {
	workload string
	seed     uint64
	events   uint64
	cut      bool           // the capture ends before the Goodbye
	sample   *report.Sample // Close's result; nil when cut or failed
	closeErr error
	anchors  []Anchor // the stream's anchors, read after Close or Abort
	err      string   // replay-side failure (decode error, engine refusal)
}

// replayStream runs one journaled stream through the engine, anchoring
// every Events batch to its own journal record.
func (e *Engine) replayStream(r *journal.Reader, si journal.StreamInfo) (rp replayed) {
	if !si.HasHello {
		rp.err = "journal holds no hello for this stream"
		return rp
	}
	d := wire.NewDeframer(r.StreamReader(si.Stream))
	fr, err := d.ReadFrame()
	if err != nil || fr.Type != wire.FrameHello {
		rp.err = fmt.Sprintf("replay hello: %v (type %v)", err, fr.Type)
		return rp
	}
	st, err := e.OpenStream(fr.Hello, "")
	if err != nil {
		rp.err = err.Error()
		return rp
	}
	rp.workload, rp.seed = st.w.Name, st.seed
	d.SetProgram(st.w.Prog, st.w.NumThreads)
	d.SetMemWords(memWords(st.w))
	locs := r.StreamEventLocs(si.Stream)

	for k := 0; ; k++ {
		eb := st.GetBatch()
		fr, err := d.ReadFrameInto(eb)
		switch {
		case errors.Is(err, io.EOF):
			// The journal ends mid-stream: the capture was cut by a crash.
			// The events were still stepped — the detectors ran — but
			// there is no goodbye and no verdict.
			rp.cut = true
		case err != nil:
			rp.err = err.Error()
		case fr.Type == wire.FrameEvents:
			rp.events += uint64(eb.Len())
			if k >= len(locs) {
				rp.err = "more events frames than journaled event records"
				break
			}
			// Replay is not a live measurement: the captured send stamps
			// would register as enormous wire-to-verdict latencies, so
			// they are deliberately not forwarded.
			st.IngestBatchJournaled(eb, 0, locs[k])
			continue
		case fr.Type == wire.FrameGoodbye:
			st.PutBatch(eb)
			rp.sample, rp.closeErr = st.Close()
			rp.anchors = st.anchors
			return rp
		default:
			rp.err = fmt.Sprintf("unexpected %s frame in journaled stream", fr.Type)
		}
		st.PutBatch(eb)
		st.Abort()
		rp.anchors = st.anchors
		return rp
	}
}

// verifyReplay holds a replayed stream's fresh verdict against the
// journaled one.
func verifyReplay(r *journal.Reader, stream uint64, rp replayed) ReplayedStream {
	rs := ReplayedStream{Stream: stream, Workload: rp.workload, Events: rp.events, Incomplete: rp.cut, Err: rp.err}
	if rp.cut || rp.err != "" {
		return rs
	}
	liveSample, liveErr, ok := r.Result(stream)
	switch {
	case !ok:
		// Goodbye journaled but the daemon died before the result
		// record: nothing to verify against.
		rs.Incomplete = true
	case liveErr != "":
		// The live stream ended in a terminal error (overload shed).
		// Replay under PolicyBlock cannot reproduce a shed; report it as
		// an error outcome, not a divergence.
		rs.Err = fmt.Sprintf("live verdict was an error: %s", liveErr)
	case rp.closeErr != nil:
		rs.Verified = true
		rs.Divergence = fmt.Sprintf("replay errored where live succeeded: %v", rp.closeErr)
	default:
		fresh, err := json.Marshal(rp.sample)
		if err != nil {
			rs.Err = fmt.Sprintf("encode replay sample: %v", err)
			return rs
		}
		rs.Verified = true
		rs.Match = string(fresh) == string(liveSample)
		if !rs.Match {
			rs.Divergence = describeDivergence(liveSample, fresh)
		}
	}
	return rs
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
	w, _, err := e.resolve(fr.Hello)
	if err != nil {
		return nil, nil, err
	}
	d.SetProgram(w.Prog, w.NumThreads)
	d.SetMemWords(memWords(w))
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
// is the forensic half of the journal and the one place anchors come
// from: a serving daemon only journals, and an anchored replay
// re-derives each violation's anchor and witness evidence after the
// fact. It runs the same replay loop as ReplayJournal and reads the
// stream's anchors where -verify reads its verdict. It deliberately
// does NOT byte-compare against the journaled verdict — forcing
// witnesses on a witnessless capture legitimately changes the sample
// encoding, which is why svdreplay runs -verify and -anchors on
// separate engines.

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
		rp := e.replayStream(r, si)
		as := AnchoredStream{Stream: si.Stream, Workload: rp.workload, Seed: rp.seed, Events: rp.events, Incomplete: rp.cut, Err: rp.err}
		if rp.err == "" {
			as.Anchors = rp.anchors
		}
		out = append(out, as)
	}
	return out, nil
}
