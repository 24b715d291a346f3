package server

// Cluster serving: the session layer that makes N detection daemons act
// as one service. A ClusterServer wraps an Engine with a cluster.Router
// and speaks the wire v3 cluster frames on top of the ordinary stream
// protocol:
//
//   - a Hello carrying a routing key is served locally when this node
//     owns the key and relayed raw to the owner otherwise (the session
//     becomes a byte relay — frames are never re-encoded, so the owner
//     journals and detects exactly the client's bytes);
//   - an Assign frame is the probe/anti-entropy exchange: apply the
//     peer's view if it is newer, answer with our own;
//   - a Handoff frame carries a drained stream's raw frame history;
//     replaying it through fresh detectors rebuilds the detection state
//     exactly (the detectors are deterministic), after which the live
//     tail of the stream continues from the relaying origin.
//
// Handoff is initiated between frames by the session that owns the
// client connection: after each Events frame it re-checks ownership,
// and when the view has moved the key elsewhere it ships the recorded
// history, releases the local stream (no sample, no anchors — the new
// owner publishes them), and turns into a relay for the rest of the
// stream. Nothing is handed off mid-frame, so the boundary is always a
// frame boundary and the concatenated bytes the new owner sees are a
// valid wire stream — the same property the journal's replay path
// proves.

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/wire"
)

// DefaultHistoryLimit caps each stream's recorded frame history. A
// stream that outgrows it becomes sticky — it finishes on the node
// that holds its detector state instead of holding unbounded memory
// for a handoff that may never come.
const DefaultHistoryLimit = 8 << 20

// maxStreamHops bounds how many times a Hello may be relayed between
// nodes. While views diverge (the anti-entropy window after a failure)
// node A can believe B owns a key while B believes A does; without a
// bound each relayed Hello looks like a fresh client stream and the
// pair plays ping-pong at network speed. At the limit the stream is
// served wherever it happens to be — availability over placement, the
// same policy the unreachable-owner path uses.
const maxStreamHops = 3

// ClusterOptions tune a ClusterServer.
type ClusterOptions struct {
	// HistoryLimit caps per-stream history buffers; <= 0 means
	// DefaultHistoryLimit. Clamped so key plus history always fit in
	// one Handoff frame under wire.MaxHandoffPayload.
	HistoryLimit int

	// PeerToken authenticates the node-to-node plane: a connection must
	// present it in an Assign frame before the node honors membership
	// changes or stream handoffs from it. Every node of one cluster
	// must share the same token. Empty disables the check — acceptable
	// only when the wire port is unreachable by untrusted clients.
	PeerToken string

	// Dial opens a wire connection to a peer; nil means TCP with a
	// 5-second timeout. Tests inject pipes here.
	Dial func(addr string) (net.Conn, error)
}

// ClusterServer serves wire connections for one node of a detection
// cluster. Create with NewClusterServer; it registers itself with the
// engine so /statusz and /metrics pick up the cluster counters.
type ClusterServer struct {
	eng          *Engine
	rt           *cluster.Router
	historyLimit int
	token        string
	dial         func(addr string) (net.Conn, error)
}

// NewClusterServer wires an engine to a router.
func NewClusterServer(e *Engine, rt *cluster.Router, opts ClusterOptions) *ClusterServer {
	limit := opts.HistoryLimit
	if limit <= 0 {
		limit = DefaultHistoryLimit
	}
	// The Handoff payload carries the key (<= wire.MaxKeyLen, enforced
	// at Hello decode) and a few short fields besides the history; the
	// headroom keeps their sum under the frame cap for any legal key.
	if max := wire.MaxHandoffPayload - wire.MaxKeyLen - 4096; limit > max {
		limit = max
	}
	dial := opts.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	e.clusterRt = rt
	return &ClusterServer{eng: e, rt: rt, historyLimit: limit, token: opts.PeerToken, dial: dial}
}

// tokenOK compares a presented peer token in constant time.
func (cs *ClusterServer) tokenOK(token string) bool {
	return subtle.ConstantTimeCompare([]byte(token), []byte(cs.token)) == 1
}

// assignment renders this node's current view as an authenticated
// Assign payload.
func (cs *ClusterServer) assignment() wire.Assignment {
	a := cs.rt.View().Assignment(cs.rt.Self())
	a.Token = cs.token
	return a
}

// Router exposes the node's routing state.
func (cs *ClusterServer) Router() *cluster.Router { return cs.rt }

// Engine exposes the wrapped engine.
func (cs *ClusterServer) Engine() *Engine { return cs.eng }

// Serve accepts connections until the listener closes, one cluster
// session per connection — the cluster-mode analogue of Engine.Serve,
// sharing its accept loop and CloseConns.
func (cs *ClusterServer) Serve(ln net.Listener) error { return cs.eng.serve(ln, cs.ServeConn) }

// ServeConn runs one cluster session: a loop of top-level frames, each
// either a client stream (Hello), a membership exchange (Assign), or an
// incoming stream transfer (Handoff).
//
// The cluster frames are gated: a fresh connection may decode Assign
// (to present the peer token) but not Handoff, and an Assign whose
// token does not match is rejected without being applied — so a client
// that can reach the wire port cannot hijack routing with a forged
// high-epoch view or make the node adopt (or even allocate) a handoff.
// A token-valid Assign promotes the connection to the peer plane for
// its remaining lifetime.
func (cs *ClusterServer) ServeConn(conn net.Conn) {
	defer conn.Close()
	log := cs.eng.opts.Logger.With("remote", conn.RemoteAddr().String())
	d := wire.NewDeframer(conn)
	d.ExpectAssigns()
	f := wire.NewFramer(conn, 1)

	for {
		fr, err := d.ReadFrame()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return
			}
			log.Warn("cluster session ended", "err", err)
			_ = f.WriteError(err.Error())
			return
		}
		switch fr.Type {
		case wire.FrameHello:
			if fr.Hello.Key == "" || cs.rt.Owns(fr.Hello.Key) {
				err = cs.serveLocal(conn, d, f, fr.Hello)
			} else {
				cs.rt.NoteMisroute()
				err = cs.forward(conn, d, f, fr.Hello)
			}
		case wire.FrameAssign:
			// The Assign exchange doubles as probe and anti-entropy:
			// adopt the peer's view when newer, answer with our own so
			// the peer can do the same — but only for a peer that holds
			// the cluster token.
			if !cs.tokenOK(fr.Assign.Token) {
				err = fmt.Errorf("cluster: peer token mismatch on assign from %q", fr.Assign.Origin)
				break
			}
			d.ExpectHandoffs()
			cs.rt.ApplyAssignment(fr.Assign)
			err = f.WriteAssign(cs.assignment())
		case wire.FrameHandoff:
			// Only reachable on a promoted connection: the deframer
			// rejects Handoff until a token-valid Assign has arrived.
			err = cs.receiveHandoff(conn, d, f, fr.Handoff)
		default:
			err = fmt.Errorf("%w: unexpected %s frame between streams", wire.ErrBadFrame, fr.Type)
		}
		switch {
		case err == nil:
			continue
		case errors.Is(err, io.EOF):
			return // a relayed Error frame already told the client why
		default:
			log.Warn("cluster session ended", "err", err)
			_ = f.WriteError(err.Error())
			return
		}
	}
}

// serveLocal runs one owned stream on this node — serveStream plus the
// history recording and between-frame ownership checks handoff needs.
func (cs *ClusterServer) serveLocal(cw io.Writer, d *wire.Deframer, f *wire.Framer, hello wire.Hello) error {
	e := cs.eng
	st, err := e.OpenStream(hello, hello.Key)
	if err != nil {
		return err
	}
	d.SetProgram(st.w.Prog, st.w.NumThreads)
	hist := cluster.NewHistory(cs.historyLimit)
	hdr, payload := d.RawFrame()
	hist.Append(hdr, payload)
	jw := e.opts.Journal
	if jw != nil {
		if _, jerr := jw.Append(journal.Meta{Kind: journal.KindHello, Stream: st.id}, hdr, payload); jerr != nil {
			e.opts.Logger.Warn("journal append failed; stream unjournaled", "stream", st.id, "err", jerr)
			jw = nil
		}
	}
	return cs.ingestLoop(cw, d, d, f, st, hist, jw)
}

// ingestLoop drives one stream to completion. d is the deframer to read
// next; live is the connection's deframer. They differ only during a
// handoff replay, where d drains the transferred history first — on its
// clean EOF the loop switches to live and continues with the frames the
// origin relays. Ownership is re-checked after every live Events frame;
// replayed frames never trigger a handoff (the replay must land the
// state somewhere before it can move again — the first live frame
// re-checks).
func (cs *ClusterServer) ingestLoop(cw io.Writer, d, live *wire.Deframer, f *wire.Framer, st *Stream, hist *cluster.History, jw *journal.Writer) error {
	e := cs.eng
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
				if d != live {
					// History replayed; the live tail's deltas continue
					// from the last replayed frame, so the connection's
					// deframer takes over the codec context with it.
					live.AdoptCodec(d)
					d = live
					continue
				}
				return fmt.Errorf("%w: connection closed mid-stream", wire.ErrTruncated)
			}
			return err
		}
		switch fr.Type {
		case wire.FrameEvents:
			st.NoteWireBytes(d.LastFrameBytes())
			hdr, payload := d.RawFrame()
			if d == live && st.key != "" && !hist.Sticky() && !cs.rt.Owns(st.key) {
				done, herr := cs.tryHandoff(cw, live, st, hist, eb, hdr, payload)
				if done {
					closed = true
					return herr
				}
				// Owner unreachable or the key routed back here after a
				// MarkDown: the stream stays local, next frame re-checks.
			}
			hist.Append(hdr, payload)
			if jw != nil {
				var first, last uint64
				if n := eb.Len(); n > 0 {
					first, last = eb.Seq[0], eb.Seq[n-1]
				}
				loc, jerr := jw.Append(journal.Meta{
					Kind: journal.KindEvents, Stream: st.id, FirstSeq: first, LastSeq: last,
				}, hdr, payload)
				if jerr == nil {
					st.IngestBatchJournaled(eb, fr.SendNanos, loc)
					continue
				}
				e.opts.Logger.Warn("journal append failed; stream unjournaled", "stream", st.id, "err", jerr)
				jw = nil
			}
			st.IngestBatchAt(eb, fr.SendNanos)
		case wire.FrameGoodbye:
			st.PutBatch(eb)
			if jw != nil {
				hdr, payload := d.RawFrame()
				if _, jerr := jw.Append(journal.Meta{Kind: journal.KindGoodbye, Stream: st.id}, hdr, payload); jerr != nil {
					jw = nil
				}
			}
			closed = true
			sample, serr := st.Close()
			res := wire.Result{}
			if serr != nil {
				res.Err = serr.Error()
				if jw != nil {
					_, _ = jw.Append(journal.Meta{Kind: journal.KindError, Stream: st.id}, nil, []byte(res.Err))
				}
			} else {
				data, err := json.Marshal(sample)
				if err != nil {
					return fmt.Errorf("server: encode result: %w", err)
				}
				res.Sample = data
				if jw != nil {
					_, _ = jw.Append(journal.Meta{Kind: journal.KindResult, Stream: st.id}, nil, data)
				}
			}
			if lr := st.Latency(); lr != nil {
				if data, err := json.Marshal(lr); err == nil {
					res.Latency = data
				}
			}
			return f.WriteResult(res)
		default:
			st.PutBatch(eb)
			return fmt.Errorf("%w: unexpected %s frame inside a stream", wire.ErrBadFrame, fr.Type)
		}
	}
}

// tryHandoff attempts to move the stream to the key's current owner.
// fhdr/fpayload are the raw bytes of the just-read Events frame — the
// first frame past the ownership boundary, relayed to the new owner
// right after the history. Returns done=false (and keeps the stream
// local) when no reachable remote owner exists; an unreachable owner is
// marked down, so the next frame's re-check routes around it. Once the
// Handoff frame is written the transfer is committed: the local stream
// is released and the session relays the live tail.
func (cs *ClusterServer) tryHandoff(cw io.Writer, live *wire.Deframer, st *Stream, hist *cluster.History, eb *vm.EventBatch, fhdr, fpayload []byte) (bool, error) {
	owner, ok := cs.rt.Owner(st.key)
	if !ok || owner.ID == cs.rt.Self() {
		return false, nil
	}
	peer, err := cs.dial(owner.Addr)
	if err != nil {
		cs.rt.MarkDown(owner.ID)
		return false, nil
	}
	pf := wire.NewFramer(peer, 1)
	// Authenticate before shipping anything: the owner unlocks Handoff
	// only after a token-valid Assign, and its reply doubles as
	// anti-entropy — if it knows a newer view, adopt it and re-check
	// that this peer still owns the key before committing the transfer.
	pd := wire.NewDeframer(peer)
	pd.ExpectAssigns()
	if err := pf.WriteAssign(cs.assignment()); err != nil {
		peer.Close()
		cs.rt.MarkDown(owner.ID)
		return false, nil
	}
	fr, err := pd.ReadFrame()
	if err != nil || fr.Type != wire.FrameAssign {
		peer.Close()
		cs.rt.MarkDown(owner.ID)
		return false, nil
	}
	if !cs.tokenOK(fr.Assign.Token) {
		// Reachable but foreign — a config error, not a death. Keep the
		// stream local and leave the member up.
		peer.Close()
		return false, nil
	}
	if _, changed := cs.rt.ApplyAssignment(fr.Assign); changed {
		if now, ok := cs.rt.Owner(st.key); !ok || now.ID != owner.ID {
			peer.Close()
			return false, nil // next frame re-checks under the new view
		}
	}
	v := cs.rt.View()
	h := wire.Handoff{Key: st.key, Origin: cs.rt.Self(), Epoch: v.Epoch, History: hist.Bytes()}
	if err := pf.WriteHandoff(h); err != nil {
		peer.Close()
		if errors.Is(err, wire.ErrFrameTooLarge) {
			// An encode-side size failure says nothing about the peer's
			// health: do not mark it down. Retrying cannot shrink the
			// history, so pin the stream here.
			hist.MarkSticky()
			return false, nil
		}
		cs.rt.MarkDown(owner.ID)
		return false, nil
	}
	// Committed: the new owner holds the history. Drain the local
	// detectors (their state is now redundant — replay rebuilds it
	// exactly) and become a relay for the rest of the stream.
	defer peer.Close()
	cs.rt.NoteHandoffOut()
	cs.rt.HandoffStarted()
	defer cs.rt.HandoffDone()
	st.PutBatch(eb)
	st.Release()
	if err := writeRaw(peer, fhdr, fpayload); err != nil {
		return true, fmt.Errorf("cluster: relay to %s: %w", owner.ID, err)
	}
	cs.rt.NoteForwarded(1)
	return true, cs.relayFrames(live, cw, peer, pd)
}

// forward relays a misrouted stream to its owner from the Hello on.
// When every remote owner is unreachable (each gets marked down) the
// ring eventually routes the key back here and the stream is served
// locally — availability over placement. The same policy bounds relay
// chains: the Hello is re-emitted with its hop count bumped, and a
// Hello that has already crossed maxStreamHops relays is served where
// it is, so nodes with diverged views cannot bounce a stream between
// each other indefinitely.
func (cs *ClusterServer) forward(cw io.Writer, d *wire.Deframer, f *wire.Framer, hello wire.Hello) error {
	if hello.Hops >= maxStreamHops {
		return cs.serveLocal(cw, d, f, hello)
	}
	relayed := hello
	relayed.Hops++
	for {
		owner, ok := cs.rt.Owner(hello.Key)
		if !ok || owner.ID == cs.rt.Self() {
			return cs.serveLocal(cw, d, f, hello)
		}
		peer, err := cs.dial(owner.Addr)
		if err != nil {
			cs.rt.MarkDown(owner.ID)
			continue
		}
		err = func() error {
			defer peer.Close()
			pf := wire.NewFramer(peer, relayed.Threads)
			if err := pf.WriteHello(relayed); err != nil {
				return fmt.Errorf("cluster: relay to %s: %w", owner.ID, err)
			}
			cs.rt.NoteForwarded(1)
			return cs.relayFrames(d, cw, peer, wire.NewDeframer(peer))
		}()
		return err
	}
}

// relayFrames is the relay core: client frames go to the peer raw until
// the Goodbye, then the peer's reply — read through pd, which must be
// the deframer already wrapping the peer connection (it may hold
// buffered bytes from a handshake read) — comes back raw until a Result
// (success) or Error (the peer already said why; io.EOF tells ServeConn
// to hang up without writing a second error).
func (cs *ClusterServer) relayFrames(d *wire.Deframer, cw io.Writer, peer net.Conn, pd *wire.Deframer) error {
	for {
		t, hdr, payload, err := d.ReadRawFrame()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("%w: connection closed mid-stream", wire.ErrTruncated)
			}
			return err
		}
		if err := writeRaw(peer, hdr, payload); err != nil {
			return fmt.Errorf("cluster: relay: %w", err)
		}
		cs.rt.NoteForwarded(1)
		if t == wire.FrameGoodbye {
			break
		}
	}
	pd.ExpectResults()
	for {
		t, hdr, payload, err := pd.ReadRawFrame()
		if err != nil {
			return fmt.Errorf("cluster: owner reply: %w", err)
		}
		if err := writeRaw(cw, hdr, payload); err != nil {
			return err
		}
		switch t {
		case wire.FrameResult:
			return nil
		case wire.FrameError:
			return io.EOF
		}
	}
}

// receiveHandoff adopts a stream transferred from a peer: replay the
// shipped history through fresh detectors (journaling it, so this
// node's journal holds the complete stream), then continue with the
// live frames the origin relays on the same connection. The Result goes
// back to the origin, which relays it to the client.
func (cs *ClusterServer) receiveHandoff(cw io.Writer, d *wire.Deframer, f *wire.Framer, h wire.Handoff) error {
	cs.rt.NoteHandoffIn()
	cs.rt.HandoffStarted()
	defer cs.rt.HandoffDone()

	hd := wire.NewDeframer(bytes.NewReader(h.History))
	fr, err := hd.ReadFrame()
	if err != nil {
		return fmt.Errorf("cluster: handoff history from %s: %w", h.Origin, err)
	}
	if fr.Type != wire.FrameHello {
		return fmt.Errorf("%w: handoff history must start with a hello, got %s", wire.ErrBadFrame, fr.Type)
	}
	e := cs.eng
	st, err := e.OpenStream(fr.Hello, fr.Hello.Key)
	if err != nil {
		return err
	}
	// Only the replay deframer gets the program here: the connection's
	// deframer adopts the replay's codec context (program included) when
	// the history runs out, because the live tail's deltas continue from
	// the last replayed frame.
	hd.SetProgram(st.w.Prog, st.w.NumThreads)
	// A fresh history wraps the incoming bytes, so the stream can hand
	// off again if the view moves again (chain handoff).
	hist := cluster.NewHistory(cs.historyLimit)
	hdr, payload := hd.RawFrame()
	hist.Append(hdr, payload)
	jw := e.opts.Journal
	if jw != nil {
		if _, jerr := jw.Append(journal.Meta{Kind: journal.KindHello, Stream: st.id}, hdr, payload); jerr != nil {
			e.opts.Logger.Warn("journal append failed; stream unjournaled", "stream", st.id, "err", jerr)
			jw = nil
		}
	}
	return cs.ingestLoop(cw, hd, d, f, st, hist, jw)
}

// writeRaw emits one raw frame (header then payload) to w.
func writeRaw(w io.Writer, hdr, payload []byte) error {
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ProbePeer dials one peer and exchanges membership views — failure
// detector and anti-entropy in a single round trip. An unreachable or
// unresponsive peer is marked down; a reachable peer's newer view is
// adopted (and it adopts ours symmetrically on its side).
func (cs *ClusterServer) ProbePeer(m cluster.Member) error {
	if m.ID == cs.rt.Self() {
		return nil
	}
	conn, err := cs.dial(m.Addr)
	if err != nil {
		cs.rt.MarkDown(m.ID)
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	f := wire.NewFramer(conn, 1)
	d := wire.NewDeframer(conn)
	d.ExpectAssigns()
	if err := f.WriteAssign(cs.assignment()); err != nil {
		cs.rt.MarkDown(m.ID)
		return err
	}
	fr, err := d.ReadFrame()
	if err != nil {
		cs.rt.MarkDown(m.ID)
		return err
	}
	if fr.Type != wire.FrameAssign {
		cs.rt.MarkDown(m.ID)
		return fmt.Errorf("%w: probe expected assign, got %s", wire.ErrBadFrame, fr.Type)
	}
	if !cs.tokenOK(fr.Assign.Token) {
		// Something answered, but not a member of this cluster: adopt
		// nothing. Leave the member up — demotion is for unreachable
		// nodes, and a token mismatch is a config error to surface.
		return fmt.Errorf("cluster: peer token mismatch from %q at %s", fr.Assign.Origin, m.Addr)
	}
	cs.rt.ApplyAssignment(fr.Assign)
	return nil
}

// ProbePeers probes every current member once.
func (cs *ClusterServer) ProbePeers() {
	for _, m := range cs.rt.View().Members {
		_ = cs.ProbePeer(m)
	}
}

// ClusterNode is one node's slice of a gathered cluster report.
type ClusterNode struct {
	ID      string `json:"id"`
	Samples int    `json:"samples"`
	Err     string `json:"err,omitempty"`
}

// ClusterReport is the scatter-gather answer: every reachable node's
// completed samples merged into one digest. Samples are sorted with
// report.SortSamples before merging, so the Merged section is
// independent of node order and byte-comparable against a
// single-process run over the same streams.
type ClusterReport struct {
	Self        string             `json:"self"`
	Epoch       uint64             `json:"epoch"`
	RingVersion uint64             `json:"ring_version"`
	Nodes       []ClusterNode      `json:"nodes"`
	Merged      report.MergedStats `json:"merged"`
}

// GatherReport fans out to every member's /samples endpoint and merges.
func (cs *ClusterServer) GatherReport(ctx context.Context) ClusterReport {
	v := cs.rt.View()
	cr := ClusterReport{Self: cs.rt.Self(), Epoch: v.Epoch, RingVersion: v.Ring().Version()}
	var all []*report.Sample
	for _, m := range v.Members {
		node := ClusterNode{ID: m.ID}
		var samples []*report.Sample
		var err error
		if m.ID == cs.rt.Self() {
			samples = cs.eng.Samples()
		} else {
			samples, err = fetchSamples(ctx, m.HTTPAddr)
		}
		if err != nil {
			node.Err = err.Error()
		} else {
			node.Samples = len(samples)
			all = append(all, samples...)
		}
		cr.Nodes = append(cr.Nodes, node)
	}
	report.SortSamples(all)
	cr.Merged = report.MergeSamples(all)
	return cr
}

// fetchSamples pulls one peer's raw sample list over its HTTP plane.
func fetchSamples(ctx context.Context, httpAddr string) ([]*report.Sample, error) {
	if httpAddr == "" {
		return nil, errors.New("peer has no http address")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+httpAddr+"/samples", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer /samples: %s", resp.Status)
	}
	var samples []*report.Sample
	if err := json.NewDecoder(resp.Body).Decode(&samples); err != nil {
		return nil, err
	}
	return samples, nil
}

// GatherHandler serves the merged cluster report — the cluster-mode
// /report, mounted next to the engine's node-local /report/local.
func (cs *ClusterServer) GatherHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), 15*time.Second)
		defer cancel()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(cs.GatherReport(ctx))
	})
}
