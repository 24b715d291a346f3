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
// Every stream this node serves runs through Engine.serveStream, the
// loop a standalone daemon uses. A keyed stream hands it a check that
// runs on each Events frame before the frame is journaled and ingested:
// the frame joins the stream's recorded history, unless the view has
// moved the key elsewhere — then the check ships the history, releases
// the local stream (no sample — the new owner publishes it), and turns
// the session into a relay for the rest of the stream.
// Nothing is handed off mid-frame, so the boundary is always a frame
// boundary and the concatenated bytes the new owner sees are a valid
// wire stream — the same property the journal's replay path proves —
// which is how the receiver reads them: one stream through one
// deframer, history first.

import (
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
	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/wire"
)

// DefaultHistoryLimit caps each stream's recorded frame history. A
// stream that outgrows it becomes sticky — it finishes on the node
// that holds its detector state instead of holding unbounded memory
// for a handoff that may never come.
const DefaultHistoryLimit = 8 << 20

// The Handoff payload carries the key (<= wire.MaxKeyLen, enforced at
// Hello decode) and a few short fields besides the history; this fails
// to compile unless their sum fits under the frame cap for any legal
// key.
const _ = uint(wire.MaxHandoffPayload - wire.MaxKeyLen - 4096 - DefaultHistoryLimit)

// maxStreamHops bounds how many times a Hello may be relayed between
// nodes. While views diverge (the anti-entropy window after a failure)
// node A can believe B owns a key while B believes A does; without a
// bound each relayed Hello looks like a fresh client stream and the
// pair plays ping-pong at network speed. At the limit the stream is
// served wherever it happens to be — availability over placement, the
// same policy the unreachable-owner path uses.
const maxStreamHops = 3

// peerTimeout bounds a peer dial and the Assign exchange after it (for
// a handoff, up to the committed Handoff frame), so a peer that accepts
// a connection and never answers cannot stall a stream.
const peerTimeout = 5 * time.Second

// errPeerToken is the exchange's token-mismatch failure: something
// answered at the member's address, but not with this cluster's token.
var errPeerToken = errors.New("peer token mismatch")

// ClusterOptions tune a ClusterServer.
type ClusterOptions struct {
	// PeerToken authenticates the node-to-node plane: a connection must
	// present it in an Assign frame before the node honors membership
	// changes or stream handoffs from it. Every node of one cluster
	// must share the same token. Empty disables the check — acceptable
	// only when the wire port is unreachable by untrusted clients.
	PeerToken string

	// Dial opens a wire connection to a peer; nil means TCP with a
	// peerTimeout (5 s) timeout. Tests inject pipes here.
	Dial func(addr string) (net.Conn, error)
}

// ClusterServer serves wire connections for one node of a detection
// cluster. Create with NewClusterServer; it registers itself with the
// engine so /statusz and /metrics pick up the cluster counters.
type ClusterServer struct {
	eng          *Engine
	rt           *cluster.Router
	historyLimit int // DefaultHistoryLimit; tests lower it
	token        string
	dial         func(addr string) (net.Conn, error)
}

// NewClusterServer wires an engine to a router.
func NewClusterServer(e *Engine, rt *cluster.Router, opts ClusterOptions) *ClusterServer {
	dial := opts.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, peerTimeout)
		}
	}
	e.clusterRt = rt
	return &ClusterServer{eng: e, rt: rt, historyLimit: DefaultHistoryLimit, token: opts.PeerToken, dial: dial}
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

// serveLocal serves one stream on this node through serveStream. hello
// has just been read from d. A keyed stream records its frame history
// and re-checks ownership on every Events frame before it is journaled
// and ingested; when the view has moved the key elsewhere, tryHandoff
// ships the history and the session becomes a relay. The history's
// chunks go back to the node's pool when the stream ends, however it
// ends. A keyless stream can never be handed off, so it records
// nothing.
func (cs *ClusterServer) serveLocal(cw io.Writer, d *wire.Deframer, f *wire.Framer, hello wire.Hello) error {
	if hello.Key == "" {
		return cs.eng.serveStream(d, f, hello, "", nil)
	}
	hist := cluster.NewHistory(cs.historyLimit)
	defer hist.Release()
	hist.Append(d.RawFrame())
	return cs.eng.serveStream(d, f, hello, hello.Key, func(st *Stream, eb *vm.EventBatch, hdr, payload []byte) (bool, error) {
		if !hist.Sticky() && !cs.rt.Owns(hello.Key) {
			if done, err := cs.tryHandoff(cw, d, st, hist, eb, hdr, payload); done {
				return true, err
			}
			// Owner unreachable or the key routed back here after a
			// MarkDown: the stream stays local, next frame re-checks.
		}
		hist.Append(hdr, payload)
		return false, nil
	})
}

// tryHandoff attempts to move the stream to the key's current owner.
// fhdr/fpayload are the raw bytes of the just-read Events frame — the
// first frame past the ownership boundary, relayed to the new owner
// right after the history. Returns done=false (and keeps the stream
// local) when no reachable remote owner exists; an unreachable owner is
// marked down, so the next frame's re-check routes around it. An owner
// that answers with another cluster's token stays up, so re-checking
// would dial it again on every frame: the stream is pinned here
// instead, as forward pins a misrouted one. Once the Handoff frame is
// written the transfer is committed: the history and the local stream
// are released and the session relays the live tail.
func (cs *ClusterServer) tryHandoff(cw io.Writer, live *wire.Deframer, st *Stream, hist *cluster.History, eb *vm.EventBatch, fhdr, fpayload []byte) (bool, error) {
	owner, ok := cs.rt.Owner(st.key)
	if !ok || owner.ID == cs.rt.Self() {
		return false, nil
	}
	// Authenticate before shipping anything: the owner unlocks Handoff
	// only after a token-valid Assign, and its reply doubles as
	// anti-entropy — if it knows a newer view that moves the key, the
	// next frame re-checks under that view.
	peer, pd, err := cs.exchange(owner, st.key)
	if err != nil {
		if errors.Is(err, errPeerToken) {
			hist.MarkSticky()
		}
		return false, nil
	}
	pf := wire.NewFramer(peer, 1)
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
	// exactly) and become a relay for the rest of the stream, which,
	// like a forwarded stream's relay, runs without a deadline.
	defer peer.Close()
	_ = peer.SetDeadline(time.Time{})
	hist.Release()
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
// The owner is reached through the Assign exchange, so a peer that
// accepts and never answers is marked down within peerTimeout, and a
// newer view it knows is adopted before anything is relayed. When every
// remote owner is unreachable (each gets marked down) the ring
// eventually routes the key back here and the stream is served locally
// — availability over placement. The same policy bounds relay chains:
// the Hello is re-emitted with its hop count bumped, and a Hello that
// has already crossed maxStreamHops relays is served where it is, so
// nodes with diverged views cannot bounce a stream between each other
// indefinitely. So is a stream whose owner answers with the wrong
// token (it stays up, so re-routing would find it again). Both are
// pinned here: served without a history, never handed off, so no
// frame dials the owner again.
func (cs *ClusterServer) forward(cw io.Writer, d *wire.Deframer, f *wire.Framer, hello wire.Hello) error {
	if hello.Hops >= maxStreamHops {
		return cs.eng.serveStream(d, f, hello, hello.Key, nil)
	}
	relayed := hello
	relayed.Hops++
	for {
		owner, ok := cs.rt.Owner(hello.Key)
		if !ok || owner.ID == cs.rt.Self() {
			return cs.serveLocal(cw, d, f, hello)
		}
		peer, pd, err := cs.exchange(owner, hello.Key)
		if errors.Is(err, errPeerToken) {
			return cs.eng.serveStream(d, f, hello, hello.Key, nil)
		}
		if err != nil {
			continue // owner marked down, or its newer view moved the key
		}
		defer peer.Close()
		_ = peer.SetDeadline(time.Time{})
		if err := wire.NewFramer(peer, relayed.Threads).WriteHello(relayed); err != nil {
			return fmt.Errorf("cluster: relay to %s: %w", owner.ID, err)
		}
		cs.rt.NoteForwarded(1)
		return cs.relayFrames(d, cw, peer, pd)
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

// receiveHandoff adopts a stream transferred from a peer. The shipped
// history goes in front of the rest of the connection, so the history
// and the live tail the origin relays behind it are one wire stream
// read through one deframer — the codec context, Timestamps framing
// included, runs unbroken from the Hello to the Goodbye. serveLocal
// then replays the history through fresh detectors (journaling it, so
// this node's journal holds the complete stream) and continues with the
// tail; its ownership check runs on replayed frames too, so a stream
// whose key moves again, even mid-replay, is handed on at once with the
// same byte sequence (chain handoff). The Result goes back to the
// origin, which relays it to the client.
func (cs *ClusterServer) receiveHandoff(cw io.Writer, d *wire.Deframer, f *wire.Framer, h wire.Handoff) error {
	cs.rt.NoteHandoffIn()
	cs.rt.HandoffStarted()
	defer cs.rt.HandoffDone()

	d.Prepend(h.History)
	fr, err := d.ReadFrame()
	if err != nil {
		return fmt.Errorf("cluster: handoff history from %s: %w", h.Origin, err)
	}
	if fr.Type != wire.FrameHello {
		return fmt.Errorf("%w: handoff history must start with a hello, got %s", wire.ErrBadFrame, fr.Type)
	}
	return cs.serveLocal(cw, d, f, fr.Hello)
}

// writeRaw emits one raw frame to w in one Write. hdr and payload are
// a Deframer's adjacent views of the frame (wire.Deframer.RawFrame), so
// hdr extended over payload is the whole frame.
func writeRaw(w io.Writer, hdr, payload []byte) error {
	_, err := w.Write(hdr[:len(hdr)+len(payload)])
	return err
}

// exchange dials peer m and runs the Assign exchange: send this node's
// view with the peer token, read the peer's view, check its token, and
// adopt the view when it is newer. The connection carries a peerTimeout
// deadline, so a peer that accepts but never answers fails like an
// unreachable one: any dial, write, read or protocol failure marks m
// down. A token mismatch (errPeerToken) leaves m up — something
// answered, just not a member of this cluster, which is a config error
// to surface, not a death. When key is set and the adopted view no
// longer routes it to m, the exchange fails too, leaving m up. On
// success the caller owns the connection, its deadline still set, and
// the deframer that read the reply (it may hold buffered bytes).
func (cs *ClusterServer) exchange(m cluster.Member, key string) (conn net.Conn, d *wire.Deframer, err error) {
	conn, err = cs.dial(m.Addr)
	if err != nil {
		cs.rt.MarkDown(m.ID)
		return nil, nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(peerTimeout))
	d = wire.NewDeframer(conn)
	d.ExpectAssigns()
	var fr wire.Frame
	if err = wire.NewFramer(conn, 1).WriteAssign(cs.assignment()); err == nil {
		fr, err = d.ReadFrame()
	}
	if err == nil && fr.Type != wire.FrameAssign {
		err = fmt.Errorf("%w: expected assign from %s, got %s", wire.ErrBadFrame, m.ID, fr.Type)
	}
	if err != nil {
		conn.Close()
		cs.rt.MarkDown(m.ID)
		return nil, nil, err
	}
	if !cs.tokenOK(fr.Assign.Token) {
		conn.Close()
		return nil, nil, fmt.Errorf("cluster: %w from %q at %s", errPeerToken, fr.Assign.Origin, m.Addr)
	}
	if _, changed := cs.rt.ApplyAssignment(fr.Assign); changed && key != "" {
		if now, ok := cs.rt.Owner(key); !ok || now.ID != m.ID {
			conn.Close()
			return nil, nil, fmt.Errorf("cluster: %s's view moves key %q", m.ID, key)
		}
	}
	return conn, d, nil
}

// ProbePeer exchanges membership views with one peer — failure detector
// and anti-entropy in a single round trip (see exchange).
func (cs *ClusterServer) ProbePeer(m cluster.Member) error {
	if m.ID == cs.rt.Self() {
		return nil
	}
	conn, _, err := cs.exchange(m, "")
	if err != nil {
		return err
	}
	return conn.Close()
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
// run digest merged into one. Digests merge in any order, so the Merged
// section is independent of node and arrival order and byte-comparable
// against a single-process run over the same streams.
type ClusterReport struct {
	Self        string             `json:"self"`
	Epoch       uint64             `json:"epoch"`
	RingVersion uint64             `json:"ring_version"`
	Nodes       []ClusterNode      `json:"nodes"`
	Merged      report.MergedStats `json:"merged"`
}

// GatherReport fans out to every member's /digest endpoint and merges.
func (cs *ClusterServer) GatherReport(ctx context.Context) ClusterReport {
	v := cs.rt.View()
	cr := ClusterReport{Self: cs.rt.Self(), Epoch: v.Epoch, RingVersion: v.Ring().Version()}
	var all report.Digest
	for _, m := range v.Members {
		node := ClusterNode{ID: m.ID}
		var d report.Digest
		var err error
		if m.ID == cs.rt.Self() {
			d = cs.eng.Digest()
		} else {
			d, err = fetchDigest(ctx, m.HTTPAddr)
		}
		if err != nil {
			node.Err = err.Error()
		} else {
			node.Samples = d.Samples
			all.Merge(d)
		}
		cr.Nodes = append(cr.Nodes, node)
	}
	cr.Merged = all.MergedStats
	return cr
}

// fetchDigest pulls one peer's run digest over its HTTP plane.
func fetchDigest(ctx context.Context, httpAddr string) (report.Digest, error) {
	var d report.Digest
	if httpAddr == "" {
		return d, errors.New("peer has no http address")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+httpAddr+"/digest", nil)
	if err != nil {
		return d, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return d, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("peer /digest: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return report.Digest{}, err
	}
	if len(d.Keys) != len(d.Witnesses) {
		return report.Digest{}, fmt.Errorf("peer /digest: %d keys for %d witness groups", len(d.Keys), len(d.Witnesses))
	}
	return d, nil
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
