// Package wire is the detection service's binary protocol: a compact,
// versioned codec for vm.Event batches over any io.ReadWriter.
//
// The paper frames SVD as an always-on monitor for server programs (§1);
// splitting event *production* (the instrumented program, here the VM)
// from *detection* (a long-running daemon) requires a stable wire format
// the way RegionTrack treats trace ingestion as a first-class pipeline.
// This package defines that format and nothing else — no sockets, no
// sharding; internal/server builds the service on top of it.
//
// A stream is a sequence of length-prefixed frames, each opening with a
// four-byte magic so a desynchronized peer fails fast instead of
// misparsing garbage:
//
//	[4] magic "SVDW"
//	[1] frame type
//	[4] payload length (little-endian, <= MaxFramePayload)
//	[n] payload
//
// The first frame must be a Hello carrying the protocol version, the
// thread count, workload metadata (name, scale, seed — enough for a
// server holding the workload registry to rebuild the program and its
// ground truth), and optionally an embedded isa program image (with its
// memory size) for streams the server has no registry entry for. Event
// frames then carry batches of dynamic instructions, column by column
// (see event.go); a Goodbye frame ends the stream and asks for a Result
// frame carrying the detection report as JSON. Both directions share
// the same framing.
//
// The error taxonomy is explicit so callers can distinguish a client
// speaking a future protocol (ErrVersionSkew) from line noise
// (ErrBadMagic) from a connection cut mid-frame (ErrTruncated) from a
// resource-abuse attempt (ErrFrameTooLarge): the first deserves a
// logged negotiation failure, the last a dropped connection.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Version is the one protocol version this package speaks: a Deframer
// rejects a Hello of any other version with ErrVersionSkew, and a
// journal written by another version replays as skew too. Version 4 is
// the column-major Events payload (event.go); the earlier row-major
// payloads are not decoded.
const Version = 4

// Magic opens every frame.
var Magic = [4]byte{'S', 'V', 'D', 'W'}

// FrameType discriminates frame payloads.
type FrameType byte

const (
	// FrameHello opens a stream: version, thread count, workload
	// metadata, optional embedded program.
	FrameHello FrameType = iota + 1

	// FrameEvents carries one delta-encoded batch of vm.Events.
	FrameEvents

	// FrameGoodbye ends a stream; the server finalizes the detectors and
	// answers with a FrameResult.
	FrameGoodbye

	// FrameResult carries the stream's detection report as JSON (the
	// report.Sample shape), server to client.
	FrameResult

	// FrameError carries a terminal error message, server to client.
	FrameError

	// FrameAssign carries a cluster membership view (assignment epoch,
	// ring version, node list), node to node. A node receiving an Assign
	// replies with its own current view, so the frame doubles as the
	// liveness probe and the anti-entropy push.
	FrameAssign

	// FrameHandoff transfers one drained stream to its new owner: the
	// routing key plus the stream's raw frame history (hello + events,
	// exactly as they arrived), which the receiver replays through fresh
	// detectors — determinism makes the rebuilt state exact. After the
	// handoff the same connection carries the stream's remaining frames.
	FrameHandoff
)

// String names the frame type for errors and logs.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameEvents:
		return "events"
	case FrameGoodbye:
		return "goodbye"
	case FrameResult:
		return "result"
	case FrameError:
		return "error"
	case FrameAssign:
		return "assign"
	case FrameHandoff:
		return "handoff"
	default:
		return fmt.Sprintf("frame(%d)", byte(t))
	}
}

// MaxKeyLen bounds a Hello's routing key. Keys are workload/seed-style
// identifiers, a few dozen bytes in practice; the cap keeps the
// handoff-payload arithmetic simple (key + history always fit under
// MaxHandoffPayload) and denies a hostile client a multi-MiB key that
// every relay and handoff would have to carry.
const MaxKeyLen = 1 << 10

// MaxFramePayload bounds a single frame's payload. Event batches are
// well under a KB (the VM's 512-event ring encodes to about a byte per
// event); the only legitimately large ingest-direction frame is a
// Hello embedding a program image. 4 MiB leaves headroom for both while
// keeping the damage of a hostile length prefix bounded.
const MaxFramePayload = 4 << 20

// MaxResultPayload bounds a Result frame. Results carry a full report
// sample as JSON, and with the flight recorder on, a violation-heavy
// stream's witnesses legitimately run to tens of MB — far past the
// ingest cap. The larger limit applies only to the result direction, so
// a hostile producer gains nothing from it.
const MaxResultPayload = 64 << 20

// MaxHandoffPayload bounds a Handoff frame. A handoff ships a stream's
// whole raw frame history, which for a long-lived stream legitimately
// runs far past the 4 MiB ingest cap. Only the node-to-node receive
// path opts in (ExpectHandoffs); client-facing deframers keep every
// frame under MaxFramePayload, so the larger cap is never reachable
// from outside the cluster.
const MaxHandoffPayload = 64 << 20

// maxPayload is the per-type payload cap on the write side. Readers
// apply the large result and handoff caps only after opting in
// (ExpectResults, ExpectHandoffs), so an ingest-side deframer never
// allocates past MaxFramePayload no matter what a hostile peer's
// length prefix declares.
func maxPayload(t FrameType) int {
	switch t {
	case FrameResult:
		return MaxResultPayload
	case FrameHandoff:
		return MaxHandoffPayload
	}
	return MaxFramePayload
}

// Protocol errors. Deframer methods wrap these (errors.Is matches); the
// taxonomy separates "peer is broken" from "peer is newer" from
// "connection died" so the server can log and count them differently.
var (
	// ErrBadMagic: the next four bytes were not the frame magic — the
	// peer is not speaking this protocol or the stream desynchronized.
	ErrBadMagic = errors.New("wire: bad frame magic")

	// ErrTruncated: the stream ended inside a frame header or payload.
	ErrTruncated = errors.New("wire: truncated frame")

	// ErrVersionSkew: the Hello's protocol version is not ours.
	ErrVersionSkew = errors.New("wire: protocol version skew")

	// ErrFrameTooLarge: the length prefix exceeds the frame type's
	// payload cap (MaxFramePayload, or MaxResultPayload for results).
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum payload")

	// ErrBadFrame: the payload is malformed (bad counts, out-of-range
	// PCs or addresses, flags the opcode forbids, trailing garbage).
	ErrBadFrame = errors.New("wire: malformed frame payload")
)

// Hello is the stream handshake.
type Hello struct {
	// Version is the sender's protocol version (Version).
	Version int

	// Threads is the event stream's thread (simulated CPU) count; the
	// receiver sizes per-thread decoder state and detectors from it.
	Threads int

	// Workload, Scale, Seed identify a registry workload so the server
	// can rebuild the program and its ground truth (bug PCs) locally.
	// Workload may be empty when Program is embedded instead.
	Workload string
	Scale    int
	Seed     uint64

	// Witness asks the server to run its detectors with the violation
	// flight recorder on, so the Result carries witnesses.
	Witness bool

	// Timestamps declares that every Events frame of this stream opens
	// with the sender's send time (wall-clock nanoseconds), letting the
	// receiver measure wire-to-verdict latency and echo a latency digest
	// in the Result.
	Timestamps bool

	// Key is the stream's cluster routing key: the consistent-hash ring
	// maps it to an owning node, and every frame of the stream follows
	// it there. Empty outside cluster mode, at most MaxKeyLen bytes.
	Key string

	// Hops counts cluster relays this Hello has already crossed. A node
	// that forwards a misrouted stream re-emits the Hello with Hops+1;
	// past a small limit the receiver serves the stream locally instead
	// of relaying again, so two nodes with diverged views cannot
	// ping-pong a stream between them forever. Zero on every
	// client-originated Hello.
	Hops int

	// Program optionally embeds the program image for streams the
	// server cannot rebuild from its registry. Nil when Workload names
	// a registry entry.
	Program *isa.Program

	// MemWords is an embedded program's shared-memory size in words,
	// in [1, MaxMemWords]: the receiver rejects any event address
	// outside [0, MemWords). It travels only with Program; a registry
	// workload carries its own size.
	MemWords int64
}

// MaxMemWords bounds an embedded program's declared memory size: 16 M
// words, 64× the largest registry workload.
const MaxMemWords = 1 << 24

// Result is the stream's detection report frame: the report JSON plus a
// terminal error string (empty on success). Err is transport-level
// ("overloaded: shed 12 batches"), not a detection outcome.
//
// Latency is an optional JSON digest of the stream's ingest latency
// (the server.LatencyReport shape), present only when the stream's
// Hello negotiated Timestamps.
type Result struct {
	Sample  []byte // report.Sample JSON
	Err     string
	Latency []byte // server.LatencyReport JSON, nil without Timestamps
}

// NodeInfo is one cluster member as carried by an Assign frame.
type NodeInfo struct {
	ID       string // stable node id, the ring's hash input
	Addr     string // wire (TCP) listen address
	HTTPAddr string // HTTP plane address, may be empty
}

// Assignment is a cluster membership view: the assignment epoch (total
// order on views — higher wins), the ring version derived from the
// member set, the sending node, and the full node list. Nodes exchange
// Assignments to converge on one view; the receiver of an Assign frame
// replies with its own current view on the same connection.
type Assignment struct {
	Epoch       uint64
	RingVersion uint64
	Origin      string
	Nodes       []NodeInfo

	// Token authenticates the sender as a cluster member: every node of
	// one cluster shares the same token, and a receiver honors an Assign
	// (and promotes the connection to the peer plane, unlocking Handoff)
	// only when the token matches its own. It rides inside the frame
	// rather than a separate handshake so the probe exchange stays one
	// round trip.
	Token string
}

// Handoff transfers one in-flight stream to its new owner. History is
// the stream's raw wire frames (hello, then events) exactly as the old
// owner received them; replaying them through fresh detectors rebuilds
// the detection state exactly, because the detectors are deterministic.
// Epoch names the assignment view that triggered the move, so a stale
// handoff is detectable.
type Handoff struct {
	Key     string
	Origin  string
	Epoch   uint64
	History []byte
}

// Framer writes frames to one stream. Not safe for concurrent use; its
// internal buffer is reused across frames so steady-state writes do not
// allocate.
type Framer struct {
	w   io.Writer
	buf []byte
	enc eventEncoder

	// timestamps mirrors the last WriteHello's Timestamps flag: when
	// set, every Events frame opens with now()'s send stamp.
	timestamps bool
	now        func() int64 // wall-clock nanos; swappable for tests
}

// NewFramer builds a Framer over w. threads sizes the event encoder's
// per-thread delta state (use the Hello's Threads).
func NewFramer(w io.Writer, threads int) *Framer {
	return &Framer{w: w, enc: eventEncoder{st: newCodecState(threads)}, now: unixNanoNow}
}

func unixNanoNow() int64 { return time.Now().UnixNano() }

// Reset rebinds the framer to a new stream, clearing delta state.
func (f *Framer) Reset(threads int) {
	f.enc.st = newCodecState(threads)
}

// writeFrame emits one frame with the given payload.
func (f *Framer) writeFrame(t FrameType, payload []byte) error {
	if len(payload) > maxPayload(t) {
		return fmt.Errorf("%w: %d bytes of %s", ErrFrameTooLarge, len(payload), t)
	}
	hdr := make([]byte, 0, 9)
	hdr = append(hdr, Magic[:]...)
	hdr = append(hdr, byte(t))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := f.w.Write(hdr); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := f.w.Write(payload)
	return err
}

// WriteHello emits the handshake frame and resets event delta state for
// the stream it opens.
func (f *Framer) WriteHello(h Hello) error {
	if len(h.Key) > MaxKeyLen {
		return fmt.Errorf("%w: routing key is %d bytes (max %d)", ErrBadFrame, len(h.Key), MaxKeyLen)
	}
	f.buf = f.buf[:0]
	b := bytes.NewBuffer(f.buf)
	putUvarint(b, uint64(h.Version))
	putUvarint(b, uint64(h.Threads))
	putString(b, h.Workload)
	putUvarint(b, uint64(h.Scale))
	putUvarint(b, h.Seed)
	flags := byte(0)
	if h.Witness {
		flags |= 1
	}
	if h.Program != nil {
		flags |= 2
	}
	if h.Timestamps {
		flags |= 4
	}
	if h.Key != "" {
		flags |= 8
	}
	if h.Hops > 0 {
		flags |= 16
	}
	b.WriteByte(flags)
	if h.Key != "" {
		putString(b, h.Key)
	}
	if h.Hops > 0 {
		putUvarint(b, uint64(h.Hops))
	}
	if h.Program != nil {
		var img bytes.Buffer
		if err := isa.WriteProgram(&img, h.Program); err != nil {
			return fmt.Errorf("wire: encode program: %w", err)
		}
		putUvarint(b, uint64(h.MemWords))
		putUvarint(b, uint64(img.Len()))
		b.Write(img.Bytes())
	}
	f.buf = b.Bytes()
	f.Reset(h.Threads)
	f.timestamps = h.Timestamps
	return f.writeFrame(FrameHello, f.buf)
}

// WriteGoodbye emits the end-of-stream frame.
func (f *Framer) WriteGoodbye() error { return f.writeFrame(FrameGoodbye, nil) }

// WriteResult emits a result frame. The latency digest rides as a
// trailing optional section, emitted only when present.
func (f *Framer) WriteResult(r Result) error {
	f.buf = f.buf[:0]
	b := bytes.NewBuffer(f.buf)
	putString(b, r.Err)
	putUvarint(b, uint64(len(r.Sample)))
	b.Write(r.Sample)
	if len(r.Latency) > 0 {
		putUvarint(b, uint64(len(r.Latency)))
		b.Write(r.Latency)
	}
	f.buf = b.Bytes()
	return f.writeFrame(FrameResult, f.buf)
}

// WriteError emits a terminal error frame.
func (f *Framer) WriteError(msg string) error {
	f.buf = f.buf[:0]
	b := bytes.NewBuffer(f.buf)
	putString(b, msg)
	f.buf = b.Bytes()
	return f.writeFrame(FrameError, f.buf)
}

// WriteAssign emits a cluster membership view, node to node.
func (f *Framer) WriteAssign(a Assignment) error {
	f.buf = f.buf[:0]
	b := bytes.NewBuffer(f.buf)
	putUvarint(b, a.Epoch)
	putUvarint(b, a.RingVersion)
	putString(b, a.Origin)
	putString(b, a.Token)
	putUvarint(b, uint64(len(a.Nodes)))
	for _, n := range a.Nodes {
		putString(b, n.ID)
		putString(b, n.Addr)
		putString(b, n.HTTPAddr)
	}
	f.buf = b.Bytes()
	return f.writeFrame(FrameAssign, f.buf)
}

// WriteHandoff emits a drained-stream transfer, node to node.
func (f *Framer) WriteHandoff(h Handoff) error {
	f.buf = f.buf[:0]
	b := bytes.NewBuffer(f.buf)
	putString(b, h.Key)
	putString(b, h.Origin)
	putUvarint(b, h.Epoch)
	putUvarint(b, uint64(len(h.History)))
	b.Write(h.History)
	f.buf = b.Bytes()
	return f.writeFrame(FrameHandoff, f.buf)
}

// Frame is one decoded frame. Exactly one payload field is meaningful,
// selected by Type; an Events frame's rows land in the batch passed to
// ReadFrameInto.
type Frame struct {
	Type    FrameType
	Hello   Hello      // FrameHello
	Result  Result     // FrameResult
	Errmsg  string     // FrameError
	Assign  Assignment // FrameAssign
	Handoff Handoff    // FrameHandoff

	// SendNanos is the producer's send stamp (wall-clock nanoseconds)
	// carried by an Events frame on a stream whose Hello negotiated
	// Timestamps; zero otherwise.
	SendNanos uint64
}

// Deframer reads frames from one stream. Not safe for concurrent use.
type Deframer struct {
	src     io.Reader // what r buffers; Prepend chains bytes in front
	r       *bufio.Reader
	hdr     [9]byte
	payload []byte
	dec     eventDecoder
	batch   vm.EventBatch // ReadFrame's decode target for Events frames

	// prog validates event frames: events travel as (pc, memory
	// effects), and every pc must index prog.Code with flags matching
	// its opcode, so consumers can rebind Instr = prog.Code[pc]. Set by
	// SetProgram once the handshake resolves; event frames before that
	// fail with ErrBadFrame.
	prog *isa.Program

	// largeResults raises the Result-frame cap to MaxResultPayload.
	// Only the client side (which asked for a report) opts in; ingest
	// deframers keep every frame under MaxFramePayload.
	largeResults bool

	// assigns permits decoding Assign frames (only — Handoff stays
	// rejected and its cap stays down). A cluster node's accept path
	// opts in so peers can open the token handshake, then promotes the
	// connection with ExpectHandoffs once the token checks out.
	assigns bool

	// handoffs raises the Handoff-frame cap to MaxHandoffPayload and
	// permits decoding both cluster frames. Only an authenticated
	// node-to-node connection opts in; a client-facing deframer rejects
	// Assign and Handoff as malformed.
	handoffs bool

	// timestamps mirrors the last decoded Hello's Timestamps flag: when
	// set, Events frames open with a send stamp.
	timestamps bool

	// lastFrameBytes is the wire size (header + payload) of the last
	// frame readPayload consumed, for per-stream byte accounting.
	lastFrameBytes int
}

// LastFrameBytes reports the wire size (9-byte header plus payload) of
// the most recently read frame — the session layer's per-stream byte
// odometer.
func (d *Deframer) LastFrameBytes() int { return d.lastFrameBytes }

// RawFrame returns views of the most recently read frame's 9-byte
// header and payload, exactly as they arrived on the wire. The journal
// uses this to persist ingested frames without re-encoding: header and
// payload concatenated are the frame, and concatenated frames are a
// valid stream. Both views are owned by the Deframer and valid only
// until the next read.
func (d *Deframer) RawFrame() (hdr, payload []byte) {
	if d.lastFrameBytes == 0 {
		return nil, nil
	}
	return d.hdr[:], d.payload[:d.lastFrameBytes-len(d.hdr)]
}

// ExpectResults permits Result frames up to MaxResultPayload. Call it
// on the consumer side of the protocol before reading a report.
func (d *Deframer) ExpectResults() { d.largeResults = true }

// ExpectAssigns permits Assign frames only: the pre-authentication
// surface of a cluster node's accept path. Handoff frames stay rejected
// (and capped at MaxFramePayload on the length prefix), so an
// unauthenticated peer can open the token handshake but cannot make the
// node allocate a 64 MiB handoff or adopt a stream.
func (d *Deframer) ExpectAssigns() { d.assigns = true }

// ExpectHandoffs permits the cluster frames (Assign, Handoff) and
// raises the Handoff cap to MaxHandoffPayload. Only an authenticated
// node-to-node connection calls this (see ExpectAssigns for the
// handshake step); without it both frame kinds decode as ErrBadFrame,
// so the client-facing protocol surface is unchanged.
func (d *Deframer) ExpectHandoffs() { d.handoffs = true }

// NewDeframer builds a Deframer over r.
func NewDeframer(r io.Reader) *Deframer {
	return &Deframer{src: r, r: bufio.NewReaderSize(r, 32<<10)}
}

// SetProgram installs the program event frames are validated against and
// sizes per-thread decoder state. The server calls this after resolving
// the Hello (registry lookup or embedded image).
func (d *Deframer) SetProgram(p *isa.Program, threads int) {
	d.prog = p
	d.dec.st = newCodecState(threads)
	d.dec.flagClass = buildFlagClass(p)
}

// Prepend makes d read b before the rest of its input, bytes already
// buffered from the underlying reader included. A cluster handoff
// receiver prepends the shipped history to its connection, so history
// and live tail decode as one wire stream through one codec context:
// the Hello that sets the stream's framing and the tail frames whose
// deltas continue from the last history frame pass the same decoder.
// d keeps b; the caller must not modify it afterwards.
func (d *Deframer) Prepend(b []byte) {
	buffered, _ := d.r.Peek(d.r.Buffered())
	d.src = io.MultiReader(bytes.NewReader(b), bytes.NewReader(bytes.Clone(buffered)), d.src)
	d.r.Reset(d.src)
}

// readPayload reads the next frame header and payload into d.payload.
func (d *Deframer) readPayload() (FrameType, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if [4]byte(d.hdr[:4]) != Magic {
		return 0, fmt.Errorf("%w: got % x", ErrBadMagic, d.hdr[:4])
	}
	t := FrameType(d.hdr[4])
	n := binary.LittleEndian.Uint32(d.hdr[5:])
	limit := MaxFramePayload
	if d.largeResults && t == FrameResult {
		limit = MaxResultPayload
	}
	if d.handoffs && t == FrameHandoff {
		limit = MaxHandoffPayload
	}
	if int64(n) > int64(limit) {
		return 0, fmt.Errorf("%w: %s frame declares %d bytes", ErrFrameTooLarge, t, n)
	}
	if cap(d.payload) < int(n) {
		d.payload = make([]byte, n)
	}
	d.payload = d.payload[:n]
	if _, err := io.ReadFull(d.r, d.payload); err != nil {
		return 0, fmt.Errorf("%w: %s payload: %v", ErrTruncated, t, err)
	}
	d.lastFrameBytes = len(d.hdr) + int(n)
	return t, nil
}

// eventsPayload strips the optional send stamp off an Events payload,
// returning the column sections. The stamp is present exactly
// when the stream's Hello negotiated Timestamps.
func (d *Deframer) eventsPayload() (rest []byte, sendNanos uint64, err error) {
	if !d.timestamps {
		return d.payload, 0, nil
	}
	v, n := binary.Uvarint(d.payload)
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: truncated send stamp on events frame", ErrBadFrame)
	}
	return d.payload[n:], v, nil
}

// ReadFrame reads and decodes the next frame: ReadFrameInto on a batch
// the Deframer owns, for callers that read control frames. An Events
// frame read this way is still validated and still advances the delta
// context, but its rows are not returned. io.EOF is returned untouched
// at a clean frame boundary.
func (d *Deframer) ReadFrame() (Frame, error) { return d.ReadFrameInto(&d.batch) }

// ReadFrameInto reads the next frame, decoding an Events frame's
// payload directly into eb's columns — the served ingest path's form,
// which never materializes per-event vm.Events. eb is reset first; on
// an Events frame the returned Frame carries only the type and send
// stamp, and eb holds the batch. Other frame types leave eb empty. On
// error eb's contents are unspecified. io.EOF is returned untouched at
// a clean frame boundary.
func (d *Deframer) ReadFrameInto(eb *vm.EventBatch) (Frame, error) {
	eb.Reset()
	t, err := d.readPayload()
	if err != nil {
		return Frame{}, err
	}
	if t == FrameEvents {
		if d.prog == nil {
			return Frame{}, fmt.Errorf("%w: events before handshake", ErrBadFrame)
		}
		payload, sendNanos, err := d.eventsPayload()
		if err != nil {
			return Frame{}, err
		}
		if err := d.dec.decodeColumns(payload, d.prog, eb); err != nil {
			return Frame{}, err
		}
		return Frame{Type: FrameEvents, SendNanos: sendNanos}, nil
	}
	return d.decodeControl(t)
}

// ReadRawFrame reads the next frame without decoding its payload: the
// relay path's primitive. A node forwarding a misrouted stream does not
// hold the program and never needs the events — it validates framing
// (magic, caps) and copies bytes to the owner. The returned views obey
// the RawFrame contract: owned by the Deframer, valid until the next
// read; header and payload concatenated are the frame as it arrived.
func (d *Deframer) ReadRawFrame() (FrameType, []byte, []byte, error) {
	t, err := d.readPayload()
	if err != nil {
		return 0, nil, nil, err
	}
	return t, d.hdr[:], d.payload, nil
}

// decodeControl decodes the non-Events frame in d.payload.
func (d *Deframer) decodeControl(t FrameType) (Frame, error) {
	switch t {
	case FrameHello:
		h, err := decodeHello(d.payload)
		if err != nil {
			return Frame{}, err
		}
		// The handshake governs this stream's Events framing: remember
		// whether send stamps are coming.
		d.timestamps = h.Timestamps
		return Frame{Type: FrameHello, Hello: h}, nil
	case FrameGoodbye:
		if len(d.payload) != 0 {
			return Frame{}, fmt.Errorf("%w: goodbye with %d payload bytes", ErrBadFrame, len(d.payload))
		}
		return Frame{Type: FrameGoodbye}, nil
	case FrameResult:
		r, err := decodeResult(d.payload)
		if err != nil {
			return Frame{}, err
		}
		return Frame{Type: FrameResult, Result: r}, nil
	case FrameError:
		p := payloadReader{b: d.payload}
		msg := p.str()
		if p.err != nil {
			return Frame{}, p.err
		}
		return Frame{Type: FrameError, Errmsg: msg}, nil
	case FrameAssign:
		if !d.handoffs && !d.assigns {
			return Frame{}, fmt.Errorf("%w: assign frame on a non-cluster connection", ErrBadFrame)
		}
		a, err := decodeAssign(d.payload)
		if err != nil {
			return Frame{}, err
		}
		return Frame{Type: FrameAssign, Assign: a}, nil
	case FrameHandoff:
		if !d.handoffs {
			return Frame{}, fmt.Errorf("%w: handoff frame on a non-cluster connection", ErrBadFrame)
		}
		h, err := decodeHandoff(d.payload)
		if err != nil {
			return Frame{}, err
		}
		return Frame{Type: FrameHandoff, Handoff: h}, nil
	default:
		return Frame{}, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, byte(t))
	}
}

// decodeHello parses a Hello payload.
func decodeHello(payload []byte) (Hello, error) {
	p := payloadReader{b: payload}
	var h Hello
	// The version leads the payload and is checked before anything
	// else: another version's Hello may lay out the rest differently.
	v := p.uvarint()
	if p.err != nil {
		return Hello{}, p.err
	}
	if v != Version {
		return Hello{}, fmt.Errorf("%w: peer speaks version %d, this build speaks %d", ErrVersionSkew, v, Version)
	}
	h.Version = Version
	h.Threads = int(p.uvarint())
	h.Workload = p.str()
	h.Scale = int(p.uvarint())
	h.Seed = p.uvarint()
	flags := p.byte()
	if p.err != nil {
		return Hello{}, p.err
	}
	if flags&^31 != 0 {
		return Hello{}, fmt.Errorf("%w: unknown hello flags %#x", ErrBadFrame, flags&^31)
	}
	// A hostile thread count would size decoder state and detectors;
	// cap it at the 64-thread ceiling the detectors' bitsets assume.
	if h.Threads <= 0 || h.Threads > 64 {
		return Hello{}, fmt.Errorf("%w: thread count %d outside [1,64]", ErrBadFrame, h.Threads)
	}
	h.Witness = flags&1 != 0
	h.Timestamps = flags&4 != 0
	if flags&8 != 0 {
		h.Key = p.str()
		if p.err != nil {
			return Hello{}, p.err
		}
		if len(h.Key) > MaxKeyLen {
			return Hello{}, fmt.Errorf("%w: routing key is %d bytes (max %d)", ErrBadFrame, len(h.Key), MaxKeyLen)
		}
	}
	if flags&16 != 0 {
		hops := p.uvarint()
		if p.err != nil {
			return Hello{}, p.err
		}
		// Any hop count a well-behaved relay chain can produce is tiny;
		// 255 bounds a hostile value without caring about the exact
		// relay limit (which lives in the server layer).
		if hops == 0 || hops > 255 {
			return Hello{}, fmt.Errorf("%w: hop count %d outside [1,255]", ErrBadFrame, hops)
		}
		h.Hops = int(hops)
	}
	if flags&2 != 0 {
		mem := p.uvarint()
		imgLen := p.uvarint()
		img := p.bytes(int(imgLen))
		if p.err != nil {
			return Hello{}, p.err
		}
		if mem == 0 || mem > MaxMemWords {
			return Hello{}, fmt.Errorf("%w: embedded program memory of %d words outside [1,%d]", ErrBadFrame, mem, MaxMemWords)
		}
		h.MemWords = int64(mem)
		prog, err := isa.ReadProgram(bytes.NewReader(img))
		if err != nil {
			return Hello{}, fmt.Errorf("%w: embedded program: %v", ErrBadFrame, err)
		}
		h.Program = prog
	}
	if p.rest() != 0 {
		return Hello{}, fmt.Errorf("%w: %d trailing bytes after hello", ErrBadFrame, p.rest())
	}
	return h, nil
}

// decodeResult parses a Result payload. The latency digest is an
// optional trailing section, present only on timestamp-negotiated
// streams.
func decodeResult(payload []byte) (Result, error) {
	p := payloadReader{b: payload}
	var r Result
	r.Err = p.str()
	n := p.uvarint()
	sample := p.bytes(int(n))
	if p.err != nil {
		return Result{}, p.err
	}
	var lat []byte
	if p.rest() != 0 {
		ln := p.uvarint()
		lat = p.bytes(int(ln))
		if p.err != nil {
			return Result{}, p.err
		}
		if p.rest() != 0 {
			return Result{}, fmt.Errorf("%w: %d trailing bytes after result", ErrBadFrame, p.rest())
		}
	}
	// The sample aliases the deframer's payload buffer; copy so the
	// caller can hold it across frames.
	r.Sample = append([]byte(nil), sample...)
	if lat != nil {
		r.Latency = append([]byte(nil), lat...)
	}
	return r, nil
}

// decodeAssign parses an Assign payload.
func decodeAssign(payload []byte) (Assignment, error) {
	p := payloadReader{b: payload}
	var a Assignment
	a.Epoch = p.uvarint()
	a.RingVersion = p.uvarint()
	a.Origin = p.str()
	a.Token = p.str()
	n := p.uvarint()
	if p.err != nil {
		return Assignment{}, p.err
	}
	// Three strings per node is at least 3 bytes; a hostile count cannot
	// force an allocation past the frame itself.
	if n > uint64(p.rest()) {
		return Assignment{}, fmt.Errorf("%w: assign declares %d nodes in %d bytes", ErrBadFrame, n, p.rest())
	}
	a.Nodes = make([]NodeInfo, n)
	for i := range a.Nodes {
		a.Nodes[i].ID = p.str()
		a.Nodes[i].Addr = p.str()
		a.Nodes[i].HTTPAddr = p.str()
	}
	if p.err != nil {
		return Assignment{}, p.err
	}
	if p.rest() != 0 {
		return Assignment{}, fmt.Errorf("%w: %d trailing bytes after assign", ErrBadFrame, p.rest())
	}
	return a, nil
}

// decodeHandoff parses a Handoff payload. History is copied out of the
// deframer's buffer: the receiver replays it asynchronously, past the
// next frame read.
func decodeHandoff(payload []byte) (Handoff, error) {
	p := payloadReader{b: payload}
	var h Handoff
	h.Key = p.str()
	h.Origin = p.str()
	h.Epoch = p.uvarint()
	n := p.uvarint()
	hist := p.bytes(int(n))
	if p.err != nil {
		return Handoff{}, p.err
	}
	if p.rest() != 0 {
		return Handoff{}, fmt.Errorf("%w: %d trailing bytes after handoff", ErrBadFrame, p.rest())
	}
	h.History = append([]byte(nil), hist...)
	return h, nil
}

// payloadReader cursors over one frame payload with latched errors, so
// decode paths read unconditionally and check once.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (p *payloadReader) fail() {
	if p.err == nil {
		p.err = fmt.Errorf("%w: truncated at payload offset %d", ErrBadFrame, p.off)
	}
}

func (p *payloadReader) byte() byte {
	if p.err != nil || p.off >= len(p.b) {
		p.fail()
		return 0
	}
	v := p.b[p.off]
	p.off++
	return v
}

// uvarint reads one uvarint, a one-byte value without a call.
func (p *payloadReader) uvarint() uint64 {
	if p.err == nil && p.off < len(p.b) && p.b[p.off] < 0x80 {
		p.off++
		return uint64(p.b[p.off-1])
	}
	return p.uvarintSlow()
}

func (p *payloadReader) uvarintSlow() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		p.fail()
		return 0
	}
	p.off += n
	return v
}

// bytes returns the next n payload bytes without copying. Counts are
// validated against the remaining payload, so a hostile length cannot
// force an allocation beyond the frame itself.
func (p *payloadReader) bytes(n int) []byte {
	if p.err != nil || n < 0 || p.off+n > len(p.b) || p.off+n < 0 {
		p.fail()
		return nil
	}
	out := p.b[p.off : p.off+n]
	p.off += n
	return out
}

func (p *payloadReader) str() string {
	n := p.uvarint()
	if p.err == nil && n > uint64(p.rest()) {
		p.fail()
		return ""
	}
	return string(p.bytes(int(n)))
}

func (p *payloadReader) rest() int { return len(p.b) - p.off }

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func putString(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}
