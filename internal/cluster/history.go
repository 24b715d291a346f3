package cluster

import "sync"

// History accumulates one stream's raw wire frames (hello + events,
// exactly as received) so the stream can be handed to a new owner:
// replaying the bytes through fresh detectors rebuilds the detection
// state exactly, because the detectors are deterministic. The buffer is
// capped — a stream that outgrows it becomes sticky (it finishes on the
// node that holds its state) rather than unbounded memory.
//
// The bytes live in fixed-size chunks from a pool every history on the
// node shares, so recording copies each frame once and a warm node
// records without allocating; Release hands the chunks back when the
// stream no longer needs them. A History is used by one goroutine.
type History struct {
	chunks   []*[ChunkSize]byte
	n        int // recorded bytes; the last chunk holds n - (len(chunks)-1)*ChunkSize
	limit    int
	overflow bool
}

// ChunkSize is a history's unit of storage: a stream holds its recorded
// length rounded up to a chunk.
const ChunkSize = 64 << 10

// chunkPool is the node-wide chunk pool. Idle chunks are reclaimed by the
// GC within two cycles, so the pool holds no memory a quiet node keeps.
var chunkPool = sync.Pool{New: func() any { return new([ChunkSize]byte) }}

// NewHistory builds a history buffer with the given byte cap.
func NewHistory(limit int) *History {
	return &History{limit: limit}
}

// Append records one raw frame (header then payload). Once the cap is
// crossed the buffer is released and the stream is marked sticky; a
// sticky history never un-sticks.
func (h *History) Append(hdr, payload []byte) {
	if h.overflow {
		return
	}
	if h.n+len(hdr)+len(payload) > h.limit {
		h.MarkSticky()
		return
	}
	h.write(hdr)
	h.write(payload)
}

// write copies b into the chunks, taking a new one from the pool each
// time the last fills.
func (h *History) write(b []byte) {
	for len(b) > 0 {
		off := h.n % ChunkSize
		if off == 0 {
			h.chunks = append(h.chunks, chunkPool.Get().(*[ChunkSize]byte))
		}
		c := copy(h.chunks[len(h.chunks)-1][off:], b)
		h.n += c
		b = b[c:]
	}
}

// Release empties the history and hands its chunks back to the pool.
// It is idempotent, and a sticky history stays sticky. Views from Bytes
// are copies, so they survive it; nothing else may still read the
// chunks, which the next stream on the node reuses.
func (h *History) Release() {
	for _, c := range h.chunks {
		chunkPool.Put(c)
	}
	h.chunks, h.n = nil, 0
}

// Sticky reports whether the stream outgrew the buffer and must finish
// where it is.
func (h *History) Sticky() bool { return h.overflow }

// MarkSticky pins the stream where it is, releasing the buffer, exactly
// as if the cap had been crossed. The handoff path uses it when a
// transfer fails for a reason retrying cannot fix — the encoded handoff
// exceeded the frame cap — so the stream stops re-attempting a doomed
// move on every frame.
func (h *History) MarkSticky() {
	h.overflow = true
	h.Release()
}

// Bytes is the recorded frame history, a valid wire byte stream, glued
// into one new slice: the handoff path's copy, taken once per transfer.
// It is nil for an empty or sticky history.
func (h *History) Bytes() []byte {
	if h.n == 0 {
		return nil
	}
	b := make([]byte, 0, h.n)
	for _, c := range h.chunks {
		b = append(b, c[:min(ChunkSize, h.n-len(b))]...)
	}
	return b
}

// Len is the recorded byte count.
func (h *History) Len() int { return h.n }
