package cluster

import (
	"bytes"
	"math/rand"
	"testing"
)

// appendFrames records frames into h, each split into a 9-byte header
// and its payload as a session records them, and returns their
// concatenation.
func appendFrames(h *History, frames [][]byte) []byte {
	var want []byte
	for _, f := range frames {
		h.Append(f[:9], f[9:])
		want = append(want, f...)
	}
	return want
}

// randFrame is a 9-byte header plus n payload bytes, all random.
func randFrame(rng *rand.Rand, n int) []byte {
	f := make([]byte, 9+n)
	rng.Read(f)
	return f
}

// checkHistory requires h to hold exactly want, in the fewest chunks
// that fit it.
func checkHistory(t *testing.T, label string, h *History, want []byte) {
	t.Helper()
	if h.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", label, h.Len(), len(want))
	}
	if got := h.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("%s: Bytes differ from the appended frames (%d vs %d bytes)", label, len(got), len(want))
	}
	if n := (len(want) + ChunkSize - 1) / ChunkSize; len(h.chunks) != n {
		t.Fatalf("%s: %d bytes held in %d chunks, want %d", label, len(want), len(h.chunks), n)
	}
}

// TestHistoryChunks: frames of every size relative to a chunk — small
// ones that straddle chunk boundaries, one that ends exactly on a
// boundary, and one longer than a whole chunk — read back through Bytes
// as their concatenation, and Len is its length.
func TestHistoryChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHistory(1 << 20)
	defer h.Release()
	var frames [][]byte
	for len(frames) < 40 {
		frames = append(frames, randFrame(rng, rng.Intn(5000)))
	}
	want := appendFrames(h, frames)
	checkHistory(t, "small frames", h, want)

	// Fill the last chunk exactly: the next byte must start a new one.
	gap := ChunkSize - len(want)%ChunkSize
	if gap < 9 {
		gap += ChunkSize
	}
	want = append(want, appendFrames(h, [][]byte{randFrame(rng, gap-9)})...)
	if h.Len()%ChunkSize != 0 {
		t.Fatalf("filler left %d bytes in the last chunk", h.Len()%ChunkSize)
	}
	checkHistory(t, "chunk-aligned", h, want)

	want = append(want, appendFrames(h, [][]byte{randFrame(rng, 2*ChunkSize+100)})...)
	checkHistory(t, "frame longer than a chunk", h, want)
	want = append(want, appendFrames(h, [][]byte{randFrame(rng, 3)})...)
	checkHistory(t, "after the long frame", h, want)
}

// TestHistoryStickyReleases: crossing the cap and MarkSticky both give
// the chunks back and leave an empty, sticky history.
func TestHistoryStickyReleases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := NewHistory(3 * ChunkSize)
	appendFrames(h, [][]byte{randFrame(rng, 2*ChunkSize)})
	if h.Sticky() || len(h.chunks) != 3 {
		t.Fatalf("under the cap: sticky=%v chunks=%d", h.Sticky(), len(h.chunks))
	}
	appendFrames(h, [][]byte{randFrame(rng, ChunkSize)})
	if !h.Sticky() || len(h.chunks) != 0 || h.Len() != 0 || h.Bytes() != nil {
		t.Fatalf("over the cap: sticky=%v chunks=%d len=%d", h.Sticky(), len(h.chunks), h.Len())
	}

	h = NewHistory(1 << 20)
	appendFrames(h, [][]byte{randFrame(rng, 100)})
	h.MarkSticky()
	appendFrames(h, [][]byte{randFrame(rng, 100)})
	if !h.Sticky() || len(h.chunks) != 0 || h.Len() != 0 || h.Bytes() != nil {
		t.Fatalf("marked sticky: sticky=%v chunks=%d len=%d", h.Sticky(), len(h.chunks), h.Len())
	}
}

// TestHistoryRelease: Release empties the history, a second Release is
// a no-op, and a Bytes copy taken before it survives it and the reuse
// of the chunks by another history.
func TestHistoryRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHistory(1 << 20)
	want := appendFrames(h, [][]byte{randFrame(rng, ChunkSize+10)})
	copied := h.Bytes()
	h.Release()
	h.Release()
	if h.Sticky() || h.Len() != 0 || h.Bytes() != nil || len(h.chunks) != 0 {
		t.Fatalf("released: sticky=%v len=%d chunks=%d", h.Sticky(), h.Len(), len(h.chunks))
	}
	other := NewHistory(1 << 20)
	defer other.Release()
	appendFrames(other, [][]byte{randFrame(rng, 2*ChunkSize)})
	if !bytes.Equal(copied, want) {
		t.Fatal("a Bytes copy changed when its chunks were reused")
	}
}

// TestHistoryReusedChunks: a history built on chunks another history
// filled and released reads back only its own bytes, on every length,
// whichever chunks the pool hands out (under -race it drops some).
func TestHistoryReusedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	stale := bytes.Repeat([]byte{0xAA}, 4*ChunkSize-9)
	for _, n := range []int{0, 1, 100, ChunkSize - 9, ChunkSize, 2*ChunkSize + 7} {
		prev := NewHistory(1 << 20)
		appendFrames(prev, [][]byte{stale})
		prev.Release()

		h := NewHistory(1 << 20)
		f := randFrame(rng, n)
		for i := range f {
			f[i] &= 0x7F // no byte of the new frame equals the stale fill
		}
		want := appendFrames(h, [][]byte{f})
		checkHistory(t, "reused", h, want)
		if bytes.IndexByte(h.Bytes(), 0xAA) >= 0 {
			t.Fatalf("payload %d: a previous owner's byte shows through", n)
		}
		h.Release()
	}
}
