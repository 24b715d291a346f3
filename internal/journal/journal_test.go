package journal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testProviders runs fn against both providers: memory is the
// reference, dir is production.
func testProviders(t *testing.T, fn func(t *testing.T, p Provider)) {
	t.Helper()
	t.Run("memory", func(t *testing.T) { fn(t, InMemory()) })
	t.Run("dir", func(t *testing.T) {
		p, err := OpenDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, p)
	})
}

// appendAll writes records and returns their locations.
func appendAll(t *testing.T, w *Writer, recs []struct {
	m       Meta
	payload string
}) []Loc {
	t.Helper()
	locs := make([]Loc, len(recs))
	for i, r := range recs {
		loc, err := w.Append(r.m, nil, []byte(r.payload))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		locs[i] = loc
	}
	return locs
}

func TestRoundTrip(t *testing.T) {
	recs := []struct {
		m       Meta
		payload string
	}{
		{Meta{Kind: KindHello, Stream: 1}, "hello-1"},
		{Meta{Kind: KindHello, Stream: 2}, "hello-2"},
		{Meta{Kind: KindEvents, Stream: 1, FirstSeq: 1, LastSeq: 40}, "events-1a"},
		{Meta{Kind: KindEvents, Stream: 2, FirstSeq: 1, LastSeq: 10}, "events-2a"},
		{Meta{Kind: KindEvents, Stream: 1, FirstSeq: 41, LastSeq: 90}, "events-1b"},
		{Meta{Kind: KindGoodbye, Stream: 1}, "bye-1"},
		{Meta{Kind: KindResult, Stream: 1}, `{"workload":"q"}`},
		{Meta{Kind: KindError, Stream: 2}, "overloaded"},
	}
	testProviders(t, func(t *testing.T, p Provider) {
		w, err := OpenWriter(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		locs := appendAll(t, w, recs)
		st := w.Stats()
		if st.AppendedRecords != uint64(len(recs)) {
			t.Fatalf("appended %d records, want %d", st.AppendedRecords, len(recs))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := OpenReader(p)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		segs := r.Segments()
		if len(segs) != 1 || segs[0].Records != len(recs) || segs[0].Torn {
			t.Fatalf("segments = %+v", segs)
		}
		for i, rec := range recs {
			m, payload, err := r.ReadAt(locs[i])
			if err != nil {
				t.Fatalf("ReadAt %d: %v", i, err)
			}
			if m != rec.m || string(payload) != rec.payload {
				t.Fatalf("record %d: got %+v %q, want %+v %q", i, m, payload, rec.m, rec.payload)
			}
		}

		streams := r.Streams()
		if len(streams) != 2 {
			t.Fatalf("streams = %+v", streams)
		}
		s1 := streams[0]
		if s1.Stream != 1 || s1.Events != 2 || s1.FirstSeq != 1 || s1.LastSeq != 90 ||
			!s1.HasHello || !s1.HasGoodbye || !s1.HasResult || s1.HasError {
			t.Fatalf("stream 1 = %+v", s1)
		}
		s2 := streams[1]
		if s2.Stream != 2 || s2.Events != 1 || !s2.HasError || s2.HasGoodbye {
			t.Fatalf("stream 2 = %+v", s2)
		}

		got, err := io.ReadAll(r.StreamReader(1))
		if err != nil {
			t.Fatal(err)
		}
		if want := "hello-1events-1aevents-1bbye-1"; string(got) != want {
			t.Fatalf("stream 1 bytes = %q, want %q", got, want)
		}

		sample, errMsg, ok := r.Result(1)
		if !ok || errMsg != "" || string(sample) != `{"workload":"q"}` {
			t.Fatalf("Result(1) = %q %q %v", sample, errMsg, ok)
		}
		if _, errMsg, ok := r.Result(2); !ok || errMsg != "overloaded" {
			t.Fatalf("Result(2) = %q %v", errMsg, ok)
		}
		if _, _, ok := r.Result(7); ok {
			t.Fatal("Result(7) should be absent")
		}
	})
}

func TestSplitPayloadAppend(t *testing.T) {
	p := InMemory()
	w, err := OpenWriter(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := w.Append(Meta{Kind: KindEvents, Stream: 3}, []byte("head|"), []byte("tail"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, payload, err := r.ReadAt(loc)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "head|tail" {
		t.Fatalf("payload = %q", payload)
	}
}

func TestRotationAndRetention(t *testing.T) {
	testProviders(t, func(t *testing.T, p Provider) {
		w, err := OpenWriter(p, Options{SegmentBytes: 256, RetainSegments: 2})
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte("x"), 100)
		for i := 0; i < 20; i++ {
			if _, err := w.Append(Meta{Kind: KindEvents, Stream: uint64(i)}, nil, payload); err != nil {
				t.Fatal(err)
			}
		}
		st := w.Stats()
		if st.Rotations == 0 {
			t.Fatal("no rotations at a 256-byte segment cap")
		}
		if st.Segments > 3 { // 2 sealed retained + active
			t.Fatalf("retention kept %d segments", st.Segments)
		}
		if st.LastCompaction.Removed == 0 {
			t.Fatalf("compaction removed nothing: %+v", st.LastCompaction)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := OpenReader(p)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		segs := r.Segments()
		if len(segs) == 0 || len(segs) > 3 {
			t.Fatalf("reader sees %d segments", len(segs))
		}
		// The oldest streams are gone; the newest survive and read back.
		streams := r.Streams()
		if len(streams) == 0 {
			t.Fatal("no streams survived retention")
		}
		last := streams[len(streams)-1]
		if last.Stream != 19 {
			t.Fatalf("newest stream = %d, want 19", last.Stream)
		}
		got, err := io.ReadAll(r.StreamReader(last.Stream))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("stream %d read: %q err %v", last.Stream, got, err)
		}
		// An anchor into a compacted segment reports rather than panics.
		if _, _, err := r.ReadAt(Loc{Segment: 0, Offset: segHeaderSize}); err == nil {
			t.Fatal("ReadAt into compacted segment 0 should fail")
		}
	})
}

func TestAgeRotation(t *testing.T) {
	now := time.Unix(0, 0)
	p := InMemory()
	w, err := OpenWriter(p, Options{
		SegmentAge: time.Minute,
		Now:        func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Meta{Kind: KindEvents, Stream: 1}, nil, []byte("a")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if _, err := w.Append(Meta{Kind: KindEvents, Stream: 1}, nil, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Rotations != 1 {
		t.Fatalf("rotations = %d, want 1", st.Rotations)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamBaseAcrossReopen(t *testing.T) {
	testProviders(t, func(t *testing.T, p Provider) {
		w, err := OpenWriter(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if w.StreamBase() != 0 {
			t.Fatalf("fresh StreamBase = %d", w.StreamBase())
		}
		for _, id := range []uint64{5, 9, 2} {
			if _, err := w.Append(Meta{Kind: KindHello, Stream: id}, nil, []byte("h")); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenWriter(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		if w2.StreamBase() != 10 {
			t.Fatalf("reopened StreamBase = %d, want 10", w2.StreamBase())
		}
	})
}

// unsealedSegment writes recs into a throwaway dir with fsync on every
// append and no Close, then returns the raw bytes of the (unsealed)
// active segment — the exact on-disk state a SIGKILL leaves behind.
func unsealedSegment(t *testing.T, recs []struct {
	m       Meta
	payload string
}) []byte {
	t.Helper()
	dir := t.TempDir()
	p, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(p, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs)
	// No Close: abandon the writer as a crash would.
	data, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != w.Stats().ActiveBytes {
		t.Fatalf("segment holds %d bytes, writer appended %d", len(data), w.Stats().ActiveBytes)
	}
	return data
}

// reopenSegment plants data as segment 0 in a fresh dir and runs
// recovery over it.
func reopenSegment(t *testing.T, data []byte) (*Writer, Provider, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(p, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	return w, p, dir
}

// TestCrashRecoveryEveryBoundary cuts the unsealed segment at every
// byte boundary of the last record and asserts recovery lands exactly
// on the preceding whole-record prefix, stays appendable, and reads
// back clean. A cut inside a record is one repaired segment; a cut on a
// record boundary leaves only whole records and needs no repair.
func TestCrashRecoveryEveryBoundary(t *testing.T) {
	recs := []struct {
		m       Meta
		payload string
	}{
		{Meta{Kind: KindHello, Stream: 1}, "hello"},
		{Meta{Kind: KindEvents, Stream: 1, FirstSeq: 1, LastSeq: 8}, "eventsA"},
		{Meta{Kind: KindEvents, Stream: 1, FirstSeq: 9, LastSeq: 20}, "eventsBB"},
	}
	data := unsealedSegment(t, recs)
	lastLen := recHeaderSize + len(recs[len(recs)-1].payload)
	lastStart := len(data) - lastLen

	for cut := lastStart; cut < len(data); cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			w, p, _ := reopenSegment(t, data[:cut])
			rec := w.Recovery()
			wantRepaired := 1
			if cut == lastStart {
				wantRepaired = 0
			}
			if rec.Repaired != wantRepaired {
				t.Fatalf("repaired = %d, want %d", rec.Repaired, wantRepaired)
			}
			if want := int64(cut - lastStart); rec.TruncatedBytes != want {
				t.Fatalf("truncated %d bytes, want %d", rec.TruncatedBytes, want)
			}
			if w.StreamBase() != 2 {
				t.Fatalf("StreamBase = %d", w.StreamBase())
			}
			// The journal must accept appends immediately after recovery.
			if _, err := w.Append(Meta{Kind: KindGoodbye, Stream: 1}, nil, []byte("bye")); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := OpenReader(p)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			want := "hello" + "eventsA" + "bye"
			got, err := io.ReadAll(r.StreamReader(1))
			if err != nil || string(got) != want {
				t.Fatalf("stream 1 after recovery = %q (err %v), want %q", got, err, want)
			}
		})
	}

	// The whole file (clean kill between appends): nothing truncated,
	// nothing repaired.
	w, _, _ := reopenSegment(t, data)
	if rec := w.Recovery(); rec.TruncatedBytes != 0 || rec.Repaired != 0 {
		t.Fatalf("clean tail recovery = %+v", rec)
	}
	w.Close()
}

// TestCrashRecoveryCorruptTail flips each byte of the last record in
// turn; the CRC must catch every one and recovery must drop exactly
// that record.
func TestCrashRecoveryCorruptTail(t *testing.T) {
	recs := []struct {
		m       Meta
		payload string
	}{
		{Meta{Kind: KindHello, Stream: 1}, "hello"},
		{Meta{Kind: KindEvents, Stream: 1, FirstSeq: 1, LastSeq: 8}, "events"},
	}
	data := unsealedSegment(t, recs)
	lastLen := recHeaderSize + len(recs[len(recs)-1].payload)
	lastStart := len(data) - lastLen

	for i := lastStart; i < len(data); i++ {
		// Corrupting the length field can declare a giant record; both
		// that and a flipped payload byte must fail the scan safely.
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		w, p, _ := reopenSegment(t, mut)
		if err := w.Close(); err != nil {
			t.Fatalf("byte %d: close: %v", i, err)
		}
		r, err := OpenReader(p)
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		got, err := io.ReadAll(r.StreamReader(1))
		r.Close()
		if err != nil || string(got) != "hello" {
			t.Fatalf("byte %d: stream = %q (err %v), want %q", i, got, err, "hello")
		}
	}
}

// TestRecoveryRemovesGarbageSegment: a segment whose header never made
// it to disk is deleted, not served.
func TestRecoveryRemovesGarbageSegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(3)), []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if rec := w.Recovery(); rec.RemovedSegments != 1 {
		t.Fatalf("recovery = %+v", rec)
	}
	// The next segment id must not collide with the removed one.
	if w.Stats().ActiveSegment != 4 {
		t.Fatalf("active segment = %d, want 4", w.Stats().ActiveSegment)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(3))); !os.IsNotExist(err) {
		t.Fatalf("garbage segment still present: %v", err)
	}
}

// TestRecoveryAcrossSealedSegments: recovery scans the sealed segments
// and the unsealed tail alike, and every record survives.
func TestRecoveryAcrossSealedSegments(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(p, Options{SegmentBytes: 128, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 80)
	for i := 0; i < 4; i++ {
		if _, err := w.Append(Meta{Kind: KindEvents, Stream: 1, FirstSeq: uint64(i)}, nil, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close. At 128-byte segments each record rotates,
	// so sealed segments plus one unsealed tail exist.
	w2, err := OpenWriter(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	r, err := OpenReader(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var events int
	for _, s := range r.Streams() {
		events += s.Events
	}
	if events != 4 {
		t.Fatalf("recovered %d event records, want 4", events)
	}
}

func TestStatsShape(t *testing.T) {
	now := time.Unix(100, 0)
	p := InMemory()
	w, err := OpenWriter(p, Options{FsyncInterval: -1, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(Meta{Kind: KindHello, Stream: 1}, nil, []byte("h")); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Dir != "memory" || st.Segments != 1 || st.AppendedRecords != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.FsyncNs.Count == 0 {
		t.Fatal("fsync histogram empty with FsyncInterval < 0")
	}
	if st.OldestUnixNano != now.UnixNano() || st.NewestUnixNano != now.UnixNano() {
		t.Fatalf("timestamps: oldest %d newest %d", st.OldestUnixNano, st.NewestUnixNano)
	}
	if st.ActiveBytes != segHeaderSize+recHeaderSize+1 {
		t.Fatalf("active bytes = %d", st.ActiveBytes)
	}
}

func TestAppendAfterClose(t *testing.T) {
	p := InMemory()
	w, err := OpenWriter(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Meta{Kind: KindHello, Stream: 1}, nil, []byte("h")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Meta{Kind: KindHello, Stream: 2}, nil, []byte("h")); err == nil {
		t.Fatal("append after close should fail")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestEmptyJournalCloseLeavesNothing(t *testing.T) {
	p := InMemory()
	w, err := OpenWriter(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("empty journal left %v behind", names)
	}
}

func TestRecordTooLarge(t *testing.T) {
	p := InMemory()
	w, err := OpenWriter(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	huge := make([]byte, 1)
	if _, err := w.Append(Meta{Kind: KindEvents}, make([]byte, MaxRecordPayload), huge); err == nil {
		t.Fatal("oversized record should be rejected")
	}
}

// TestSegmentRecycling drives rotation until retired segments are
// parked and reused, then checks the journal still reads back exactly
// and that a restarted writer adopts the parked files.
func TestSegmentRecycling(t *testing.T) {
	testProviders(t, func(t *testing.T, p Provider) {
		opts := Options{SegmentBytes: 256, RetainSegments: 1, FsyncInterval: -1}
		w, err := OpenWriter(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Payload sizes vary, so segments do too, and a recycled file
		// usually outlives its new incarnation's records.
		payload := func(stream uint64) []byte { return bytes.Repeat([]byte("r"), 60+int(stream%5)*20) }
		for i := 0; i < 40; i++ {
			m := Meta{Kind: KindEvents, Stream: uint64(i), FirstSeq: 1, LastSeq: 1}
			if _, err := w.Append(m, nil, payload(m.Stream)); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		st := w.Stats()
		if st.RecycledSegments == 0 {
			t.Fatalf("no segments recycled across %d rotations: %+v", st.Rotations, st)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		names, err := p.List()
		if err != nil {
			t.Fatal(err)
		}
		parked := 0
		for _, n := range names {
			if _, ok := parseRecycleName(n); ok {
				parked++
			}
			if strings.HasSuffix(n, ".idx") {
				t.Fatalf("journal wrote an index file %s", n)
			}
		}
		if parked == 0 || parked > DefaultRecycleSegments {
			t.Fatalf("parked %d recycle files after close, want 1..%d (names %v)", parked, DefaultRecycleSegments, names)
		}

		// Reads over recycled segments must be exact: every surviving
		// record intact, and the parked files invisible to the reader.
		r, err := OpenReader(p)
		if err != nil {
			t.Fatal(err)
		}
		streams := r.Streams()
		if len(streams) == 0 {
			t.Fatal("no streams survived retention")
		}
		last := streams[len(streams)-1]
		if last.Stream != 39 || last.Events != 1 {
			t.Fatalf("newest stream = %+v", last)
		}
		// A clean Close leaves every segment exactly its records long:
		// sealing trimmed each recycled file's stale tail, so nothing
		// scans torn.
		for _, si := range r.Segments() {
			size, err := p.Size(segName(si.ID))
			if err != nil {
				t.Fatal(err)
			}
			if si.Torn || size != si.Size {
				t.Fatalf("segment %d: %d bytes on file, %d scanned, torn=%v", si.ID, size, si.Size, si.Torn)
			}
		}
		for _, s := range r.segs {
			for _, e := range s.entries {
				if _, got, err := r.readEntry(r.bySeg[s.info.ID], e); err != nil {
					t.Fatalf("seg %d off %d: %v", s.info.ID, e.Offset, err)
				} else if !bytes.Equal(got, payload(e.Stream)) {
					t.Fatalf("seg %d off %d: payload corrupted", s.info.ID, e.Offset)
				}
			}
		}
		r.Close()

		// A restarted writer adopts the parked files: its first active
		// segment comes off the freelist, not from Create.
		w2, err := OpenWriter(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		if rec := w2.Recovery(); rec != (RecoveryInfo{Segments: rec.Segments}) {
			t.Fatalf("reopen after a clean close repaired something: %+v", rec)
		}
		if got := w2.Stats().RecycledSegments; got == 0 {
			t.Fatal("restarted writer did not adopt parked recycle files")
		}
		if _, err := w2.Append(Meta{Kind: KindHello, Stream: 99}, nil, []byte("h")); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecycledStaleTailRejected is the hazard segment-recycling
// introduces: a crash leaves the previous incarnation's bytes past the
// new tail, and because every record here is the same size the stale
// tail starts exactly on a record boundary — a record whose CRC is
// valid under the OLD segment's seed. Recovery must reject it via the
// per-incarnation seed and truncate, never resurrecting old records
// into the new segment.
func TestRecycledStaleTailRejected(t *testing.T) {
	testProviders(t, func(t *testing.T, p Provider) {
		var fake int64
		now := func() time.Time { fake++; return time.Unix(fake, 0) }
		opts := Options{SegmentBytes: 512, RetainSegments: 1, FsyncInterval: -1, Now: now}
		payload := bytes.Repeat([]byte("s"), 100)

		// Fill and rotate until retired segments are parked on the
		// freelist, with stream ids in the 1000s.
		w, err := OpenWriter(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			m := Meta{Kind: KindEvents, Stream: 1000 + uint64(i), FirstSeq: 1, LastSeq: 1}
			if _, err := w.Append(m, nil, payload); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		// Restart: the new active segment overwrites a parked file in
		// place. Write two records (stream ids in the 2000s) and crash —
		// drop the writer without Close, leaving no seal and no sidecar.
		w2, err := OpenWriter(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if w2.Stats().RecycledSegments == 0 {
			t.Fatal("active segment is not recycled; stale-tail scenario not constructed")
		}
		for i := 0; i < 2; i++ {
			m := Meta{Kind: KindEvents, Stream: 2000 + uint64(i), FirstSeq: 1, LastSeq: 1}
			if _, err := w2.Append(m, nil, payload); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		w2 = nil // crash: buffered state already flushed by FsyncInterval < 0

		// Recovery must truncate at the incarnation boundary.
		w3, err := OpenWriter(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec := w3.Recovery()
		if rec.Repaired == 0 || rec.TruncatedBytes == 0 {
			t.Fatalf("recovery did not trim the stale tail: %+v", rec)
		}
		if err := w3.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := OpenReader(p)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		segs := r.Segments()
		if len(segs) == 0 {
			t.Fatal("no segments after recovery")
		}
		crashed := segs[len(segs)-1]
		if crashed.Records != 2 {
			t.Fatalf("recycled crash segment has %d records, want 2 (stale record resurrected?): %+v", crashed.Records, crashed)
		}
		seen2000 := 0
		for _, s := range r.Streams() {
			if s.Stream >= 2000 {
				seen2000++
			}
		}
		if seen2000 != 2 {
			t.Fatalf("want streams 2000 and 2001 to survive, saw %d", seen2000)
		}
	})
}

// TestCrashRecoveryZeroTail is the crash image a power cut can leave
// when a file's new size reached the disk before its data did: the
// written records are followed by a run of zero pages. Recovery must
// truncate the whole zero tail and keep every record.
func TestCrashRecoveryZeroTail(t *testing.T) {
	recs := []struct {
		m       Meta
		payload string
	}{
		{Meta{Kind: KindHello, Stream: 1}, "hello"},
		{Meta{Kind: KindEvents, Stream: 1, FirstSeq: 1, LastSeq: 8}, "events"},
	}
	data := unsealedSegment(t, recs)
	w, p, _ := reopenSegment(t, append(data, make([]byte, 64<<10)...))
	rec := w.Recovery()
	if rec.Repaired != 1 || rec.TruncatedBytes != 64<<10 {
		t.Fatalf("recovery = %+v, want the 65536-byte zero tail truncated", rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r.StreamReader(1))
	if err != nil || string(got) != "hello"+"events" {
		t.Fatalf("stream 1 = %q (err %v)", got, err)
	}
}

// opLog wraps a Provider and records its namespace operations and
// directory syncs, interleaved with the test's own markers, in order.
type opLog struct {
	Provider
	ops []string
}

func (l *opLog) mark(s string) { l.ops = append(l.ops, s) }

func (l *opLog) Create(name string) (WriteFile, error) {
	l.mark("create " + name)
	return l.Provider.Create(name)
}

func (l *opLog) Rename(old, new string) error {
	l.mark("rename " + old + " " + new)
	return l.Provider.Rename(old, new)
}

func (l *opLog) Remove(name string) error {
	l.mark("remove " + name)
	return l.Provider.Remove(name)
}

func (l *opLog) SyncDir() error {
	l.mark("syncdir")
	return l.Provider.SyncDir()
}

// TestNamespaceChangesSynced: every create, rename and remove the
// journal makes is followed by a directory sync before the next record
// is appended and before OpenWriter or Close returns — a namespace
// change not yet synced can vanish in a power cut. The first writer
// keeps every segment; the second, under RetainSegments 1, parks two
// of them, removes the rest, unparks on later rotations, and removes
// its empty active segment at Close.
func TestNamespaceChangesSynced(t *testing.T) {
	log := &opLog{Provider: InMemory()}
	payload := bytes.Repeat([]byte("n"), 100)
	stream := uint64(0)
	run := func(opts Options, appends int, endOnRotation bool) {
		w, err := OpenWriter(log, opts)
		if err != nil {
			t.Fatal(err)
		}
		log.mark("open returned")
		for i := 0; i < appends || (endOnRotation && w.Stats().ActiveBytes != segHeaderSize); i++ {
			log.mark("append")
			stream++
			if _, err := w.Append(Meta{Kind: KindEvents, Stream: stream}, nil, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		log.mark("close returned")
	}
	run(Options{SegmentBytes: 256}, 12, false)
	run(Options{SegmentBytes: 256, RetainSegments: 1}, 12, true)

	seen := map[string]bool{}
	pending := ""
	for _, op := range log.ops {
		verb, _, _ := strings.Cut(op, " ")
		switch {
		case op == "syncdir":
			pending = ""
		case verb == "create" || verb == "rename" || verb == "remove":
			if verb == "rename" && strings.HasPrefix(op, "rename recycle-") {
				verb = "unpark"
			}
			seen[verb] = true
			pending = op
		case pending != "":
			t.Fatalf("%q not followed by a directory sync before %q; log:\n%s", pending, op, strings.Join(log.ops, "\n"))
		}
	}
	for _, verb := range []string{"create", "rename", "unpark", "remove"} {
		if !seen[verb] {
			t.Fatalf("scenario made no %s; log:\n%s", verb, strings.Join(log.ops, "\n"))
		}
	}
}

// TestOpenJournalWithLeftoverSidecars opens a journal an older build
// wrote — two sealed segments, each with its JSON index sidecar
// (testdata/sidecar-journal). The reader indexes it by scanning; the
// writer removes the sidecars; the stream reads back the same bytes
// before and after.
func TestOpenJournalWithLeftoverSidecars(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "sidecar-journal")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	const want = "hello-1" + "events-1a" + "events-1b" + "bye-1"
	replay := func() {
		t.Helper()
		r, err := OpenReader(p)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for _, si := range r.Segments() {
			if si.Torn {
				t.Fatalf("segment %d scans torn: %+v", si.ID, si)
			}
		}
		got, err := io.ReadAll(r.StreamReader(1))
		if err != nil || string(got) != want {
			t.Fatalf("stream 1 = %q (err %v), want %q", got, err, want)
		}
		if sample, _, ok := r.Result(1); !ok || string(sample) != `{"workload":"q"}` {
			t.Fatalf("Result(1) = %q %v", sample, ok)
		}
	}
	replay()

	w, err := OpenWriter(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec := w.Recovery(); rec != (RecoveryInfo{Segments: 2}) {
		t.Fatalf("recovery = %+v, want two clean segments", rec)
	}
	if w.StreamBase() != 2 {
		t.Fatalf("StreamBase = %d, want 2", w.StreamBase())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".idx") {
			t.Fatalf("leftover sidecar %s survived OpenWriter (names %v)", n, names)
		}
	}
	replay()
}
