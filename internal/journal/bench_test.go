// Append-path microbenchmarks: the per-record cost a journaled ingest
// hop pays on the producer thread. The first two write 10 KiB records
// to tmpfs, so they measure the code rather than the disk; both retain
// a bounded number of segments, so tmpfs use stays bounded too.
// BenchmarkWriterAppendDisk writes 600-byte records — about one
// 512-event Events frame, the size BenchmarkServerIngestJournaled
// journals 68 of per op — with default Options to the real filesystem,
// as svdd -journal does.
package journal

import (
	"os"
	"testing"
)

func benchDir(b *testing.B) string {
	// tmpfs when available, for the same reason the ingest benchmark
	// uses it: measure the code, not the disk.
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		d, err := os.MkdirTemp("/dev/shm", "svdjournal-bench-")
		if err == nil {
			b.Cleanup(func() { os.RemoveAll(d) })
			return d
		}
	}
	return b.TempDir()
}

func benchAppend(b *testing.B, dir string, payloadBytes int, opts Options) {
	prov, err := OpenDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	w, err := OpenWriter(prov, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	hdr := make([]byte, 9)
	payload := make([]byte, payloadBytes-9)
	m := Meta{Kind: KindEvents, Stream: 1, FirstSeq: 1, LastSeq: 512}
	// When the config can recycle, warm the rotation cycle first so the
	// timed region writes into page-warm reused files, not fresh ones.
	if opts.RetainSegments > 0 && opts.RecycleSegments >= 0 {
		for i := 0; w.Stats().RecycledSegments < 2 && i < 1<<20; i++ {
			if _, err := w.Append(m, hdr, payload); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(int64(payloadBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(m, hdr, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriterAppendRotating is the production configuration —
// async flush pipeline, background fsync ticker, default 64 MiB
// segments — with retention, so a run at any -benchtime holds at most
// seven segments (four retained, the active one, two parked for
// recycling): the cost profile of a long-running daemon, rotation
// amortized in.
func BenchmarkWriterAppendRotating(b *testing.B) {
	benchAppend(b, benchDir(b), 10<<10, Options{RetainSegments: 4})
}

// BenchmarkWriterAppendRecycled is the steady state of a long-running
// daemon under retention: every rotation reuses a parked segment file,
// so appends overwrite already-allocated pages instead of growing a
// fresh file — the configuration the journaled ingest guard measures.
func BenchmarkWriterAppendRecycled(b *testing.B) {
	benchAppend(b, benchDir(b), 10<<10, Options{SegmentBytes: 8 << 20, RetainSegments: 1})
}

// BenchmarkWriterAppendDisk is svdd's configuration: Events-frame-sized
// records, default Options (64 MiB segments, async flush, 100 ms fsync
// ticker, no retention), on the real filesystem. Not guarded: a disk's
// writeback makes it the noisiest of the four.
func BenchmarkWriterAppendDisk(b *testing.B) {
	benchAppend(b, b.TempDir(), 600, Options{})
}
