// Benchmarks for the detection service (internal/wire, internal/server):
// codec cost per event and ingestion throughput versus shard count. Run
// with:
//
//	go test -run NONE -bench 'BenchmarkWire|BenchmarkServerIngest' .
//
// BenchmarkServerIngest's events/sec metric is the service's headline
// number: how fast a daemon chews a fixed eight-stream load as workers
// are added. The bench-guard baseline records all three so CI notices a
// codec or router regression.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/frd"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/svd"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// recordColumns replays a workload and keeps its batches in columnar
// form at the VM's own ring boundaries.
func recordColumns(b *testing.B, name string, seed uint64) (*workloads.Workload, []*vm.EventBatch, int) {
	b.Helper()
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		b.Fatal(err)
	}
	m, err := w.NewVM(seed)
	if err != nil {
		b.Fatal(err)
	}
	var batches []*vm.EventBatch
	events := 0
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		cp := vm.NewEventBatch(eb.Len())
		cp.CopyFrom(eb)
		batches = append(batches, cp)
		events += eb.Len()
	}))
	if _, err := m.Run(1 << 24); err != nil {
		b.Fatal(err)
	}
	return w, batches, events
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// BenchmarkWireEncode measures the column codec's cost to frame one full
// execution (hello + every event batch).
func BenchmarkWireEncode(b *testing.B) {
	w, batches, events := recordColumns(b, "queue-buggy", 1)
	h := wire.Hello{Version: wire.Version, Threads: w.NumThreads, Workload: w.Name, Scale: 1, Seed: 1}
	var cw countWriter
	f := wire.NewFramer(&cw, w.NumThreads)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.WriteHello(h); err != nil {
			b.Fatal(err)
		}
		for _, eb := range batches {
			if err := f.WriteColumns(eb); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cw.n)/float64(int64(events)*int64(b.N)), "bytes/event")
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkWireDecodeColumns measures deframing the same execution
// back into event batches: ReadFrameInto into one reused batch,
// validation included, no row materialization.
func BenchmarkWireDecodeColumns(b *testing.B) {
	w, batches, events := recordColumns(b, "queue-buggy", 1)
	var buf bytes.Buffer
	f := wire.NewFramer(&buf, w.NumThreads)
	h := wire.Hello{Version: wire.Version, Threads: w.NumThreads, Workload: w.Name, Scale: 1, Seed: 1}
	if err := f.WriteHello(h); err != nil {
		b.Fatal(err)
	}
	for _, eb := range batches {
		if err := f.WriteColumns(eb); err != nil {
			b.Fatal(err)
		}
	}
	if err := f.WriteGoodbye(); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	eb := vm.NewEventBatch(vm.DefaultBatchCap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := wire.NewDeframer(bytes.NewReader(raw))
		decoded := 0
		for {
			fr, err := d.ReadFrameInto(eb)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			switch fr.Type {
			case wire.FrameHello:
				d.SetProgram(w.Prog, w.NumThreads)
			case wire.FrameEvents:
				decoded += eb.Len()
			}
		}
		if decoded != events {
			b.Fatalf("decoded %d events, want %d", decoded, events)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkServerIngest measures the sharded engine end to end: eight
// concurrent streams of a fixed workload replay, ingested through the
// direct stream API (the session layer's decode cost is BenchmarkWireDecodeColumns),
// each stream running both detectors on its owning shard. The fixed
// stream count keeps work per op constant across shard counts, so ns/op
// directly exposes the scaling: 4 shards must beat 1 shard by at least
// 2x (the acceptance floor recorded in BENCH_BASELINE.json).
func BenchmarkServerIngest(b *testing.B) {
	const streams = 8
	w, batches, events := recordColumns(b, "queue-buggy", 1)
	h := wire.Hello{Version: wire.Version, Threads: w.NumThreads, Workload: w.Name, Scale: 1, Seed: 1}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := server.New(server.Options{Shards: shards, QueueDepth: 256})
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := e.Shutdown(ctx); err != nil {
					b.Error(err)
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for s := 0; s < streams; s++ {
					st, err := e.OpenStream(h, "")
					if err != nil {
						b.Fatal(err)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						// The CopyFrom into a pooled buffer stands in for
						// the session's decode-into-buffer; ownership then
						// transfers to the shard exactly as in serveStream.
						for _, src := range batches {
							eb := st.GetBatch()
							eb.CopyFrom(src)
							st.IngestBatch(eb)
						}
						if _, err := st.Close(); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			total := float64(events) * streams * float64(b.N)
			if el := b.Elapsed().Seconds(); el > 0 {
				b.ReportMetric(total/el, "events/sec")
			}
		})
	}
}

// BenchmarkServerStream measures what a short stream costs the service
// beyond its events: each op opens one witness-on queue-fixed stream
// on a warm engine, replays its execution and closes it, so resolving
// the workload, building (or reusing) the detector pair, classifying
// and tearing down all land inside the op. Its allocs/op ceiling in
// BENCH_BASELINE.json is the host-independent guard on per-stream
// setup and garbage.
func BenchmarkServerStream(b *testing.B) {
	w, batches, events := recordColumns(b, "queue-fixed", 1)
	h := wire.Hello{Version: wire.Version, Threads: w.NumThreads, Workload: w.Name, Scale: 1, Seed: 1, Witness: true}
	e := server.New(server.Options{Shards: 1, QueueDepth: 24})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	serve := func() {
		st, err := e.OpenStream(h, "")
		if err != nil {
			b.Fatal(err)
		}
		for _, src := range batches {
			eb := st.GetBatch()
			eb.CopyFrom(src)
			st.IngestBatch(eb)
		}
		if _, err := st.Close(); err != nil {
			b.Error(err)
		}
	}
	serve() // warm the batch pool and whatever the engine keeps between streams
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	total := float64(events) * float64(b.N)
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(total/el, "events/sec")
	}
}

// BenchmarkServerIngestSteady measures the per-batch ingest hop with
// stream setup out of the loop: one long-lived stream, detector state
// and buffer pools warmed by a full replay, then b.N replays through
// GetBatch/IngestBatch. This is the allocation guard for the zero-copy
// path — in steady state the batch buffers circulate on the stream's
// recycle ring and the detectors run arena-backed, so allocs/op must
// stay at zero (ceiling recorded in BENCH_BASELINE.json).
func BenchmarkServerIngestSteady(b *testing.B) {
	w, batches, events := recordColumns(b, "queue-fixed", 1)
	h := wire.Hello{Version: wire.Version, Threads: w.NumThreads, Workload: w.Name, Scale: 1, Seed: 1}
	// Tight retention caps: replaying the same execution b.N times into
	// one detector pair would otherwise keep appending violation records
	// until the (64k) default caps — output retention, not ingest cost.
	// The warmup replay saturates these small caps, so the timed region
	// measures the ingest hop and detector stepping alone.
	// QueueDepth below the stream recycle ring's 32 slots: every buffer
	// the producer can have in flight fits on the ring, so steady state
	// never touches the shard sync.Pool (whose GC purges would read as
	// allocation churn here).
	e := server.New(server.Options{
		Shards: 1, QueueDepth: 24,
		SVD: svd.Options{MaxViolations: 256},
		FRD: frd.Options{MaxRaces: 256},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	st, err := e.OpenStream(h, "")
	if err != nil {
		b.Fatal(err)
	}
	replay := func() {
		for _, src := range batches {
			eb := st.GetBatch()
			eb.CopyFrom(src)
			st.IngestBatch(eb)
		}
	}
	replay() // warm detector state, ring, and pool
	// Drain the warmup before timing: a second stream's close job on
	// the same shard queues behind every warmup batch and blocks until
	// the worker has processed them all — otherwise the first-touch
	// allocations (block tables, per-block read epochs) land inside the
	// timed region and masquerade as steady-state cost.
	if drain, err := e.OpenStream(h, ""); err != nil {
		b.Fatal(err)
	} else if _, err := drain.Close(); err != nil {
		b.Error(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.StopTimer()
	if _, err := st.Close(); err != nil {
		b.Error(err)
	}
	total := float64(events) * float64(b.N)
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(total/el, "events/sec")
	}
}

// BenchmarkServerIngestLocality is the steady-state ingest hop under
// the synthetic Zipf stream (see zipfEvents): long same-thread runs on
// skew-hot blocks, served as columnar batches whose Blocks column
// matches the engine's shift. This is the configuration the locality
// work targets end to end — the decoder-filled block ids suppress the
// per-row shift in both detectors, sub-run coalescing retires most
// fan-outs, and the batch buffers circulate allocation-free on the
// stream's recycle ring (same zero allocs/op ceiling as Steady).
func BenchmarkServerIngestLocality(b *testing.B) {
	const threads = 8
	prog := zipfProgram()
	evs := zipfEvents(threads, 1<<17, 1)
	// Pre-chop at the VM ring granularity. NewEventBatch carries the
	// Blocks column at shift 0 — the engine default — so CopyFrom into
	// the pooled buffers preserves decoder-equivalent batches.
	var batches []*vm.EventBatch
	for lo := 0; lo < len(evs); lo += vm.DefaultBatchCap {
		hi := lo + vm.DefaultBatchCap
		if hi > len(evs) {
			hi = len(evs)
		}
		eb := vm.NewEventBatch(hi - lo)
		for i := lo; i < hi; i++ {
			eb.Append(&evs[i])
		}
		batches = append(batches, eb)
	}
	h := wire.Hello{Version: wire.Version, Threads: threads, Program: prog}
	// Same retention caps and queue sizing as BenchmarkServerIngestSteady,
	// and for the same reasons.
	e := server.New(server.Options{
		Shards: 1, QueueDepth: 24,
		SVD: svd.Options{MaxViolations: 256},
		FRD: frd.Options{MaxRaces: 256},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	st, err := e.OpenStream(h, "")
	if err != nil {
		b.Fatal(err)
	}
	replay := func() {
		for _, src := range batches {
			eb := st.GetBatch()
			eb.CopyFrom(src)
			st.IngestBatch(eb)
		}
	}
	replay() // warm detector state, ring, and pool
	if drain, err := e.OpenStream(h, ""); err != nil {
		b.Fatal(err)
	} else if _, err := drain.Close(); err != nil {
		b.Error(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.StopTimer()
	if _, err := st.Close(); err != nil {
		b.Error(err)
	}
	total := float64(len(evs)) * float64(b.N)
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(total/el, "events/sec")
	}
}

// BenchmarkServerIngestJournaled is BenchmarkServerIngestSteady with the
// durable journal on the hop: every batch's wire frame is appended to a
// file-backed journal (the svdd -journal write path — buffered copy,
// interval fsync) before IngestBatchJournaled hands it to the shard,
// which also pays the per-batch violation-count bracket that anchors
// journaled violations. The bench-guard baseline bounds the whole
// journaled hop relative to the steady benchmark and pins the same
// zero allocs/op ceiling: durability must come from buffer reuse, not
// allocation. The relative bound is 10%. Each op journals 68 Events
// frames, about 52 KB; the producer pays their checksum and the copy
// into the append buffer, and the write into the segment file runs on
// the flusher goroutine. See DESIGN.md §14.6.
func BenchmarkServerIngestJournaled(b *testing.B) {
	w, batches, events := recordColumns(b, "queue-fixed", 1)
	h := wire.Hello{Version: wire.Version, Threads: w.NumThreads, Workload: w.Name, Scale: 1, Seed: 1}
	// Pre-encode each batch to its wire frame once; the timed loop splits
	// header and payload views exactly as the session's RawFrame does.
	type encFrame struct {
		hdr, payload []byte
		first, last  uint64
	}
	var buf bytes.Buffer
	f := wire.NewFramer(&buf, w.NumThreads)
	frames := make([]encFrame, 0, len(batches))
	for _, eb := range batches {
		buf.Reset()
		if err := f.WriteColumns(eb); err != nil {
			b.Fatal(err)
		}
		enc := append([]byte(nil), buf.Bytes()...)
		frames = append(frames, encFrame{
			hdr: enc[:9], payload: enc[9:],
			first: eb.Seq[0], last: eb.Seq[eb.Len()-1],
		})
	}
	// Journal to tmpfs when the host has one: the guard bounds the ingest
	// path's CPU overhead (crc, copies, handoff), and on a disk-backed
	// temp dir the kernel's dirty-page throttling would bleed ext4
	// writeback bandwidth into the measurement instead.
	dir := b.TempDir()
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		d, err := os.MkdirTemp("/dev/shm", "svdbench-journal-")
		if err == nil {
			dir = d
			b.Cleanup(func() { os.RemoveAll(d) })
		}
	}
	prov, err := journal.OpenDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	// Production shape: segments rotate, retention compacts, and retired
	// files are recycled in place, which writes into already-allocated
	// pages instead of a fresh file's. Rotation's allocations (file
	// opens, renames) amortize to well under one per op across the ~640
	// ops each 32 MiB segment holds, so the zero allocs/op ceiling still
	// binds.
	jw, err := journal.OpenWriter(prov, journal.Options{
		SegmentBytes:   32 << 20,
		RetainSegments: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer jw.Close()
	e := server.New(server.Options{
		Shards: 1, QueueDepth: 24,
		Journal: jw,
		SVD:     svd.Options{MaxViolations: 256},
		FRD:     frd.Options{MaxRaces: 256},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	st, err := e.OpenStream(h, "")
	if err != nil {
		b.Fatal(err)
	}
	replay := func() {
		for i, src := range batches {
			fr := &frames[i]
			loc, err := jw.Append(journal.Meta{
				Kind: journal.KindEvents, Stream: st.ID(),
				FirstSeq: fr.first, LastSeq: fr.last,
			}, fr.hdr, fr.payload)
			if err != nil {
				b.Fatal(err)
			}
			eb := st.GetBatch()
			eb.CopyFrom(src)
			st.IngestBatchJournaled(eb, 0, loc)
		}
	}
	// Warm detector state, ring, pool, journal buffers — and the recycle
	// pool: keep replaying until rotation is reusing parked segment files,
	// so the timed region measures the steady rotation cycle (recycled,
	// page-warm files) rather than first-touch allocation of fresh ones.
	replay()
	for i := 0; jw.Stats().RecycledSegments < 2 && i < 400; i++ {
		replay()
	}
	if drain, err := e.OpenStream(h, ""); err != nil {
		b.Fatal(err)
	} else if _, err := drain.Close(); err != nil {
		b.Error(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.StopTimer()
	if _, err := st.Close(); err != nil {
		b.Error(err)
	}
	total := float64(events) * float64(b.N)
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(total/el, "events/sec")
	}
}

// BenchmarkServerIngestTelemetry is BenchmarkServerIngestSteady with the
// full observability cost switched on: Options.Telemetry (per-batch
// clocks, shard histogram fold) plus a send stamp on every batch (the
// wire-to-verdict observation a timestamps-negotiated stream incurs).
// The bench-guard baseline bounds it relative to the steady benchmark —
// telemetry must stay within a few percent of the untelemetered path —
// and pins the same zero allocs/op ceiling, so the instrumentation can
// never buy observability with allocation.
func BenchmarkServerIngestTelemetry(b *testing.B) {
	w, batches, events := recordColumns(b, "queue-fixed", 1)
	h := wire.Hello{Version: wire.Version, Threads: w.NumThreads, Workload: w.Name, Scale: 1, Seed: 1}
	e := server.New(server.Options{
		Shards: 1, QueueDepth: 24,
		Telemetry: true,
		SVD:       svd.Options{MaxViolations: 256},
		FRD:       frd.Options{MaxRaces: 256},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	st, err := e.OpenStream(h, "")
	if err != nil {
		b.Fatal(err)
	}
	replay := func() {
		for _, src := range batches {
			eb := st.GetBatch()
			eb.CopyFrom(src)
			st.IngestBatchAt(eb, uint64(time.Now().UnixNano()))
		}
	}
	replay() // warm detector state, ring, pool, and histograms
	if drain, err := e.OpenStream(h, ""); err != nil {
		b.Fatal(err)
	} else if _, err := drain.Close(); err != nil {
		b.Error(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.StopTimer()
	if _, err := st.Close(); err != nil {
		b.Error(err)
	}
	total := float64(events) * float64(b.N)
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(total/el, "events/sec")
	}
}
