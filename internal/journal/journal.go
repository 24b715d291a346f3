// Package journal is the detection service's durable event store: a
// segmented, append-only record of every wire frame the daemon ingested,
// written on the hot path without allocation and readable later for
// replay, verification, and offline re-detection.
//
// The paper's offline three-pass algorithm (Figures 5-6, internal/offline)
// presupposes a persisted trace of the execution under analysis; the
// online service (internal/server) used to be fire-and-forget, so once a
// batch left the SPSC recycle ring the evidence was gone. The journal
// closes that gap: frames are stored as the raw wire bytes the deframer
// already validated, so a journaled stream replays through the same
// decoder that served it and is bit-identical by construction.
//
// # Format
//
// A journal is a directory (or any Provider namespace) of segments:
//
//	seg-%016x.svdj       records, append-only
//	recycle-%04d.svdj    a retired segment file parked for reuse
//
// Each segment opens with a 16-byte header:
//
//	[4] magic "SVDJ"
//	[2] format version (little-endian)
//	[2] reserved
//	[8] created wall clock (unix nanoseconds, little-endian)
//
// followed by records:
//
//	[4] crc32c over the remaining header and payload
//	[4] payload length n (little-endian)
//	[1] kind
//	[8] stream id
//	[8] first event sequence number
//	[8] last event sequence number
//	[n] payload
//
// The CRC makes every record self-validating: a torn tail (power cut,
// SIGKILL mid-write) fails the checksum and recovery truncates the
// segment at the last whole record. The same forward scan is the only
// index: recovery and OpenReader walk each segment once and hold one
// entry per record — (stream, seq-range, offset) — in memory.
//
// # Lifecycle
//
// OpenWriter recovers the directory (truncating torn tails, removing
// segments with no whole record) and starts a fresh active segment.
// Append buffers records and flushes in large writes; fsync runs on a
// wall-clock interval so the loss window is bounded without putting a
// disk flush on every batch. Segments rotate by size or age; rotation
// seals the finished segment (trim, fsync, close) and applies
// retention, parking or deleting the oldest sealed segments beyond the
// configured count or byte budget. Every namespace change (create,
// rename, remove) is followed by a directory sync before the call that
// made it returns.
package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Kind discriminates record payloads.
type Kind byte

const (
	// KindHello is a stream's raw Hello frame, journaled first.
	KindHello Kind = iota + 1

	// KindEvents is one raw Events frame (column-coded batch, send stamp
	// included when the stream negotiated timestamps).
	KindEvents

	// KindGoodbye is the stream's raw Goodbye frame.
	KindGoodbye

	// KindResult is the serve-side detection report JSON — exactly the
	// bytes the daemon put in the Result frame, so a replay verifies
	// against it byte for byte.
	KindResult

	// KindError is a terminal stream error string (overload, abort).
	KindError
)

// String names the kind for logs and tools.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindEvents:
		return "events"
	case KindGoodbye:
		return "goodbye"
	case KindResult:
		return "result"
	case KindError:
		return "error"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

const (
	segMagic = "SVDJ"
	// segVersion 2 seeds record CRCs with the segment's identity (id +
	// creation stamp) so recycled segment files — overwritten in place,
	// old bytes surviving past the new tail — can never resurrect a
	// record from a previous life through a torn-tail scan. Version 1
	// journals (unseeded CRCs) are not readable by this build.
	segVersion    = 2
	segHeaderSize = 16
	recHeaderSize = 33

	// MaxRecordPayload bounds one record. Wire ingest frames are capped
	// at 4 MiB and result JSON at 64 MiB (internal/wire); the journal
	// cap leaves room for either plus framing, and bounds what a corrupt
	// length field can make a scanner allocate.
	MaxRecordPayload = 96 << 20

	segSuffix = ".svdj"
)

// DefaultSegmentBytes rotates segments at 64 MiB.
const DefaultSegmentBytes = 64 << 20

// DefaultFsyncInterval bounds the unsynced window to 100ms.
const DefaultFsyncInterval = 100 * time.Millisecond

// DefaultRecycleSegments parks up to two retired segment files for
// reuse by rotation.
const DefaultRecycleSegments = 2

// defaultBufBytes is the append buffer: records accumulate here and hit
// the provider in large sequential writes.
const defaultBufBytes = 256 << 10

// scanBufBytes is the segment scan's read buffer.
const scanBufBytes = 64 << 10

// crcTable is Castagnoli, the polynomial with hardware support on both
// amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segSeed is the per-segment CRC seed: record checksums start from it
// rather than zero, binding every record to the segment incarnation
// (id + creation stamp) it was written into. A recycled file's stale
// records were checksummed under a different seed, so a recovery or
// reader scan rejects them at the first record past the torn point.
func segSeed(id uint64, created int64) uint32 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], id)
	binary.LittleEndian.PutUint64(b[8:16], uint64(created))
	return crc32.Checksum(b[:], crcTable)
}

// Loc addresses one record: the anchor the engine hands to forensics.
type Loc struct {
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
}

// Meta is a record's identity: everything in the header but the CRC and
// length.
type Meta struct {
	Kind     Kind
	Stream   uint64
	FirstSeq uint64
	LastSeq  uint64
}

// IndexEntry locates one record inside a segment.
type IndexEntry struct {
	Stream   uint64
	Kind     Kind
	Offset   int64
	Len      int64 // whole record, header included
	FirstSeq uint64
	LastSeq  uint64
}

func segName(id uint64) string { return fmt.Sprintf("seg-%016x%s", id, segSuffix) }

// isLeftoverIndex reports a JSON index sidecar (seg-%016x.idx) that
// older builds wrote next to each sealed segment. This build indexes by
// scanning, so OpenWriter removes them; retention would never reach
// them otherwise.
func isLeftoverIndex(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".idx")
}

// recycleName names a retired segment file parked for reuse. The prefix
// keeps it out of parseSegName's namespace, so readers and recovery
// never mistake a parked file for a live segment.
func recycleName(n uint64) string { return fmt.Sprintf("recycle-%04d%s", n, segSuffix) }

// parseRecycleName extracts the counter from a parked file's name.
func parseRecycleName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "recycle-") || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	dec := strings.TrimSuffix(strings.TrimPrefix(name, "recycle-"), segSuffix)
	n, err := strconv.ParseUint(dec, 10, 64)
	return n, err == nil
}

// parseSegName extracts the id from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), segSuffix)
	id, err := strconv.ParseUint(hex, 16, 64)
	return id, err == nil
}

// CompactionResult records the outcome of the most recent retention
// pass, for /statusz.
type CompactionResult struct {
	UnixNano int64  `json:"unix_nano"`
	Removed  int    `json:"removed"`
	Err      string `json:"err,omitempty"`
}

// RecoveryInfo reports what OpenWriter had to repair.
type RecoveryInfo struct {
	Segments        int   `json:"segments"`         // segments found on open
	Repaired        int   `json:"repaired"`         // segments whose torn tail was truncated
	TruncatedBytes  int64 `json:"truncated_bytes"`  // torn-tail bytes cut
	RemovedSegments int   `json:"removed_segments"` // unreadable or empty segments deleted
}

// Stats is the journal's observability snapshot, feeding the /metrics
// families and the /statusz panel.
type Stats struct {
	Dir             string `json:"dir"`
	Segments        int    `json:"segments"` // sealed + active
	ActiveSegment   uint64 `json:"active_segment"`
	ActiveBytes     int64  `json:"active_bytes"`
	TotalBytes      int64  `json:"total_bytes"`
	AppendedRecords uint64 `json:"appended_records"`
	AppendedBytes   uint64 `json:"appended_bytes"`
	Rotations       uint64 `json:"rotations"`

	// RecycledSegments counts rotations that reused a parked segment
	// file (already-allocated pages) instead of creating a fresh one.
	RecycledSegments uint64 `json:"recycled_segments"`

	AppendErrors uint64 `json:"append_errors"`

	// OldestUnixNano is the oldest retained segment's creation stamp,
	// NewestUnixNano the wall clock of the most recent append.
	OldestUnixNano int64 `json:"oldest_unix_nano"`
	NewestUnixNano int64 `json:"newest_unix_nano"`

	// FsyncNs distributes the Sync() calls the writer issued.
	FsyncNs obs.Histogram `json:"fsync_ns"`

	LastCompaction CompactionResult `json:"last_compaction"`
	Recovery       RecoveryInfo     `json:"recovery"`
}

// Options tune a Writer.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this size.
	// <= 0 means DefaultSegmentBytes.
	SegmentBytes int64

	// SegmentAge rotates the active segment once it has been open this
	// long, so a quiet journal still seals segments for retention to
	// work on. 0 disables age rotation.
	SegmentAge time.Duration

	// RetainSegments caps the sealed segments kept; rotation deletes the
	// oldest beyond it. 0 keeps everything.
	RetainSegments int

	// RetainBytes caps the total bytes across sealed segments. 0 keeps
	// everything.
	RetainBytes int64

	// RecycleSegments caps how many retired segment files rotation parks
	// for reuse instead of deleting. Overwriting a parked file's
	// allocated blocks is cheaper than growing a fresh file, at the
	// price of holding that many segments of disk past retention. 0
	// means DefaultRecycleSegments; < 0 disables recycling.
	RecycleSegments int

	// FsyncInterval bounds the unsynced window: a background ticker
	// flushes and fsyncs the active segment at this cadence, keeping the
	// disk wait off the append path. 0 means DefaultFsyncInterval; < 0
	// syncs inline on every append (maximum durability, test crash
	// simulation).
	FsyncInterval time.Duration

	// Now is the wall clock, swappable for tests. nil means time.Now.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FsyncInterval == 0 {
		o.FsyncInterval = DefaultFsyncInterval
	}
	if o.RecycleSegments == 0 {
		o.RecycleSegments = DefaultRecycleSegments
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// flushReq is one unit of work for flushLoop: a full buffer to write to
// the segment file it was appended against, a barrier (reply non-nil)
// that surfaces the flusher's sticky write error, or both.
type flushReq struct {
	f     WriteFile
	seg   uint64
	buf   []byte
	reply chan<- error
}

// sealedSeg is the writer's bookkeeping for one sealed segment.
type sealedSeg struct {
	id      uint64
	size    int64
	created int64
}

// Writer appends records to a segmented journal. Safe for concurrent
// use; the engine's sessions share one.
type Writer struct {
	p    Provider
	opts Options

	mu      sync.Mutex
	f       WriteFile // active segment
	segID   uint64
	seed    uint32 // segSeed of the active segment; records CRC from it
	off     int64  // next record offset in the active segment
	buf     []byte
	created int64 // active segment creation stamp
	// recycled marks an active segment that overwrites a parked file:
	// the file's old bytes past off survive until the seal trims them.
	recycled bool
	sealed   []sealedSeg
	closed   bool

	// freelist holds parked segment files awaiting reuse; nextRecycle
	// numbers new parks so names stay unique across restarts.
	freelist    []string
	nextRecycle uint64
	werr        error // sticky write error; appends fail fast after it

	// rec is Append's header scratch. A stack array would escape — the
	// crc32.Update calls defeat escape analysis — costing one heap
	// allocation per append on the zero-alloc ingest path.
	rec [recHeaderSize]byte

	// syncStop/syncDone bracket the background fsync ticker that bounds
	// the unsynced window when FsyncInterval > 0. Running the fsync off
	// the append path matters: an ext4 fsync is milliseconds, and paying
	// it inline would stall ingest (and the session behind it) every
	// interval. Nil when FsyncInterval < 0 (every append syncs inline).
	syncStop chan struct{}
	syncDone chan struct{}

	// Async flush pipeline, enabled alongside the sync ticker when
	// FsyncInterval > 0: full append buffers are handed to flushLoop so
	// the producer never pays the page-cache copy of a 256 KiB write
	// syscall on the ingest path. Three buffers circulate — one active,
	// one queued on flushCh, one in the flusher's hands or parked on
	// flushRet — so steady state never allocates. drainReply is the
	// reusable barrier channel (all drains hold w.mu, so one suffices).
	// Nil in inline-sync mode (FsyncInterval < 0), where flushes stay
	// synchronous and errors surface directly from Append.
	flushCh    chan flushReq
	flushRet   chan []byte
	flushDone  chan struct{}
	drainReply chan error

	streamBase uint64
	recovery   RecoveryInfo

	stats struct {
		appendedRecords uint64
		appendedBytes   uint64
		rotations       uint64
		recycled        uint64
		appendErrors    uint64
		newestUnixNano  int64
		fsyncNs         obs.Histogram
		lastCompaction  CompactionResult
	}
}

// OpenWriter opens (and if necessary repairs) the journal behind p and
// starts a fresh active segment. Every segment is scanned and torn
// tails truncated, so the directory is always in a clean state before
// new records land.
func OpenWriter(p Provider, opts Options) (*Writer, error) {
	w := &Writer{p: p, opts: opts.withDefaults()}
	names, err := p.List()
	if err != nil {
		return nil, fmt.Errorf("journal: list: %w", err)
	}
	var ids []uint64
	for _, n := range names {
		if id, ok := parseSegName(n); ok {
			ids = append(ids, id)
		} else if k, ok := parseRecycleName(n); ok {
			// A parked file from the previous process: adopt it so its
			// allocated blocks keep paying off across restarts.
			w.freelist = append(w.freelist, n)
			if k >= w.nextRecycle {
				w.nextRecycle = k + 1
			}
		} else if isLeftoverIndex(n) {
			if err := p.Remove(n); err != nil {
				return nil, fmt.Errorf("journal: remove leftover index %s: %w", n, err)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.recovery.Segments = len(ids)

	next := uint64(0)
	for _, id := range ids {
		if id >= next {
			next = id + 1
		}
		seg, err := w.recoverSegment(id)
		if err != nil {
			return nil, err
		}
		if seg != nil {
			w.sealed = append(w.sealed, *seg)
		}
	}
	w.segID = next
	if err := w.openActive(); err != nil {
		return nil, err
	}
	if err := p.SyncDir(); err != nil {
		return nil, fmt.Errorf("journal: sync dir: %w", err)
	}
	if w.opts.FsyncInterval > 0 {
		w.flushCh = make(chan flushReq, 1)
		w.flushRet = make(chan []byte, 2)
		w.flushDone = make(chan struct{})
		w.drainReply = make(chan error, 1)
		w.flushRet <- make([]byte, 0, defaultBufBytes)
		w.flushRet <- make([]byte, 0, defaultBufBytes)
		go w.flushLoop()
		w.syncStop = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop(w.syncStop)
	}
	return w, nil
}

// flushLoop is the async flush sink. It owns every buffer in flight,
// writes each to the segment file it was appended against, and recycles
// it on flushRet. It deliberately never takes w.mu, so barrier drains
// issued under the lock always make progress. A write error is held
// locally and surfaced through the next barrier; buffers after a failure
// are dropped unwritten, mirroring the sticky-werr fail-fast of the
// synchronous path.
func (w *Writer) flushLoop() {
	defer close(w.flushDone)
	var err error
	for req := range w.flushCh {
		if req.buf != nil {
			if err == nil {
				if _, e := req.f.Write(req.buf); e != nil {
					err = fmt.Errorf("journal: write segment %d: %w", req.seg, e)
				}
			}
			w.flushRet <- req.buf
		}
		if req.reply != nil {
			req.reply <- err
		}
	}
}

// syncLoop is the background fsync ticker: every FsyncInterval it
// flushes and syncs the active segment, so the window of appended but
// undurable bytes stays bounded without the append path ever waiting
// on the disk.
// stop is passed in rather than read off the struct: Close nils the
// field to claim shutdown, and a select on the nilled field would
// block forever.
func (w *Writer) syncLoop(stop <-chan struct{}) {
	defer close(w.syncDone)
	t := time.NewTicker(w.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// Flush under the lock, fsync outside it: an ext4 fsync is
			// milliseconds, and holding the lock across it would stall
			// every Append for the duration — the exact producer hiccup
			// this goroutine exists to avoid. os.File serializes a
			// concurrent Write/Close internally, so the worst cases are
			// benign: bytes appended after the flush get synced early,
			// or a rotation closes the file mid-sync and the error is
			// discarded below because the segment moved on.
			w.mu.Lock()
			if w.closed || w.werr != nil ||
				w.flushLocked() != nil || w.drainFlushLocked() != nil {
				w.mu.Unlock()
				continue
			}
			f, seg := w.f, w.segID
			w.mu.Unlock()
			t0 := w.opts.Now()
			err := f.Sync()
			d := w.opts.Now().Sub(t0)
			w.mu.Lock()
			switch {
			case err != nil:
				// Only a failure on the still-active segment is real; a
				// rotation or Close snatching the file out from under the
				// sync is expected.
				if seg == w.segID && !w.closed && w.werr == nil {
					w.werr = fmt.Errorf("journal: sync segment %d: %w", seg, err)
					w.stats.appendErrors++
				}
			case d > 0:
				w.stats.fsyncNs.Observe(uint64(d))
			default:
				w.stats.fsyncNs.Observe(0)
			}
			w.mu.Unlock()
		}
	}
}

// recoverSegment brings one pre-existing segment to sealed state: it is
// scanned and truncated at the first bad record. Returns nil when the
// segment was empty or unreadable and has been removed.
func (w *Writer) recoverSegment(id uint64) (*sealedSeg, error) {
	f, err := w.p.Open(segName(id))
	if err != nil {
		return nil, fmt.Errorf("journal: recover %s: %w", segName(id), err)
	}
	sc, scanErr := scanSegment(f, id)
	f.Close()
	if scanErr != nil {
		// Header unreadable: nothing in this segment is trustworthy.
		w.recovery.RemovedSegments++
		if err := w.p.Remove(segName(id)); err != nil {
			return nil, fmt.Errorf("journal: remove unreadable %s: %w", segName(id), err)
		}
		return nil, nil
	}
	if size, err := w.p.Size(segName(id)); err == nil && size > sc.goodBytes {
		w.recovery.Repaired++
		w.recovery.TruncatedBytes += size - sc.goodBytes
		if err := w.p.Truncate(segName(id), sc.goodBytes); err != nil {
			return nil, fmt.Errorf("journal: truncate %s: %w", segName(id), err)
		}
	}
	if len(sc.entries) == 0 {
		// Nothing but a header survived; drop the segment.
		w.recovery.RemovedSegments++
		if err := w.p.Remove(segName(id)); err != nil {
			return nil, fmt.Errorf("journal: remove empty %s: %w", segName(id), err)
		}
		return nil, nil
	}
	for _, e := range sc.entries {
		if e.Stream >= w.streamBase {
			w.streamBase = e.Stream + 1
		}
	}
	return &sealedSeg{id: id, size: sc.goodBytes, created: sc.created}, nil
}

// openActive opens the next active segment and writes its header,
// reusing a parked file when one is available. A parked file keeps its
// old bytes — the header overwrite and in-place record writes leave a
// stale tail — which is safe because the new incarnation's CRC seed
// (fresh id + creation stamp) makes every stale record fail the scan.
func (w *Writer) openActive() error {
	name := segName(w.segID)
	var f WriteFile
	w.recycled = false
	if n := len(w.freelist); n > 0 {
		parked := w.freelist[n-1]
		w.freelist = w.freelist[:n-1]
		if w.p.Rename(parked, name) == nil {
			if rf, err := w.p.Recycle(name); err == nil {
				f = rf
				w.recycled = true
				w.stats.recycled++
			}
		}
		// Any failure falls through to Create, which truncates whatever
		// half-renamed state the provider was left in.
	}
	if f == nil {
		var err error
		f, err = w.p.Create(name)
		if err != nil {
			return fmt.Errorf("journal: create segment: %w", err)
		}
	}
	now := w.opts.Now().UnixNano()
	var hdr [segHeaderSize]byte
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(now))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("journal: segment header: %w", err)
	}
	w.f = f
	w.off = segHeaderSize
	w.created = now
	w.seed = segSeed(w.segID, now)
	if w.buf == nil {
		w.buf = make([]byte, 0, defaultBufBytes)
	} else {
		w.buf = w.buf[:0]
	}
	return nil
}

// StreamBase is one past the highest stream id recovery saw in existing
// segments: the engine starts numbering there so stream ids stay unique
// across daemon restarts sharing one journal.
func (w *Writer) StreamBase() uint64 { return w.streamBase }

// Recovery reports what OpenWriter repaired.
func (w *Writer) Recovery() RecoveryInfo { return w.recovery }

// Append writes one record whose payload is the concatenation of hdr
// and payload (either may be nil) and returns its location. The split
// exists so the session can journal a wire frame straight from the
// deframer's header and payload buffers without gluing them first.
func (w *Writer) Append(m Meta, hdr, payload []byte) (Loc, error) {
	n := len(hdr) + len(payload)
	if n > MaxRecordPayload {
		return Loc{}, fmt.Errorf("journal: record of %d bytes exceeds cap", n)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return Loc{}, fmt.Errorf("journal: append after close")
	}
	if w.werr != nil {
		w.stats.appendErrors++
		return Loc{}, w.werr
	}

	loc := Loc{Segment: w.segID, Offset: w.off}
	rec := w.rec[:]
	binary.LittleEndian.PutUint32(rec[4:8], uint32(n))
	rec[8] = byte(m.Kind)
	binary.LittleEndian.PutUint64(rec[9:17], m.Stream)
	binary.LittleEndian.PutUint64(rec[17:25], m.FirstSeq)
	binary.LittleEndian.PutUint64(rec[25:33], m.LastSeq)
	crc := crc32.Update(w.seed, crcTable, rec[4:])
	crc = crc32.Update(crc, crcTable, hdr)
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(rec[0:4], crc)

	w.buf = append(w.buf, rec...)
	w.buf = append(w.buf, hdr...)
	w.buf = append(w.buf, payload...)
	recLen := int64(recHeaderSize + n)
	w.off += recLen
	w.stats.appendedRecords++
	w.stats.appendedBytes += uint64(recLen)

	now := w.opts.Now()
	w.stats.newestUnixNano = now.UnixNano()
	if len(w.buf) >= defaultBufBytes {
		if err := w.flushLocked(); err != nil {
			return loc, err
		}
	}
	if w.opts.FsyncInterval < 0 {
		if err := w.syncLocked(); err != nil {
			return loc, err
		}
	}
	if w.off >= w.opts.SegmentBytes ||
		(w.opts.SegmentAge > 0 && now.UnixNano()-w.created >= int64(w.opts.SegmentAge)) {
		if err := w.rotateLocked(now); err != nil {
			return loc, err
		}
	}
	return loc, nil
}

// flushLocked pushes the append buffer toward the provider. In async
// mode the full buffer is handed to flushLoop and a recycled one swapped
// in — the actual write happens off the append path, and any error
// surfaces at the next drain (sync tick, rotation, or Close) rather
// than here. In inline mode the write happens synchronously.
func (w *Writer) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	if w.flushCh != nil {
		w.flushCh <- flushReq{f: w.f, seg: w.segID, buf: w.buf}
		w.buf = (<-w.flushRet)[:0]
		return nil
	}
	if _, err := w.f.Write(w.buf); err != nil {
		w.werr = fmt.Errorf("journal: write segment %d: %w", w.segID, err)
		w.stats.appendErrors++
		return w.werr
	}
	w.buf = w.buf[:0]
	return nil
}

// drainFlushLocked barriers the async flusher: when it returns, every
// buffer handed off before the call has been written (or dropped after a
// failure, now folded into w.werr). Callers hold w.mu; flushLoop never
// takes it, so the barrier cannot deadlock. No-op in inline mode.
func (w *Writer) drainFlushLocked() error {
	if w.flushCh == nil {
		return w.werr
	}
	w.flushCh <- flushReq{reply: w.drainReply}
	if err := <-w.drainReply; err != nil && w.werr == nil {
		w.werr = err
		w.stats.appendErrors++
	}
	return w.werr
}

// syncLocked flushes, drains, and fsyncs the active segment, timing the
// sync.
func (w *Writer) syncLocked() error {
	if err := w.flushLocked(); err != nil {
		return err
	}
	if err := w.drainFlushLocked(); err != nil {
		return err
	}
	t0 := w.opts.Now()
	if err := w.f.Sync(); err != nil {
		w.werr = fmt.Errorf("journal: sync segment %d: %w", w.segID, err)
		w.stats.appendErrors++
		return w.werr
	}
	if d := w.opts.Now().Sub(t0); d > 0 {
		w.stats.fsyncNs.Observe(uint64(d))
	} else {
		w.stats.fsyncNs.Observe(0)
	}
	return nil
}

// Sync forces a flush + fsync — the daemon calls it on shutdown paths
// that bypass Close.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.syncLocked()
}

// rotateLocked seals the active segment and opens the next one, then
// applies retention to the sealed set. The directory sync at the end
// makes the rotation's namespace changes — the new segment's create or
// unpark rename, retention's park renames and removes — durable before
// the Append that rotated returns.
func (w *Writer) rotateLocked(now time.Time) error {
	if err := w.sealActiveLocked(); err != nil {
		return err
	}
	w.stats.rotations++
	w.segID++
	if err := w.openActive(); err != nil {
		w.werr = err
		return err
	}
	w.compactLocked(now)
	if err := w.p.SyncDir(); err != nil {
		w.werr = fmt.Errorf("journal: sync dir: %w", err)
		w.stats.appendErrors++
		return w.werr
	}
	return nil
}

// sealActiveLocked writes the active segment through, fsyncs and closes
// it. A recycled file is first trimmed to w.off: nothing else records
// where its records end, and the previous incarnation's bytes past them
// would scan as a torn tail on the next open. The trim precedes the
// fsync, so the cut is as durable as the records.
func (w *Writer) sealActiveLocked() error {
	if w.recycled {
		if err := w.flushLocked(); err != nil {
			return err
		}
		if err := w.drainFlushLocked(); err != nil {
			return err
		}
		if err := w.p.Truncate(segName(w.segID), w.off); err != nil {
			w.werr = fmt.Errorf("journal: trim segment %d: %w", w.segID, err)
			w.stats.appendErrors++
			return w.werr
		}
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		w.werr = fmt.Errorf("journal: close segment %d: %w", w.segID, err)
		return w.werr
	}
	w.sealed = append(w.sealed, sealedSeg{id: w.segID, size: w.off, created: w.created})
	return nil
}

// compactLocked applies retention: sealed segments beyond the count or
// byte budget are removed, oldest first. The active segment never
// compacts.
func (w *Writer) compactLocked(now time.Time) {
	over := func() bool {
		if w.opts.RetainSegments > 0 && len(w.sealed) > w.opts.RetainSegments {
			return true
		}
		if w.opts.RetainBytes > 0 {
			var total int64
			for _, s := range w.sealed {
				total += s.size
			}
			return total > w.opts.RetainBytes
		}
		return false
	}
	if w.opts.RetainSegments <= 0 && w.opts.RetainBytes <= 0 {
		return
	}
	res := CompactionResult{UnixNano: now.UnixNano()}
	for over() {
		victim := w.sealed[0]
		if err := w.retireLocked(victim.id); err != nil {
			res.Err = err.Error()
			break
		}
		w.sealed = w.sealed[1:]
		res.Removed++
	}
	w.stats.lastCompaction = res
}

// retireLocked disposes of a compacted segment: parked for reuse while
// the freelist has room, deleted otherwise.
func (w *Writer) retireLocked(id uint64) error {
	if w.opts.RecycleSegments > 0 && len(w.freelist) < w.opts.RecycleSegments {
		name := recycleName(w.nextRecycle)
		if err := w.p.Rename(segName(id), name); err == nil {
			w.nextRecycle++
			w.freelist = append(w.freelist, name)
			return nil
		}
		// Rename failed; fall through and try plain removal.
	}
	return w.p.Remove(segName(id))
}

// Close flushes, seals the active segment, and closes the journal. An
// active segment with no records is deleted rather than sealed.
func (w *Writer) Close() error {
	// Claim the syncer under the lock so concurrent Closes race safely,
	// but join it outside: it may be mid-fsync holding the lock itself.
	w.mu.Lock()
	stop := w.syncStop
	w.syncStop = nil
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-w.syncDone
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.flushLocked()
	if err == nil {
		err = w.drainFlushLocked()
	}
	// The drain emptied the flusher (or died trying); stop it before
	// touching the file again so no write can land after the seal.
	// flushLoop never takes w.mu, so joining it under the lock is safe.
	if w.flushCh != nil {
		close(w.flushCh)
		<-w.flushDone
		w.flushCh = nil
	}
	if err != nil {
		w.f.Close()
		return err
	}
	if w.off == segHeaderSize {
		w.f.Close()
		if err := w.p.Remove(segName(w.segID)); err != nil {
			return err
		}
		return w.p.SyncDir()
	}
	return w.sealActiveLocked()
}

// Stats snapshots the journal for /metrics and /statusz.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := Stats{
		Dir:              w.p.Name(),
		ActiveSegment:    w.segID,
		ActiveBytes:      w.off,
		AppendedRecords:  w.stats.appendedRecords,
		AppendedBytes:    w.stats.appendedBytes,
		Rotations:        w.stats.rotations,
		RecycledSegments: w.stats.recycled,
		AppendErrors:     w.stats.appendErrors,
		NewestUnixNano:   w.stats.newestUnixNano,
		FsyncNs:          w.stats.fsyncNs,
		LastCompaction:   w.stats.lastCompaction,
		Recovery:         w.recovery,
	}
	st.Segments = len(w.sealed)
	st.TotalBytes = w.off
	for _, s := range w.sealed {
		st.TotalBytes += s.size
	}
	st.OldestUnixNano = w.created
	if len(w.sealed) > 0 {
		st.OldestUnixNano = w.sealed[0].created
	}
	if !w.closed {
		st.Segments++ // the active segment
	}
	return st
}

// --- shared segment scanning ---

// scanResult is what a sequential segment scan recovers.
type scanResult struct {
	created   int64
	entries   []IndexEntry
	goodBytes int64 // offset of the first byte past the last whole record
	torn      bool  // the scan stopped at a bad or truncated record
}

// scanSegment walks the segment with id from the start, validating
// every record's seeded CRC, and stops at the first torn or corrupt
// one. It returns an error only when the segment header itself is
// unreadable — in every other case the good prefix is usable and
// goodBytes says where it ends. The id feeds the CRC seed: records from
// a recycled file's previous incarnation (different id or creation
// stamp) fail here, which is what keeps stale tails from resurrecting.
func scanSegment(src io.Reader, id uint64) (scanResult, error) {
	// Buffered: reading a file record by record would cost two read
	// syscalls per record, and small records make that the scan's cost.
	r := bufio.NewReaderSize(src, scanBufBytes)
	var sc scanResult
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return sc, fmt.Errorf("journal: segment header: %w", err)
	}
	if string(hdr[:4]) != segMagic {
		return sc, fmt.Errorf("journal: bad segment magic % x", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != segVersion {
		return sc, fmt.Errorf("journal: segment version %d, this build reads %d", v, segVersion)
	}
	sc.created = int64(binary.LittleEndian.Uint64(hdr[8:16]))
	sc.goodBytes = segHeaderSize
	seed := segSeed(id, sc.created)

	var rec [recHeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			if err != io.EOF {
				sc.torn = true
			}
			return sc, nil
		}
		n := binary.LittleEndian.Uint32(rec[4:8])
		if int64(n) > MaxRecordPayload {
			sc.torn = true
			return sc, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			sc.torn = true
			return sc, nil
		}
		crc := crc32.Update(seed, crcTable, rec[4:])
		crc = crc32.Update(crc, crcTable, payload)
		if crc != binary.LittleEndian.Uint32(rec[0:4]) {
			sc.torn = true
			return sc, nil
		}
		recLen := int64(recHeaderSize) + int64(n)
		sc.entries = append(sc.entries, IndexEntry{
			Stream:   binary.LittleEndian.Uint64(rec[9:17]),
			Kind:     Kind(rec[8]),
			Offset:   sc.goodBytes,
			Len:      recLen,
			FirstSeq: binary.LittleEndian.Uint64(rec[17:25]),
			LastSeq:  binary.LittleEndian.Uint64(rec[25:33]),
		})
		sc.goodBytes += recLen
	}
}
