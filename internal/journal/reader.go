package journal

import (
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// SegmentInfo describes one segment to tools and /statusz.
type SegmentInfo struct {
	ID              uint64 `json:"id"`
	Size            int64  `json:"size"` // bytes up to the end of the last whole record
	Records         int    `json:"records"`
	CreatedUnixNano int64  `json:"created_unix_nano"`
	Torn            bool   `json:"torn,omitempty"` // scan stopped at a damaged tail
}

// StreamInfo aggregates one stream's records across segments.
type StreamInfo struct {
	Stream     uint64 `json:"stream"`
	Records    int    `json:"records"`
	Events     int    `json:"event_frames"`
	FirstSeq   uint64 `json:"first_seq"`
	LastSeq    uint64 `json:"last_seq"`
	HasHello   bool   `json:"has_hello"`
	HasGoodbye bool   `json:"has_goodbye"`
	HasResult  bool   `json:"has_result"`
	HasError   bool   `json:"has_error"`
}

// readerSeg is one segment as the reader sees it.
type readerSeg struct {
	info    SegmentInfo
	entries []IndexEntry
	seed    uint32   // segSeed(id, created) — the record CRC seed
	f       ReadFile // opened lazily, held until Close
}

// Reader opens a journal for replay. It is not safe for concurrent use;
// replay tools are single-threaded.
type Reader struct {
	p    Provider
	segs []readerSeg
	// bySeg maps segment id to its index in segs for anchor seeks.
	bySeg map[uint64]int
}

// OpenReader builds every segment's index by scanning it and returns a
// Reader positioned over the whole journal. Damaged tails are
// tolerated: the good prefix of every segment is served.
func OpenReader(p Provider) (*Reader, error) {
	names, err := p.List()
	if err != nil {
		return nil, fmt.Errorf("journal: list: %w", err)
	}
	var ids []uint64
	for _, n := range names {
		if id, ok := parseSegName(n); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	r := &Reader{p: p, bySeg: make(map[uint64]int, len(ids))}
	for _, id := range ids {
		seg, err := loadSegment(p, id)
		if err != nil {
			return nil, err
		}
		if seg == nil {
			continue // unreadable header: skip, as recovery would remove it
		}
		r.bySeg[id] = len(r.segs)
		r.segs = append(r.segs, *seg)
	}
	return r, nil
}

// loadSegment scans one segment into its in-memory index. Returns nil
// (no error) when the segment header itself is unreadable.
func loadSegment(p Provider, id uint64) (*readerSeg, error) {
	f, err := p.Open(segName(id))
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", segName(id), err)
	}
	sc, scanErr := scanSegment(f, id)
	f.Close()
	if scanErr != nil {
		return nil, nil
	}
	return &readerSeg{
		info: SegmentInfo{
			ID: id, Size: sc.goodBytes, Records: len(sc.entries),
			CreatedUnixNano: sc.created, Torn: sc.torn,
		},
		entries: sc.entries,
		seed:    segSeed(id, sc.created),
	}, nil
}

// Close releases every open segment file.
func (r *Reader) Close() error {
	var first error
	for i := range r.segs {
		if r.segs[i].f != nil {
			if err := r.segs[i].f.Close(); err != nil && first == nil {
				first = err
			}
			r.segs[i].f = nil
		}
	}
	return first
}

// Segments lists the journal's segments in id order.
func (r *Reader) Segments() []SegmentInfo {
	out := make([]SegmentInfo, len(r.segs))
	for i, s := range r.segs {
		out[i] = s.info
	}
	return out
}

// Streams aggregates the journal per stream, in stream-id order.
func (r *Reader) Streams() []StreamInfo {
	agg := make(map[uint64]*StreamInfo)
	var order []uint64
	for _, s := range r.segs {
		for _, e := range s.entries {
			si := agg[e.Stream]
			if si == nil {
				si = &StreamInfo{Stream: e.Stream, FirstSeq: e.FirstSeq}
				agg[e.Stream] = si
				order = append(order, e.Stream)
			}
			si.Records++
			switch e.Kind {
			case KindHello:
				si.HasHello = true
			case KindEvents:
				si.Events++
				if si.Events == 1 {
					si.FirstSeq = e.FirstSeq
				}
				si.LastSeq = e.LastSeq
			case KindGoodbye:
				si.HasGoodbye = true
			case KindResult:
				si.HasResult = true
			case KindError:
				si.HasError = true
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]StreamInfo, len(order))
	for i, id := range order {
		out[i] = *agg[id]
	}
	return out
}

// open returns the segment's file, opening it on first use.
func (r *Reader) open(i int) (ReadFile, error) {
	if r.segs[i].f == nil {
		f, err := r.p.Open(segName(r.segs[i].info.ID))
		if err != nil {
			return nil, fmt.Errorf("journal: open %s: %w", segName(r.segs[i].info.ID), err)
		}
		r.segs[i].f = f
	}
	return r.segs[i].f, nil
}

// readEntry reads and CRC-checks the record at e in segment i.
func (r *Reader) readEntry(i int, e IndexEntry) (Meta, []byte, error) {
	f, err := r.open(i)
	if err != nil {
		return Meta{}, nil, err
	}
	buf := make([]byte, e.Len)
	if _, err := f.ReadAt(buf, e.Offset); err != nil {
		return Meta{}, nil, fmt.Errorf("journal: read seg %d off %d: %w", r.segs[i].info.ID, e.Offset, err)
	}
	m, payload, err := parseRecord(buf, r.segs[i].seed)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("journal: seg %d off %d: %w", r.segs[i].info.ID, e.Offset, err)
	}
	return m, payload, nil
}

// parseRecord validates one whole record against its segment's CRC seed
// and returns its payload view.
func parseRecord(buf []byte, seed uint32) (Meta, []byte, error) {
	if len(buf) < recHeaderSize {
		return Meta{}, nil, fmt.Errorf("short record (%d bytes)", len(buf))
	}
	n := le32(buf[4:8])
	if int64(recHeaderSize)+int64(n) != int64(len(buf)) {
		return Meta{}, nil, fmt.Errorf("record length %d disagrees with index %d", recHeaderSize+int(n), len(buf))
	}
	crc := crcUpdate(seed, buf[4:])
	if crc != le32(buf[0:4]) {
		return Meta{}, nil, fmt.Errorf("record crc mismatch")
	}
	m := Meta{
		Kind:     Kind(buf[8]),
		Stream:   le64(buf[9:17]),
		FirstSeq: le64(buf[17:25]),
		LastSeq:  le64(buf[25:33]),
	}
	return m, buf[recHeaderSize:], nil
}

// ReadAt reads the record a violation anchor points to.
func (r *Reader) ReadAt(loc Loc) (Meta, []byte, error) {
	i, ok := r.bySeg[loc.Segment]
	if !ok {
		return Meta{}, nil, fmt.Errorf("journal: segment %d not present (compacted?)", loc.Segment)
	}
	for _, e := range r.segs[i].entries {
		if e.Offset == loc.Offset {
			return r.readEntry(i, e)
		}
	}
	return Meta{}, nil, fmt.Errorf("journal: no record at segment %d offset %d", loc.Segment, loc.Offset)
}

// Result returns a stream's journaled verdict: the exact Result-frame
// JSON for a stream that completed, or its error string. ok is false
// when the stream has neither (killed mid-flight).
func (r *Reader) Result(stream uint64) (sample []byte, errMsg string, ok bool) {
	for i := range r.segs {
		for _, e := range r.segs[i].entries {
			if e.Stream != stream {
				continue
			}
			switch e.Kind {
			case KindResult:
				_, payload, err := r.readEntry(i, e)
				if err != nil {
					return nil, "", false
				}
				return payload, "", true
			case KindError:
				_, payload, err := r.readEntry(i, e)
				if err != nil {
					return nil, "", false
				}
				return nil, string(payload), true
			}
		}
	}
	return nil, "", false
}

// StreamEventLocs returns the location of every Events record of one
// stream, in journal order. The k-th Loc addresses the record whose
// payload a replaying deframer decodes as the stream's k-th Events
// frame, which is what lets an anchored replay (svdreplay -anchors)
// stamp fresh violations with the same coordinates the live daemon
// would have.
func (r *Reader) StreamEventLocs(stream uint64) []Loc {
	var locs []Loc
	for i := range r.segs {
		for _, e := range r.segs[i].entries {
			if e.Stream == stream && e.Kind == KindEvents {
				locs = append(locs, Loc{Segment: r.segs[i].info.ID, Offset: e.Offset})
			}
		}
	}
	return locs
}

// StreamReader returns an io.Reader over the concatenated raw wire
// frames (hello, events, goodbye) of one stream, in journal order.
// Because records hold the exact bytes the deframer validated, the
// result is a well-formed wire byte stream: feed it straight to a
// Deframer to replay.
func (r *Reader) StreamReader(stream uint64) io.Reader {
	return &streamReader{r: r, stream: stream, seg: 0, idx: -1}
}

// streamReader iterates a stream's wire records lazily, one payload at
// a time.
type streamReader struct {
	r      *Reader
	stream uint64
	seg    int
	idx    int // index of the current entry within seg; -1 before first
	cur    []byte
	err    error
}

func (s *streamReader) Read(p []byte) (int, error) {
	for len(s.cur) == 0 {
		if s.err != nil {
			return 0, s.err
		}
		e, segIdx, ok := s.next()
		if !ok {
			s.err = io.EOF
			return 0, io.EOF
		}
		_, payload, err := s.r.readEntry(segIdx, e)
		if err != nil {
			s.err = err
			return 0, err
		}
		s.cur = payload
	}
	n := copy(p, s.cur)
	s.cur = s.cur[n:]
	return n, nil
}

// next advances to the stream's next wire record.
func (s *streamReader) next() (IndexEntry, int, bool) {
	for ; s.seg < len(s.r.segs); s.seg++ {
		ents := s.r.segs[s.seg].entries
		for s.idx++; s.idx < len(ents); s.idx++ {
			e := ents[s.idx]
			if e.Stream != s.stream {
				continue
			}
			switch e.Kind {
			case KindHello, KindEvents, KindGoodbye:
				return e, s.seg, true
			}
		}
		s.idx = -1
	}
	return IndexEntry{}, 0, false
}

// --- tiny endian helpers shared with parseRecord ---

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}

func crcUpdate(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, crcTable, p)
}
