package journal

import (
	"bytes"
	"testing"

	"repro/internal/vm"
	"repro/internal/wire"
)

// buildSeedSegment assembles valid segment bytes whose records are real
// wire frames — the corpus shape the production journal actually holds.
func buildSeedSegment(t interface{ Fatal(...any) }) []byte {
	p := InMemory()
	w, err := OpenWriter(p, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var frames bytes.Buffer
	f := wire.NewFramer(&frames, 2)
	hello := wire.Hello{Version: wire.Version, Threads: 2, Workload: "queue-fixed", Scale: 1, Seed: 7}
	if err := f.WriteHello(hello); err != nil {
		t.Fatal(err)
	}
	helloBytes := append([]byte(nil), frames.Bytes()...)
	frames.Reset()
	eb := vm.NewEventBatch(3)
	eb.AppendRaw(1, 0, 3, vm.FlagLoad, 64, 5, 0)
	eb.AppendRaw(2, 1, 9, vm.FlagStore, 64, 0, 6)
	eb.AppendRaw(3, 0, 4, 0, 0, 0, 0)
	if err := f.WriteColumns(eb); err != nil {
		t.Fatal(err)
	}
	eventBytes := append([]byte(nil), frames.Bytes()...)
	frames.Reset()
	if err := f.WriteGoodbye(); err != nil {
		t.Fatal(err)
	}
	byeBytes := append([]byte(nil), frames.Bytes()...)

	if _, err := w.Append(Meta{Kind: KindHello, Stream: 1}, nil, helloBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Meta{Kind: KindEvents, Stream: 1, FirstSeq: 1, LastSeq: 3}, nil, eventBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Meta{Kind: KindGoodbye, Stream: 1}, nil, byeBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Meta{Kind: KindResult, Stream: 1}, nil, []byte(`{"workload":"queue-fixed"}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := p.Open(segName(0))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(f2); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// FuzzJournalSegment drives the segment scanner — the code recovery
// trusts with arbitrary crash debris — over mutated segment bytes. The
// invariants: never panic, never claim good bytes past the input, and
// the reported good prefix must itself rescan to the identical index
// with no torn tail (recovery's truncate-then-serve step depends on
// exactly that).
func FuzzJournalSegment(f *testing.F) {
	seed := buildSeedSegment(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                   // torn tail
	f.Add(seed[:segHeaderSize])                 // header only
	f.Add(seed[:segHeaderSize+recHeaderSize-1]) // torn record header
	f.Add([]byte{})                             // empty file
	f.Add([]byte("SVDJ"))                       // truncated header
	flipped := append([]byte(nil), seed...)
	flipped[segHeaderSize+4] ^= 0x40 // corrupt first record's length
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The seed corpus is segment 0; the id must match or every
		// record fails its seeded CRC and the fuzzer never gets past
		// the first one.
		sc, err := scanSegment(bytes.NewReader(data), 0)
		if err != nil {
			return // unreadable header: recovery removes the segment
		}
		if sc.goodBytes < segHeaderSize || sc.goodBytes > int64(len(data)) {
			t.Fatalf("goodBytes %d outside [%d, %d]", sc.goodBytes, segHeaderSize, len(data))
		}
		off := int64(segHeaderSize)
		for i, e := range sc.entries {
			if e.Offset != off {
				t.Fatalf("entry %d at offset %d, want %d", i, e.Offset, off)
			}
			if e.Len < recHeaderSize {
				t.Fatalf("entry %d length %d below header size", i, e.Len)
			}
			off += e.Len
		}
		if off != sc.goodBytes {
			t.Fatalf("entries end at %d, goodBytes %d", off, sc.goodBytes)
		}

		resc, err := scanSegment(bytes.NewReader(data[:sc.goodBytes]), 0)
		if err != nil {
			t.Fatalf("rescan of good prefix: %v", err)
		}
		if resc.torn || len(resc.entries) != len(sc.entries) || resc.goodBytes != sc.goodBytes {
			t.Fatalf("rescan disagrees: torn=%v entries=%d/%d good=%d/%d",
				resc.torn, len(resc.entries), len(sc.entries), resc.goodBytes, sc.goodBytes)
		}
	})
}
