package server

import (
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/report"
)

// Violation anchors: the joint between detection and the durable
// journal. The journal is the a posteriori log: a serving daemon only
// appends to it, and an anchored replay (ReplayJournalAnchored) steps
// each journaled batch again. When the detector count moves, the shard
// worker records the journal location of exactly that batch's record,
// so each violation carries its replay coordinates — seek the journal
// to (segment, offset), read one CRC-checked record, and the raw wire
// frame whose events produced the verdict is in hand.

// Anchor ties one detected violation to the journal record that
// produced it.
type Anchor struct {
	// Detector is "svd" (strict-2PL serializability violation) or "frd"
	// (flag race).
	Detector string `json:"detector"`

	// Index is the violation's ordinal in the detector's pre-cap count;
	// when below the retention cap it indexes the detector's retained
	// violation and witness slices.
	Index int `json:"index"`

	// Loc addresses the journaled Events record whose batch moved the
	// detector: journal.Reader.ReadAt(Loc) returns the raw wire frame.
	Loc journal.Loc `json:"loc"`

	// FirstSeq and LastSeq bound the batch's event sequence numbers —
	// the range an offline pass narrows to.
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`

	// Witness is the flight-recorder witness paired with this violation
	// when the stream ran with witnesses on and the index is within the
	// retention cap.
	Witness *obs.Witness `json:"witness,omitempty"`
}

// attachWitnesses pairs a close-time sample's retained witnesses with
// the stream's anchors, index-for-index per detector. Witness retention
// and violation retention share a cap and an order (both append in
// detection order), so Index addresses both slices.
func attachWitnesses(anchors []Anchor, sample *report.Sample) {
	if sample == nil {
		return
	}
	for i := range anchors {
		a := &anchors[i]
		var ws []obs.Witness
		switch a.Detector {
		case "svd":
			ws = sample.SVDWitnesses
		case "frd":
			ws = sample.FRDWitnesses
		}
		if a.Index < len(ws) {
			a.Witness = &ws[a.Index]
		}
	}
}
