package server

import (
	"repro/internal/journal"
	"repro/internal/obs"
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
	// violations and, under WitnessAll, its flat witness list.
	Index int `json:"index"`

	// Loc addresses the journaled Events record whose batch moved the
	// detector: journal.Reader.ReadAt(Loc) returns the raw wire frame.
	Loc journal.Loc `json:"loc"`

	// FirstSeq and LastSeq bound the batch's event sequence numbers —
	// the range an offline pass narrows to.
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`

	// Witness is the flight-recorder witness paired with this violation
	// when the stream ran with WitnessAll (Options.ForceWitness) and the
	// index is within the retention cap.
	Witness *obs.Witness `json:"witness,omitempty"`
}

// attachWitnesses pairs a completed stream's flat witness lists
// (Detector.AllWitnesses, one per retained report) with its anchors,
// index-for-index per detector. The flat list and the violation list
// share a cap and an order (both append in detection order), so Index
// addresses both.
func attachWitnesses(anchors []Anchor, svdAll, frdAll []obs.Witness) {
	for i := range anchors {
		a := &anchors[i]
		ws := svdAll
		if a.Detector == "frd" {
			ws = frdAll
		}
		if a.Index < len(ws) {
			a.Witness = &ws[a.Index]
		}
	}
}
