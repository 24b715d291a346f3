package obs

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Forensic reporting: fold witnesses by the static site pair that produced
// them, rank the groups the way an examiner would read them (heaviest
// first), and render the two-thread schedule behind each group's first
// witness. The renderer is detector-agnostic — SVD violations and FRD
// races share the format — and callers fold in extra context (symbol
// names, a posteriori examination findings) through ForensicOptions.

// WitnessGroup is every witness sharing one static site pair: the
// reporting program point and the conflicting program point.
type WitnessGroup struct {
	Detector   string `json:"detector"`
	PC         int64  `json:"pc"`          // reporting access
	ConflictPC int64  `json:"conflict_pc"` // remote conflicting access
	Count      int    `json:"count"`       // dynamic witnesses at this pair

	// First is the group's exemplar: the earliest captured witness.
	First Witness `json:"first"`
}

// groupKey is a site pair: detector, reporting PC, conflicting PC.
type groupKey struct {
	det    string
	pc, cp int64
}

// GroupSet folds reports into site-pair groups in first-seen order: the
// first report at a pair opens the pair's group with its witness as the
// exemplar, and every later report only bumps the count. The detectors
// fold as they report, so they assemble one witness per group instead
// of one per report (DESIGN.md §9). The zero value is empty and ready.
type GroupSet struct {
	groups []WitnessGroup
	index  map[groupKey]int
}

// Bump counts one more report at the site pair (det, pc, conflictPC)
// and reports whether the pair already had a group. It changes nothing
// when it returns false.
func (s *GroupSet) Bump(det string, pc, conflictPC int64) bool {
	j, ok := s.index[groupKey{det, pc, conflictPC}]
	if ok {
		s.groups[j].Count++
	}
	return ok
}

// Open starts the group of w's site pair with w as its exemplar and a
// count of one. The pair must not have a group yet (Bump said false).
func (s *GroupSet) Open(w Witness) {
	if s.index == nil {
		s.index = make(map[groupKey]int)
	}
	s.index[groupKey{w.Detector, w.PC, w.Conflict.PC}] = len(s.groups)
	s.groups = append(s.groups, WitnessGroup{
		Detector: w.Detector, PC: w.PC, ConflictPC: w.Conflict.PC,
		Count: 1, First: w,
	})
}

// Len returns the number of groups.
func (s *GroupSet) Len() int { return len(s.groups) }

// Groups returns the groups in first-seen order; nil when empty. The
// slice is the set's own: callers must not modify it.
func (s *GroupSet) Groups() []WitnessGroup { return s.groups }

// Clone returns an independent copy. Exemplars are shared, which is
// safe because nothing rewrites a witness once its group is open.
func (s *GroupSet) Clone() GroupSet {
	return GroupSet{groups: slices.Clone(s.groups), index: maps.Clone(s.index)}
}

// GroupWitnesses folds a flat witness list by (detector, reporting PC,
// conflicting PC) and ranks the groups with RankGroups. It is the
// reference the detectors' folding is tested against.
func GroupWitnesses(ws []Witness) []WitnessGroup {
	var s GroupSet
	for i := range ws {
		if w := &ws[i]; !s.Bump(w.Detector, w.PC, w.Conflict.PC) {
			s.Open(*w)
		}
	}
	return RankGroups(s.Groups())
}

// RankGroups returns a copy of groups ranked by descending count with
// PC-order tie-breaks — a stable, map-iteration-independent order.
func RankGroups(groups []WitnessGroup) []WitnessGroup {
	out := slices.Clone(groups)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].PC != out[j].PC {
			return out[i].PC < out[j].PC
		}
		if out[i].ConflictPC != out[j].ConflictPC {
			return out[i].ConflictPC < out[j].ConflictPC
		}
		return out[i].Detector < out[j].Detector
	})
	return out
}

// ForensicOptions parameterize the text report.
type ForensicOptions struct {
	// Loc resolves a PC to a source location ("" falls back to "pc N").
	Loc func(pc int64) string
	// Sym resolves a block id to a data-symbol name ("" falls back to
	// "block N").
	Sym func(block int64) string
	// Annotate returns extra per-group context appended under the group —
	// the hook cmd/svd uses to fold in the matching svd.Examine finding.
	Annotate func(g WitnessGroup) string

	// MaxGroups and MaxWindow bound the report (0 = defaults 10 and 16).
	MaxGroups int
	MaxWindow int
}

func (o ForensicOptions) withDefaults() ForensicOptions {
	if o.Loc == nil {
		o.Loc = func(int64) string { return "" }
	}
	if o.Sym == nil {
		o.Sym = func(int64) string { return "" }
	}
	if o.MaxGroups <= 0 {
		o.MaxGroups = 10
	}
	if o.MaxWindow <= 0 {
		o.MaxWindow = 16
	}
	return o
}

func (o ForensicOptions) loc(pc int64) string {
	if s := o.Loc(pc); s != "" {
		return s
	}
	return fmt.Sprintf("pc %d", pc)
}

func (o ForensicOptions) sym(b int64) string {
	if s := o.Sym(b); s != "" {
		return s
	}
	return fmt.Sprintf("block %d", b)
}

// RenderForensicReport renders site-pair groups as a ranked
// human-readable report: one section per group in RankGroups order, the
// interleaving window of its exemplar witness printed as the two-thread
// schedule that closed the cycle. The header counts every report the
// groups fold, not just the exemplars.
func RenderForensicReport(groups []WitnessGroup, opts ForensicOptions) string {
	opts = opts.withDefaults()
	groups = RankGroups(groups)
	total := 0
	for _, g := range groups {
		total += g.Count
	}
	var b strings.Builder
	fmt.Fprintf(&b, "forensic report: %d witnesses at %d site pairs\n", total, len(groups))
	for i, g := range groups {
		if i >= opts.MaxGroups {
			fmt.Fprintf(&b, "... %d more site pairs\n", len(groups)-opts.MaxGroups)
			break
		}
		b.WriteString(renderGroup(g, opts))
		if opts.Annotate != nil {
			if note := opts.Annotate(g); note != "" {
				for _, line := range strings.Split(strings.TrimRight(note, "\n"), "\n") {
					fmt.Fprintf(&b, "    %s\n", line)
				}
			}
		}
	}
	return b.String()
}

func renderGroup(g WitnessGroup, opts ForensicOptions) string {
	w := g.First
	var b strings.Builder
	kind := "serializability violation"
	if g.Detector == "frd" {
		kind = "data race"
	}
	fmt.Fprintf(&b, "[%6d dynamic] %s: %s conflicts with %s on %s\n",
		g.Count, kind, opts.loc(g.PC), opts.loc(g.ConflictPC), opts.sym(w.Block))
	if w.CU != 0 {
		fmt.Fprintf(&b, "    victim CU %d: %d input / %d output blocks", w.CU, len(w.Inputs), len(w.Outputs))
		if len(w.Inputs) > 0 {
			fmt.Fprintf(&b, "; inputs %s", blockList(w.Inputs, opts))
		}
		b.WriteString("\n")
	}
	if w.Stale != nil {
		fmt.Fprintf(&b, "    stale input: cpu %d %s %s at t=%d (%s)\n",
			w.Stale.CPU, rw(w.Stale.Write), opts.sym(w.Stale.Block), w.Stale.Seq, opts.loc(w.Stale.PC))
	}
	fmt.Fprintf(&b, "    schedule (cpu %d vs cpu %d):\n", w.CPU, w.Conflict.CPU)
	window := w.Window
	if len(window) > opts.MaxWindow {
		fmt.Fprintf(&b, "      ... %d earlier accesses elided\n", len(window)-opts.MaxWindow)
		window = window[len(window)-opts.MaxWindow:]
	}
	for i := range window {
		a := &window[i]
		marker := ""
		switch {
		case a.Seq == w.Conflict.Seq && a.CPU == w.Conflict.CPU:
			marker = "  <- conflicting access"
		case a.Seq == w.Seq && a.CPU == w.CPU:
			marker = "  <- reports here"
		}
		fmt.Fprintf(&b, "      t=%-10d cpu %d %-5s %-18s %s%s\n",
			a.Seq, a.CPU, rw(a.Write), opts.sym(a.Block), opts.loc(a.PC), marker)
	}
	return b.String()
}

func rw(write bool) string {
	if write {
		return "store"
	}
	return "load"
}

func blockList(blocks []int64, opts ForensicOptions) string {
	var b strings.Builder
	for i, blk := range blocks {
		if i >= 4 {
			fmt.Fprintf(&b, ", +%d more", len(blocks)-4)
			break
		}
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(opts.sym(blk))
	}
	return b.String()
}
