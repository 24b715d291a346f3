// Command svdreplay consumes the durable journal a svdd -journal run
// left behind: it lists the capture, re-serves it through a loopback
// engine with byte-exact verification against the journaled verdicts,
// and runs the offline differential over recorded traffic.
//
// Usage:
//
//	svdreplay -journal /var/svdd                # list segments and streams
//	svdreplay -journal /var/svdd -verify        # replay, compare verdicts
//	svdreplay -journal /var/svdd -offline       # differential re-detection
//	svdreplay -journal /var/svdd -offline -stream 3
//	svdreplay -journal /var/svdd -anchors       # re-derive witness evidence
//	svdreplay -journal /var/svdd -anchors -anchor-site 66
//
// -verify replays every journaled stream through the identical decode
// and detector path the daemon used and byte-compares each fresh
// verdict with the journaled one; any divergence exits nonzero. This is
// the crash-drill check: kill a journaled daemon mid-load, restart it,
// and -verify proves the recovered capture still replays cleanly.
//
// -offline decodes recorded streams to event rows and scores every
// online detector configuration (witnesses on/off, interest index
// on/off, SVD vs FRD) against the offline three-pass reference — the
// paper's accuracy/overhead table computed from production traffic
// instead of benchmark reruns.
//
// -anchors re-detects every journaled stream with the flight recorder
// forced on and prints each violation's anchor: the journal coordinates
// of the batch that produced it plus the re-derived witness, even when
// the original producer never asked for witnesses. -anchor-site narrows
// the listing to violations reported at one store PC. The forced
// witnesses run on a dedicated engine so they can never leak into
// -verify's byte comparison — a witness-forced replay of a witnessless
// capture would legitimately diverge.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/server"
)

func main() {
	var (
		dir         = flag.String("journal", "", "journal directory to read (required)")
		verify      = flag.Bool("verify", false, "replay every stream and byte-compare verdicts with the journaled ones")
		offlineRun  = flag.Bool("offline", false, "run the offline differential over recorded streams")
		anchorsRun  = flag.Bool("anchors", false, "re-detect with forced witnesses and list every violation's journal anchor")
		anchorSite  = flag.Int64("anchor-site", -1, "restrict -anchors to violations reported at this store PC (-1 = all)")
		stream      = flag.Int64("stream", -1, "restrict -offline to one stream id (-1 = all complete streams)")
		shards      = flag.Int("shards", 1, "replay engine worker count")
		scale       = flag.Int("scale", 1, "workload scale for streams that name a registry workload without one")
		maxStmts    = flag.Int("max-stmts", 0, "offline trace bound in statements (0 = recorder default)")
		jsonOut     = flag.Bool("json", false, "print results as JSON")
		logLevel    = flag.String("log-level", "info", "operational log level: debug, info, warn, error")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.String("svdreplay"))
		return
	}
	log := obs.InitSlog(*logLevel, false)
	if *dir == "" {
		log.Error("svdreplay requires -journal <dir>")
		os.Exit(2)
	}

	prov, err := journal.OpenDir(*dir)
	if err != nil {
		log.Error("journal open", "dir", *dir, "err", err)
		os.Exit(1)
	}
	r, err := journal.OpenReader(prov)
	if err != nil {
		log.Error("journal read", "dir", *dir, "err", err)
		os.Exit(1)
	}
	defer r.Close()

	if !*verify && !*offlineRun && !*anchorsRun {
		listJournal(r, *jsonOut)
		return
	}

	// The replay engine must mirror the daemon's detector options; the
	// defaults here match svdd's defaults.
	eng := server.New(server.Options{Shards: *shards, Scale: *scale, Logger: log})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	}()

	exit := 0
	if *verify {
		if !runVerify(log, eng, r, *jsonOut) {
			exit = 1
		}
	}
	if *offlineRun {
		if !runOffline(log, eng, r, *stream, *maxStmts, *jsonOut) {
			exit = 1
		}
	}
	if *anchorsRun {
		// A dedicated engine keeps the forced witnesses out of -verify's
		// byte comparison: the verify engine above must mirror the live
		// daemon's options exactly, and ForceWitness is not one of them.
		aeng := server.New(server.Options{Shards: *shards, Scale: *scale, ForceWitness: true, Logger: log})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = aeng.Shutdown(ctx)
		}()
		if !runAnchors(log, aeng, r, *anchorSite, *jsonOut) {
			exit = 1
		}
	}
	if exit != 0 {
		os.Exit(exit)
	}
}

// runAnchors re-detects the capture with forced witnesses and prints
// each stream's violation anchors, optionally narrowed to one site.
func runAnchors(log interface {
	Info(string, ...any)
	Error(string, ...any)
}, eng *server.Engine, r *journal.Reader, site int64, jsonOut bool) bool {
	streams, err := eng.ReplayJournalAnchored(r)
	if err != nil {
		log.Error("anchored replay", "err", err)
		return false
	}
	ok := true
	if site >= 0 {
		for i := range streams {
			kept := streams[i].Anchors[:0]
			for _, a := range streams[i].Anchors {
				if a.Witness != nil && a.Witness.PC == site {
					kept = append(kept, a)
				}
			}
			streams[i].Anchors = kept
		}
	}
	if jsonOut {
		js, _ := json.MarshalIndent(streams, "", "  ")
		fmt.Println(string(js))
	}
	total, withWitness := 0, 0
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if !jsonOut {
		fmt.Fprintln(tw, "STREAM\tWORKLOAD\tSEED\tDETECTOR\tINDEX\tSITE-PC\tSEQ-RANGE\tSEGMENT\tOFFSET")
	}
	for _, as := range streams {
		if as.Err != "" {
			log.Error("stream failed anchored replay", "stream", as.Stream, "err", as.Err)
			ok = false
			continue
		}
		for _, a := range as.Anchors {
			total++
			pc := int64(-1)
			if a.Witness != nil {
				withWitness++
				pc = a.Witness.PC
			}
			if !jsonOut {
				fmt.Fprintf(tw, "%d\t%s\t%d\t%s\t%d\t%d\t%d..%d\t%016x\t%d\n",
					as.Stream, as.Workload, as.Seed, a.Detector, a.Index,
					pc, a.FirstSeq, a.LastSeq, a.Loc.Segment, a.Loc.Offset)
			}
		}
	}
	if !jsonOut {
		tw.Flush()
		if site >= 0 {
			fmt.Printf("svdreplay: %d anchored violations at site %d (%d with witnesses) across %d streams\n",
				total, site, withWitness, len(streams))
		} else {
			fmt.Printf("svdreplay: %d anchored violations (%d with witnesses) across %d streams\n",
				total, withWitness, len(streams))
		}
	}
	return ok
}

// listJournal prints the capture's shape: segments with their sizes and
// ages, then streams with their completeness.
func listJournal(r *journal.Reader, jsonOut bool) {
	if jsonOut {
		js, _ := json.MarshalIndent(struct {
			Segments []journal.SegmentInfo `json:"segments"`
			Streams  []journal.StreamInfo  `json:"streams"`
		}{r.Segments(), r.Streams()}, "", "  ")
		fmt.Println(string(js))
		return
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SEGMENT\tBYTES\tRECORDS\tCREATED\tSTATE")
	for _, s := range r.Segments() {
		state := "sealed"
		if s.Torn {
			state = "torn-tail"
		}
		fmt.Fprintf(tw, "%016x\t%d\t%d\t%s\t%s\n",
			s.ID, s.Size, s.Records,
			time.Unix(0, s.CreatedUnixNano).UTC().Format(time.RFC3339), state)
	}
	fmt.Fprintln(tw, "\nSTREAM\tRECORDS\tEVENTS\tSEQ-RANGE\tVERDICT")
	for _, s := range r.Streams() {
		verdict := "incomplete"
		switch {
		case s.HasError:
			verdict = "error"
		case s.HasResult:
			verdict = "result"
		case s.HasGoodbye:
			verdict = "goodbye-only"
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d..%d\t%s\n",
			s.Stream, s.Records, s.Events, s.FirstSeq, s.LastSeq, verdict)
	}
	tw.Flush()
}

// runVerify replays the whole journal and reports per-stream outcomes;
// it returns false when anything diverged or errored.
func runVerify(log interface {
	Info(string, ...any)
	Error(string, ...any)
}, eng *server.Engine, r *journal.Reader, jsonOut bool) bool {
	sum, err := eng.ReplayJournal(r)
	if err != nil {
		log.Error("replay", "err", err)
		return false
	}
	if jsonOut {
		js, _ := json.MarshalIndent(sum, "", "  ")
		fmt.Println(string(js))
	} else {
		for _, rs := range sum.Streams {
			switch {
			case rs.Err != "":
				log.Error("stream errored", "stream", rs.Stream, "workload", rs.Workload, "err", rs.Err)
			case rs.Incomplete:
				log.Info("stream incomplete (cut capture)", "stream", rs.Stream, "workload", rs.Workload, "events", rs.Events)
			case rs.Match:
				log.Info("stream verified", "stream", rs.Stream, "workload", rs.Workload, "events", rs.Events)
			default:
				log.Error("stream DIVERGED", "stream", rs.Stream, "workload", rs.Workload, "detail", rs.Divergence)
			}
		}
		fmt.Printf("svdreplay: %d streams replayed, %d verified, %d matched, %d diverged, %d incomplete, %d errors\n",
			sum.Replayed, sum.Verified, sum.Matched, sum.Diverged, sum.Incomplete, sum.Errors)
	}
	return sum.Ok() && sum.Diverged == 0
}

// runOffline decodes the selected streams and prints the differential
// table for each; false on any decode or differential failure.
func runOffline(log interface {
	Info(string, ...any)
	Error(string, ...any)
}, eng *server.Engine, r *journal.Reader, only int64, maxStmts int, jsonOut bool) bool {
	ok := true
	ran := 0
	for _, si := range r.Streams() {
		if only >= 0 && si.Stream != uint64(only) {
			continue
		}
		w, evs, err := eng.DecodeStreamEvents(r, si.Stream)
		if err != nil {
			log.Error("decode stream", "stream", si.Stream, "err", err)
			ok = false
			continue
		}
		if len(evs) == 0 {
			log.Info("stream holds no events, skipping", "stream", si.Stream)
			continue
		}
		rep, err := offline.Differential(w.Prog, w.NumThreads, evs, nil, maxStmts)
		if err != nil {
			log.Error("differential", "stream", si.Stream, "err", err)
			ok = false
			continue
		}
		ran++
		if jsonOut {
			js, _ := json.MarshalIndent(struct {
				Stream   uint64              `json:"stream"`
				Workload string              `json:"workload"`
				Report   *offline.DiffReport `json:"report"`
			}{si.Stream, w.Name, rep}, "", "  ")
			fmt.Println(string(js))
			continue
		}
		fmt.Printf("stream %d (%s): %d events, %d threads — offline reference: %d violations, %d sites in %v",
			si.Stream, w.Name, rep.Events, rep.Threads,
			rep.OfflineViolations, rep.OfflineSites,
			time.Duration(rep.OfflineElapsedNs).Round(time.Microsecond))
		if rep.TraceDropped > 0 {
			fmt.Printf(" (%d statements dropped from the trace bound)", rep.TraceDropped)
		}
		fmt.Println()
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  CONFIG\tVIOLATIONS\tSITES\tSHARED\tONLINE-ONLY\tMISSED\tELAPSED\tEVENTS/SEC")
		for _, row := range rep.Rows {
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t%d\t%v\t%.0f\n",
				row.Config.Name, row.Violations, row.Sites,
				row.SharedSites, row.OnlineOnly, row.OfflineOnly,
				time.Duration(row.ElapsedNs).Round(time.Microsecond),
				row.EventsPerSec)
		}
		tw.Flush()
	}
	if only >= 0 && ran == 0 && ok {
		log.Error("no journaled stream matched -stream", "stream", only)
		return false
	}
	return ok
}
