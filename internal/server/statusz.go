package server

// /statusz: the human-facing half of the observability surface. /metrics
// speaks OpenMetrics to scrapers and /report speaks JSON to tools; this
// page answers the operator question "what is the daemon doing right
// now" in one glance — shard table, hottest streams, latency
// percentiles, overload — without anything to parse. ?format=text
// serves the same snapshot as plain text for curl and the CI scrape.

import (
	"fmt"
	"html/template"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// statusTopK bounds the hottest-streams table; a daemon fed by a load
// generator can have hundreds of open streams and the page is a glance,
// not a dump (the full set is on /metrics).
const statusTopK = 20

// statuszData is the template's view of one snapshot.
type statuszData struct {
	Snapshot
	Version   string
	GoVersion string
	Uptime    time.Duration
	Shown     int // streams rendered (min(len(Streams), statusTopK))
	Truncated int // open streams beyond the table

	// JournalFsync is the journal's fsync summary, flattened here because
	// Summarize has a pointer receiver the template cannot call through
	// the embedded snapshot's value field.
	JournalFsync obs.Summary

	// Cluster is the router panel, present only in cluster mode.
	Cluster *clusterPanel
}

// clusterPanel is the /statusz view of the cluster router: the stats
// snapshot plus how many of this node's open streams route to each
// member under the current view (streams here owned elsewhere are
// sticky or about to hand off).
type clusterPanel struct {
	cluster.Stats
	Nodes []clusterNodeRow
}

type clusterNodeRow struct {
	ID      string
	Addr    string
	Self    bool
	Streams int
}

// fmtNs renders a nanosecond quantity human-first (µs/ms/s).
func fmtNs(ns uint64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// fmtAge renders "how long ago" from a unix-nano stamp relative to the
// snapshot time ("never" for zero — telemetry off or nothing ingested).
func fmtAge(takenNs, ns int64) string {
	if ns == 0 {
		return "never"
	}
	d := time.Duration(takenNs - ns)
	if d < 0 {
		d = 0
	}
	return d.Round(time.Millisecond).String() + " ago"
}

var statuszTmpl = template.Must(template.New("statusz").Funcs(template.FuncMap{
	"ns":  fmtNs,
	"age": fmtAge,
	"pct": func(f float64) string { return fmt.Sprintf("%.1f%%", f*100) },
}).Parse(`<!DOCTYPE html>
<html><head><title>svdd statusz</title>
<style>
body { font-family: monospace; margin: 1.5em; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
th, td { border: 1px solid #999; padding: 2px 8px; text-align: right; }
th { background: #eee; }
td.l, th.l { text-align: left; }
.warn { color: #b00; font-weight: bold; }
h2 { margin-bottom: 0.2em; }
</style></head><body>
<h1>svdd</h1>
<p>version {{.Version}} · {{.GoVersion}} · up {{.Uptime}} · policy {{.Policy}} ·
telemetry {{if .Telemetry}}on{{else}}off{{end}} ·
{{len .Streams}} open stream(s)</p>

<h2>Engine</h2>
<table>
<tr><th class="l">counter</th><th>value</th></tr>
<tr><td class="l">streams opened</td><td>{{.Counters.StreamsOpened}}</td></tr>
<tr><td class="l">streams closed</td><td>{{.Counters.StreamsClosed}}</td></tr>
<tr><td class="l">batches</td><td>{{.Counters.Batches}}</td></tr>
<tr><td class="l">events</td><td>{{.Counters.Events}}</td></tr>
{{if .Counters.BatchesShed}}<tr class="warn"><td class="l">batches shed</td><td>{{.Counters.BatchesShed}}</td></tr>{{end}}
{{if .Counters.StreamsShed}}<tr class="warn"><td class="l">streams shed</td><td>{{.Counters.StreamsShed}}</td></tr>{{end}}
{{if .Counters.StreamsHandedOff}}<tr><td class="l">streams handed off</td><td>{{.Counters.StreamsHandedOff}}</td></tr>{{end}}
<tr><td class="l">detector reuses</td><td>{{.Counters.DetectorReuses}}</td></tr>
</table>

{{with .Cluster}}
<h2>Cluster</h2>
<p>node {{.Self}} · epoch {{.Epoch}} · ring v{{.RingVersion}} ·
handoffs in flight {{.HandoffsInFlight}}</p>
<table>
<tr><th class="l">counter</th><th>value</th></tr>
<tr><td class="l">misroutes</td><td>{{.Misroutes}}</td></tr>
<tr><td class="l">forwarded frames</td><td>{{.ForwardedFrames}}</td></tr>
<tr><td class="l">handoffs out / in</td><td>{{.HandoffsOut}} / {{.HandoffsIn}}</td></tr>
{{if .MembersDown}}<tr class="warn"><td class="l">members down</td><td>{{.MembersDown}}</td></tr>{{end}}
</table>
<table>
<tr><th class="l">member</th><th class="l">addr</th><th>streams here</th></tr>
{{range .Nodes}}
<tr><td class="l">{{.ID}}{{if .Self}} (self){{end}}</td><td class="l">{{.Addr}}</td><td>{{.Streams}}</td></tr>
{{end}}
</table>
{{end}}

{{with .Journal}}
<h2>Journal</h2>
<table>
<tr><th class="l">field</th><th>value</th></tr>
<tr><td class="l">directory</td><td class="l">{{.Dir}}</td></tr>
<tr><td class="l">segments</td><td>{{.Segments}}</td></tr>
<tr><td class="l">active segment</td><td>{{printf "%016x" .ActiveSegment}}</td></tr>
<tr><td class="l">active / total bytes</td><td>{{.ActiveBytes}} / {{.TotalBytes}}</td></tr>
<tr><td class="l">appended records / bytes</td><td>{{.AppendedRecords}} / {{.AppendedBytes}}</td></tr>
<tr><td class="l">rotations / recycled</td><td>{{.Rotations}} / {{.RecycledSegments}}</td></tr>
{{if .AppendErrors}}<tr class="warn"><td class="l">append errors</td><td>{{.AppendErrors}}</td></tr>{{end}}
<tr><td class="l">oldest segment</td><td class="l">{{age $.TakenUnixNano .OldestUnixNano}}</td></tr>
<tr><td class="l">newest append</td><td class="l">{{age $.TakenUnixNano .NewestUnixNano}}</td></tr>
<tr><td class="l">fsync p50 / p99</td><td>{{ns $.JournalFsync.P50}} / {{ns $.JournalFsync.P99}}</td></tr>
{{if .LastCompaction.UnixNano}}<tr{{if .LastCompaction.Err}} class="warn"{{end}}><td class="l">last compaction</td>
<td class="l">{{age $.TakenUnixNano .LastCompaction.UnixNano}}: removed {{.LastCompaction.Removed}}{{with .LastCompaction.Err}}, err {{.}}{{end}}</td></tr>{{end}}
{{if .Recovery.Repaired}}<tr><td class="l">recovery</td>
<td class="l">repaired {{.Recovery.Repaired}} segment(s), truncated {{.Recovery.TruncatedBytes}} bytes</td></tr>{{end}}
</table>
{{end}}

<h2>Shards</h2>
<table>
<tr><th>shard</th><th>queue</th><th>hwm</th><th>busy</th><th>batches</th><th>events</th>
<th>q-wait p50</th><th>q-wait p99</th><th>step p50</th><th>step p99</th>
<th>wire p50</th><th>wire p99</th></tr>
{{range .Shards}}
<tr><td>{{.ID}}</td><td>{{.QueueLen}}/{{.QueueCap}}</td><td>{{.QueueHWM}}</td>
<td>{{pct .Busy}}</td><td>{{.Batches}}</td><td>{{.Events}}</td>
<td>{{ns .QueueWaitNs.P50}}</td><td>{{ns .QueueWaitNs.P99}}</td>
<td>{{ns .StepNs.P50}}</td><td>{{ns .StepNs.P99}}</td>
<td>{{ns .WireNs.P50}}</td><td>{{ns .WireNs.P99}}</td></tr>
{{end}}
</table>

<h2>Hottest streams</h2>
{{if .Streams}}
<table>
<tr><th>id</th><th class="l">workload</th><th>seed</th><th>shard</th>
<th>frames</th><th>events</th><th>wire bytes</th><th>shed</th><th class="l">state</th><th class="l">last active</th></tr>
{{$taken := .TakenUnixNano}}
{{range $i, $s := .Streams}}{{if lt $i $.Shown}}
<tr><td>{{$s.ID}}</td><td class="l">{{$s.Workload}}</td><td>{{$s.Seed}}</td><td>{{$s.Shard}}</td>
<td>{{$s.Frames}}</td><td>{{$s.Events}}</td><td>{{$s.WireBytes}}</td>
<td>{{$s.Shed}}</td>
<td class="l">{{if $s.Poisoned}}<span class="warn">poisoned</span>{{else}}ok{{end}}</td>
<td class="l">{{age $taken $s.LastActiveUnixNano}}</td></tr>
{{end}}{{end}}
</table>
{{if .Truncated}}<p>… and {{.Truncated}} more open stream(s); see /metrics for all.</p>{{end}}
{{else}}<p>no open streams</p>{{end}}

<p><a href="/metrics">/metrics</a> · <a href="/report">/report</a> ·
<a href="/statusz?format=text">text</a> · <a href="/debug/pprof/">pprof</a> ·
<a href="/debug/vars">expvar</a></p>
</body></html>
`))

// buildVersion reports the module version baked into the binary, "devel"
// when built from a working tree.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// statusz builds the template view from a fresh snapshot.
func (e *Engine) statusz() statuszData {
	d := statuszData{
		Snapshot:  e.Snapshot(),
		Version:   buildVersion(),
		GoVersion: runtime.Version(),
	}
	d.Uptime = time.Duration(d.UptimeSeconds * float64(time.Second)).Round(time.Second)
	if d.Journal != nil {
		d.JournalFsync = d.Journal.FsyncNs.Summarize()
	}
	d.Shown = len(d.Streams)
	if d.Shown > statusTopK {
		d.Truncated = d.Shown - statusTopK
		d.Shown = statusTopK
	}
	if rt := e.clusterRt; rt != nil {
		s := rt.Snapshot()
		counts := make(map[string]int)
		e.mu.Lock()
		for _, st := range e.open {
			if st.key == "" {
				counts[s.Self]++
				continue
			}
			if m, ok := rt.Owner(st.key); ok {
				counts[m.ID]++
			} else {
				counts[s.Self]++
			}
		}
		e.mu.Unlock()
		p := &clusterPanel{Stats: s}
		for _, m := range s.Members {
			p.Nodes = append(p.Nodes, clusterNodeRow{
				ID: m.ID, Addr: m.Addr, Self: m.ID == s.Self, Streams: counts[m.ID],
			})
		}
		d.Cluster = p
	}
	return d
}

// WriteStatusText renders the snapshot as plain text — the ?format=text
// body, also reused by svdd's periodic status log when it wants a full
// dump. One line per shard and stream, stable key=value tokens, so a
// grep in CI can assert on it without an HTML parser.
func (e *Engine) WriteStatusText(w io.Writer) {
	d := e.statusz()
	fmt.Fprintf(w, "svdd version=%s go=%s uptime=%s policy=%s telemetry=%v open_streams=%d\n",
		d.Version, d.GoVersion, d.Uptime, d.Policy, d.Telemetry, len(d.Streams))
	c := d.Counters
	fmt.Fprintf(w, "counters opened=%d closed=%d batches=%d events=%d batches_shed=%d streams_shed=%d streams_handed_off=%d detector_reuses=%d\n",
		c.StreamsOpened, c.StreamsClosed, c.Batches, c.Events, c.BatchesShed, c.StreamsShed, c.StreamsHandedOff, c.DetectorReuses)
	if cl := d.Cluster; cl != nil {
		fmt.Fprintf(w, "cluster node=%s epoch=%d ring_version=%d members=%d handoffs_in_flight=%d misroutes=%d forwarded_frames=%d handoffs_out=%d handoffs_in=%d members_down=%d\n",
			cl.Self, cl.Epoch, cl.RingVersion, len(cl.Members), cl.HandoffsInFlight,
			cl.Misroutes, cl.ForwardedFrames, cl.HandoffsOut, cl.HandoffsIn, cl.MembersDown)
		for _, n := range cl.Nodes {
			fmt.Fprintf(w, "cluster_member id=%s addr=%q self=%v streams=%d\n", n.ID, n.Addr, n.Self, n.Streams)
		}
	}
	if j := d.Journal; j != nil {
		fmt.Fprintf(w, "journal dir=%q segments=%d active_bytes=%d total_bytes=%d records=%d bytes=%d rotations=%d append_errors=%d oldest=%q newest=%q fsync_p50=%s fsync_p99=%s compaction_removed=%d\n",
			j.Dir, j.Segments, j.ActiveBytes, j.TotalBytes,
			j.AppendedRecords, j.AppendedBytes, j.Rotations, j.AppendErrors,
			fmtAge(d.TakenUnixNano, j.OldestUnixNano), fmtAge(d.TakenUnixNano, j.NewestUnixNano),
			fmtNs(d.JournalFsync.P50), fmtNs(d.JournalFsync.P99),
			j.LastCompaction.Removed)
	}
	for _, s := range d.Shards {
		fmt.Fprintf(w, "shard id=%d queue=%d/%d hwm=%d busy=%.3f batches=%d events=%d qwait_p50=%s qwait_p99=%s step_p50=%s step_p99=%s wire_p50=%s wire_p99=%s\n",
			s.ID, s.QueueLen, s.QueueCap, s.QueueHWM, s.Busy, s.Batches, s.Events,
			fmtNs(s.QueueWaitNs.P50), fmtNs(s.QueueWaitNs.P99),
			fmtNs(s.StepNs.P50), fmtNs(s.StepNs.P99),
			fmtNs(s.WireNs.P50), fmtNs(s.WireNs.P99))
	}
	for i, s := range d.Streams {
		if i == d.Shown {
			fmt.Fprintf(w, "streams_truncated count=%d\n", d.Truncated)
			break
		}
		state := "ok"
		if s.Poisoned {
			state = "poisoned"
		}
		fmt.Fprintf(w, "stream id=%d workload=%q seed=%d shard=%d frames=%d events=%d wire_bytes=%d shed=%d state=%s last_active=%q\n",
			s.ID, s.Workload, s.Seed, s.Shard, s.Frames, s.Events, s.WireBytes, s.Shed,
			state, fmtAge(d.TakenUnixNano, s.LastActiveUnixNano))
	}
}

// StatuszHandler serves the live status page. Workload names come off
// the wire from untrusted peers, so the HTML path goes through
// html/template's contextual escaping rather than string pasting.
func (e *Engine) StatuszHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			e.WriteStatusText(w)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_ = statuszTmpl.Execute(w, e.statusz())
	})
}

// StatusSummary is one compact status line for the periodic slog ticker:
// engine counters plus queue/latency highlights, cheap enough to log
// every few seconds.
func (e *Engine) StatusSummary() []any {
	sn := e.Snapshot()
	var depth, hwm int
	var busy float64
	var wire obs.Summary
	for i, s := range sn.Shards {
		depth += s.QueueLen
		if s.QueueHWM > hwm {
			hwm = s.QueueHWM
		}
		if s.Busy > busy {
			busy = s.Busy
		}
		if i == 0 || s.WireNs.P99 > wire.P99 {
			wire = s.WireNs
		}
	}
	return []any{
		"open", len(sn.Streams),
		"opened", sn.Counters.StreamsOpened,
		"closed", sn.Counters.StreamsClosed,
		"events", sn.Counters.Events,
		"shed", sn.Counters.BatchesShed,
		"queue", depth,
		"queue_hwm", hwm,
		"busy", fmt.Sprintf("%.2f", busy),
		"wire_p99", fmtNs(wire.P99),
	}
}
