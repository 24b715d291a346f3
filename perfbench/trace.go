package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/frd"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/svd"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// The traced run is the per-layer cost ledger: the workload's recorded
// streams replayed in-process through a growing stack of the served
// path, one layer added per step, on one OS thread (GOMAXPROCS=1) so a
// wall-clock interval is CPU time. The benchmark's own code wraps every
// public call it makes in a span; a layer whose work runs on goroutines
// the benchmark does not drive (the engine's shard worker, cluster
// sessions) is costed as the difference between consecutive steps.

// span is one timed public call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Stream int32  `json:"stream"`
	Step   int8   `json:"step"`
}

// tracer keeps spans in memory; a nil tracer records nothing, which is
// the untraced replay trace_overhead_pct compares against.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int32
	stream int32
	step   int8
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Stream: t.stream, Step: t.step})
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// self sums each span name's self time (span minus children) and call
// count over one step.
func (t *tracer) self(step int8) (map[string]int64, map[string]int) {
	ns := map[string]int64{}
	calls := map[string]int{}
	child := make(map[int32]int64)
	for i := len(t.spans) - 1; i >= 0; i-- {
		s := t.spans[i]
		if s.Step != step {
			continue
		}
		d := s.End - s.Start
		ns[s.Name] += d - child[int32(i)]
		calls[s.Name]++
		if s.Parent >= 0 {
			child[s.Parent] += d
		}
	}
	return ns, calls
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledger runs the stack over recs and collects what the steps observe.
type ledger struct {
	recs []*recording
	tr   *tracer

	events, frames uint64 // per pass; frames counts Events frames
	walls          map[int8]time.Duration
	mismatch       []string

	handoffMs                 []float64
	handoffs                  uint64
	histBytes                 []int
	resultLen                 []int
	footprint                 []int
	remoteSent, remoteSkipped uint64
	journalBytes              uint64
}

func (l *ledger) check(rec *recording, got []byte, where string) {
	if !bytes.Equal(got, rec.want) && len(l.mismatch) < 5 {
		l.mismatch = append(l.mismatch, fmt.Sprintf("%s: %s seed %d verdict differs from report.Run", where, rec.workload, rec.seed))
	}
}

// reps is how many interleaved passes the stack makes over all its
// steps. A step's wall time is its fastest pass and its span self times
// are summed over every pass; interleaving lets a slow stretch of the
// host hit every step alike instead of one.
const reps = 3

// timed runs fn once for every stream under step and keeps the step's
// fastest wall time so far.
func (l *ledger) timed(step int8, fn func(i int, rec *recording)) {
	if l.tr != nil {
		l.tr.step = step
	}
	runtime.GC()
	t0 := time.Now()
	for i, rec := range l.recs {
		if l.tr != nil {
			l.tr.stream = int32(i)
		}
		fn(i, rec)
	}
	if d, ok := l.walls[step]; !ok || time.Since(t0) < d {
		l.walls[step] = time.Since(t0)
	}
}

// nsPerEvent is a step's fastest pass per replayed event.
func (l *ledger) nsPerEvent(step int8) float64 {
	return float64(l.walls[step]) / float64(l.events)
}

func workloadOf(rec *recording) *workloads.Workload {
	w, err := workloads.ByName(rec.workload, 1, rec.seed)
	if err != nil {
		panic(err)
	}
	return w
}

// Step 1: the bare VM, the producer the paper's §7.3 slowdown is
// measured against.
func (l *ledger) vmOnly(i int, rec *recording) {
	w := workloadOf(rec)
	m, _ := w.NewVM(rec.seed)
	m.AttachColumns(vm.ColumnFunc(func(*vm.EventBatch) {}))
	s := l.tr.begin("vm.VM.Run")
	_, _ = m.Run(maxSteps)
	l.tr.end(s)
}

// Step 2: the VM plus both detectors' StepColumns, then the close-time
// classification and result encoding every served stream pays.
func (l *ledger) detectors(witness bool) func(i int, rec *recording) {
	return func(i int, rec *recording) {
		w := workloadOf(rec)
		m, _ := w.NewVM(rec.seed)
		sd := svd.New(w.Prog, w.NumThreads, svd.Options{Witness: witness})
		fd := frd.New(w.Prog, w.NumThreads, frd.Options{Witness: witness})
		m.SetColumnBlockShift(0)
		m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
			s := l.tr.begin("svd.Detector.StepColumns")
			sd.StepColumns(eb)
			l.tr.end(s)
			s = l.tr.begin("frd.Detector.StepColumns")
			fd.StepColumns(eb)
			l.tr.end(s)
		}))
		s := l.tr.begin("vm.VM.Run")
		_, _ = m.Run(maxSteps)
		l.tr.end(s)
		s = l.tr.begin("report.Classify")
		sample := report.Classify(w, rec.seed, sd, fd)
		l.tr.end(s)
		s = l.tr.begin("json.Marshal")
		data, _ := json.Marshal(sample)
		l.tr.end(s)
		if witness == rec.witness {
			l.check(rec, data, "detector step")
			st := sd.Stats()
			l.remoteSent += st.RemoteSent
			l.remoteSkipped += st.RemoteSkipped
			l.footprint = append(l.footprint, sd.Footprint().ApproxBytes)
			l.resultLen = append(l.resultLen, len(data))
		}
	}
}

// Step 3: wire decode alone, frame by frame into a columnar batch.
func (l *ledger) decodeOnly(i int, rec *recording) {
	w := workloadOf(rec)
	d := wire.NewDeframer(bytes.NewReader(rec.full()))
	if _, err := d.ReadFrame(); err != nil {
		panic(err)
	}
	d.SetProgram(w.Prog, w.NumThreads)
	eb := vm.NewEventBatch(vm.DefaultBatchCap)
	eb.EnableBlocks(0)
	for {
		s := l.tr.begin("wire.Deframer.ReadFrameInto")
		fr, err := d.ReadFrameInto(eb)
		l.tr.end(s)
		if err != nil || fr.Type != wire.FrameEvents {
			return
		}
	}
}

// Step 3b: wire decode feeding both detectors directly — the served
// path minus the engine, so step 4 minus this step is the engine alone.
func (l *ledger) decodeDetect(i int, rec *recording) {
	w := workloadOf(rec)
	d := wire.NewDeframer(bytes.NewReader(rec.full()))
	if _, err := d.ReadFrame(); err != nil {
		panic(err)
	}
	d.SetProgram(w.Prog, w.NumThreads)
	sd := svd.New(w.Prog, w.NumThreads, svd.Options{Witness: rec.witness})
	fd := frd.New(w.Prog, w.NumThreads, frd.Options{Witness: rec.witness})
	eb := vm.NewEventBatch(vm.DefaultBatchCap)
	eb.EnableBlocks(0)
	for {
		s := l.tr.begin("wire.Deframer.ReadFrameInto")
		fr, err := d.ReadFrameInto(eb)
		l.tr.end(s)
		if err != nil || fr.Type != wire.FrameEvents {
			return
		}
		s = l.tr.begin("svd.Detector.StepColumns")
		sd.StepColumns(eb)
		l.tr.end(s)
		s = l.tr.begin("frd.Detector.StepColumns")
		fd.StepColumns(eb)
		l.tr.end(s)
	}
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// Steps 4–6: wire decode feeding the server engine through its public
// stream API, the way a session drives it, optionally with telemetry
// and a journal.
func (l *ledger) engineStack(eng *server.Engine, jw *journal.Writer) func(i int, rec *recording) {
	return func(i int, rec *recording) {
		w := workloadOf(rec)
		d := wire.NewDeframer(bytes.NewReader(rec.full()))
		fr, err := d.ReadFrame()
		if err != nil {
			panic(err)
		}
		s := l.tr.begin("server.Engine.OpenStream")
		st, err := eng.OpenStream(fr.Hello, "")
		l.tr.end(s)
		if err != nil {
			panic(err)
		}
		d.SetProgram(w.Prog, w.NumThreads)
		if jw != nil {
			hdr, payload := d.RawFrame()
			s = l.tr.begin("journal.Writer.Append")
			_, _ = jw.Append(journal.Meta{Kind: journal.KindHello, Stream: st.ID()}, hdr, payload)
			l.tr.end(s)
		}
		for {
			s = l.tr.begin("server.Stream.GetBatch")
			eb := st.GetBatch()
			l.tr.end(s)
			s = l.tr.begin("wire.Deframer.ReadFrameInto")
			fr, err := d.ReadFrameInto(eb)
			l.tr.end(s)
			if err != nil {
				panic(err)
			}
			if fr.Type != wire.FrameEvents {
				st.PutBatch(eb)
				break
			}
			st.NoteWireBytes(d.LastFrameBytes())
			if jw != nil {
				n := eb.Len()
				hdr, payload := d.RawFrame()
				s = l.tr.begin("journal.Writer.Append")
				loc, err := jw.Append(journal.Meta{Kind: journal.KindEvents, Stream: st.ID(), FirstSeq: eb.Seq[0], LastSeq: eb.Seq[n-1]}, hdr, payload)
				l.tr.end(s)
				if err == nil {
					s = l.tr.begin("server.Stream.IngestBatchJournaled")
					st.IngestBatchJournaled(eb, 0, loc)
					l.tr.end(s)
					continue
				}
			}
			s = l.tr.begin("server.Stream.IngestBatch")
			st.IngestBatch(eb)
			l.tr.end(s)
		}
		if jw != nil {
			hdr, payload := d.RawFrame()
			s = l.tr.begin("journal.Writer.Append")
			_, _ = jw.Append(journal.Meta{Kind: journal.KindGoodbye, Stream: st.ID()}, hdr, payload)
			l.tr.end(s)
		}
		s = l.tr.begin("server.Stream.Close")
		sample, err := st.Close()
		l.tr.end(s)
		if err != nil {
			panic(err)
		}
		s = l.tr.begin("json.Marshal")
		data, _ := json.Marshal(sample)
		l.tr.end(s)
		l.check(rec, data, "engine stack")
		if jw != nil {
			s = l.tr.begin("journal.Writer.Append(result)")
			_, _ = jw.Append(journal.Meta{Kind: journal.KindResult, Stream: st.ID()}, nil, data)
			l.tr.end(s)
		}
	}
}

func newEngine(telemetry bool, jw *journal.Writer) *server.Engine {
	return server.New(server.Options{
		Shards: 1, Obs: obs.NewSink(obs.SinkOptions{}), Telemetry: telemetry, Journal: jw, Logger: quiet,
	})
}

func shutdown(eng *server.Engine) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = eng.Shutdown(ctx)
}

// pipeCluster is an in-process cluster: nodes reach each other over
// net.Pipe through the ClusterOptions.Dial hook.
type pipeCluster struct {
	nodes map[string]*server.ClusterServer
	engs  []*server.Engine
}

func newPipeCluster(ids ...string) *pipeCluster {
	pc := &pipeCluster{nodes: map[string]*server.ClusterServer{}}
	var ms []cluster.Member
	for _, id := range ids {
		ms = append(ms, cluster.Member{ID: id, Addr: id})
	}
	for _, id := range ids {
		eng := newEngine(true, nil)
		rt := cluster.NewRouter(id, cluster.NewView(1, ms))
		pc.nodes[id] = server.NewClusterServer(eng, rt, server.ClusterOptions{PeerToken: "perfbench", Dial: pc.dial})
		pc.engs = append(pc.engs, eng)
	}
	return pc
}

func (pc *pipeCluster) dial(addr string) (net.Conn, error) {
	cs, ok := pc.nodes[addr]
	if !ok {
		return nil, fmt.Errorf("no node %q", addr)
	}
	c, s := net.Pipe()
	go cs.ServeConn(s)
	return c, nil
}

func (pc *pipeCluster) close() {
	for _, e := range pc.engs {
		shutdown(e)
	}
}

// clusterStream sends one recording into node entry of pc under key
// and reads its Result; with handoff set, it moves the key to node
// to halfway through with Router.ApplyAssignment and times the new
// owner's replay.
func (l *ledger) clusterStream(pc *pipeCluster, entry, key string, rec *recording, handoff string) {
	conn, _ := pc.dial(entry)
	defer conn.Close()
	d := wire.NewDeframer(conn)
	d.ExpectResults()
	if _, err := conn.Write(rec.helloFor(key)); err != nil {
		panic(err)
	}
	mid := len(rec.body)
	k := rec.frames() / 2
	if handoff != "" {
		mid = rec.ends[k-1]
	}
	if _, err := conn.Write(rec.body[:mid]); err != nil {
		panic(err)
	}
	if handoff != "" {
		target := pc.nodes[handoff]
		base := target.Engine().Counters().Events
		src := pc.nodes[entry].Router()
		v := src.View()
		a := cluster.NewView(v.Epoch+1, []cluster.Member{{ID: handoff, Addr: handoff}}).Assignment("perfbench")
		t0 := time.Now()
		src.ApplyAssignment(a)
		next := rec.ends[k]
		if _, err := conn.Write(rec.body[mid:next]); err != nil {
			panic(err)
		}
		for target.Engine().Counters().Events < base+rec.cumEvents[k] {
			runtime.Gosched()
		}
		l.handoffMs = append(l.handoffMs, float64(time.Since(t0))/1e6)
		mid = next
		defer func() {
			// Restore the two-node view everywhere for the next stream.
			ms := []cluster.Member{{ID: entry, Addr: entry}, {ID: handoff, Addr: handoff}}
			for _, cs := range pc.nodes {
				cs.Router().ApplyAssignment(cluster.NewView(v.Epoch+2, ms).Assignment("perfbench"))
			}
		}()
	}
	// A zero-length net.Pipe write still waits for a reader; skip it.
	if mid < len(rec.body) {
		if _, err := conn.Write(rec.body[mid:]); err != nil {
			panic(err)
		}
	}
	fr, err := d.ReadFrame()
	if err != nil || fr.Type != wire.FrameResult {
		panic(fmt.Sprintf("cluster stack: %v %v", fr.Type, err))
	}
	l.check(rec, fr.Result.Sample, "cluster stack")
}

// layers runs the traced stack and reports the per-layer metrics,
// joined with the served run's outside-in counters.
func (b *bench) layers(m map[string]metric, h *human, closed, open *phaseStats, lagP99 float64) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	// The stack panics on an error the served path should never return;
	// that fails the run (correct=false) instead of crashing it.
	defer func() {
		if r := recover(); r != nil {
			b.problem("traced stack: %v", r)
		}
	}()
	recs := make([]*recording, b.spec.traceStreams)
	for i := range recs {
		recs[i] = b.recs[i%len(b.recs)]
	}
	l := &ledger{recs: recs, tr: &tracer{t0: time.Now()}, walls: map[int8]time.Duration{}}
	for _, r := range recs {
		l.events += r.events()
		l.frames += uint64(r.frames() - 1)
	}
	ev := float64(l.events)
	perEv := func(ns int64) float64 { return float64(ns) / ev / reps }

	view := cluster.NewView(1, []cluster.Member{{ID: "a", Addr: "a"}, {ID: "b", Addr: "b"}})
	var fwd uint64
	for pass := 0; pass < reps; pass++ {
		l.timed(1, l.vmOnly)
		l.timed(2, l.detectors(b.spec.witness))
		l.timed(12, l.detectors(!b.spec.witness))
		l.timed(3, l.decodeOnly)
		l.timed(13, l.decodeDetect)
		eng := newEngine(false, nil)
		l.timed(4, l.engineStack(eng, nil))
		shutdown(eng)
		eng = newEngine(true, nil)
		l.timed(5, l.engineStack(eng, nil))
		shutdown(eng)
		jw := openJournal(filepath.Join(b.dir, fmt.Sprintf("ledger-journal-%d", pass)))
		eng = newEngine(true, jw)
		l.timed(6, l.engineStack(eng, jw))
		shutdown(eng)
		l.journalBytes = jw.Stats().AppendedBytes
		_ = jw.Close()

		// Step 7: one cluster node's session (history capture, ownership
		// re-checks) over net.Pipe, on the telemetry engine without
		// journal, as the cluster daemons run.
		pc1 := newPipeCluster("a")
		l.timed(7, func(i int, rec *recording) { l.clusterStream(pc1, "a", "k", rec, "") })
		pc1.close()
		// Step 8: a second node; every stream enters at the non-owner and
		// is relayed raw.
		pc2 := newPipeCluster("a", "b")
		l.timed(8, func(i int, rec *recording) {
			l.clusterStream(pc2, "a", keyOwnedBy(view, rec, i, "b", -1, 1), rec, "")
		})
		fwd = pc2.nodes["a"].Router().Snapshot().ForwardedFrames
		// Step 9: every stream is owned by its entry node until halfway,
		// when a view change moves it to the other node.
		l.timed(9, func(i int, rec *recording) {
			l.clusterStream(pc2, "a", keyOwnedBy(view, rec, 1000+i, "a", -1, 1), rec, "b")
		})
		l.handoffs = pc2.nodes["a"].Router().Snapshot().HandoffsOut
		if want := uint64(len(recs)); l.handoffs != want {
			b.problem("traced stack handed off %d streams, the script moved %d", l.handoffs, want)
		}
		pc2.close()

		// The workload's top step untraced, for the tracing overhead.
		tr := l.tr
		l.tr = nil
		if b.spec.cluster {
			pc := newPipeCluster("a")
			l.timed(17, func(i int, rec *recording) { l.clusterStream(pc, "a", "k", rec, "") })
			pc.close()
		} else {
			jw := openJournal(filepath.Join(b.dir, fmt.Sprintf("ledger-journal-untraced-%d", pass)))
			eng := newEngine(true, jw)
			l.timed(16, l.engineStack(eng, jw))
			shutdown(eng)
			_ = jw.Close()
		}
		l.tr = tr
	}
	// Public cluster calls a session makes per frame, timed on their own.
	l.tr.step = 10
	rt := cluster.NewRouter("a", view)
	for i, rec := range recs {
		l.tr.stream = int32(i)
		hist := cluster.NewHistory(server.DefaultHistoryLimit)
		hist.Append(rec.hello[:frameHeader], rec.hello[frameHeader:])
		for k := 0; k < rec.frames()-1; k++ {
			f := rec.frame(k)
			s := l.tr.begin("cluster.History.Append")
			hist.Append(f[:frameHeader], f[frameHeader:])
			l.tr.end(s)
			s = l.tr.begin("cluster.Router.Owns")
			rt.Owns("k")
			l.tr.end(s)
		}
		l.histBytes = append(l.histBytes, hist.Len())
	}
	topStep, untracedStep := int8(6), int8(16)
	if b.spec.cluster {
		topStep, untracedStep = 7, 17
	}
	s1, s2, s3, s3b := l.nsPerEvent(1), l.nsPerEvent(2), l.nsPerEvent(3), l.nsPerEvent(13)
	s4, s5, s6, s7 := l.nsPerEvent(4), l.nsPerEvent(5), l.nsPerEvent(6), l.nsPerEvent(7)
	s8, s9 := l.nsPerEvent(8), l.nsPerEvent(9)

	self2, _ := l.tr.self(2)
	self12, _ := l.tr.self(12)
	self3, _ := l.tr.self(3)
	self13, _ := l.tr.self(13)
	self4, calls4 := l.tr.self(4)
	self6, calls6 := l.tr.self(6)
	self10, calls10 := l.tr.self(10)
	streams := float64(len(recs) * reps)
	frames := float64(l.frames)

	svdStep := perEv(self13["svd.Detector.StepColumns"])
	frdStep := perEv(self13["frd.Detector.StepColumns"])
	witOn, witOff := self2["svd.Detector.StepColumns"], self12["svd.Detector.StepColumns"]
	if !b.spec.witness {
		witOn, witOff = witOff, witOn
	}
	decode := perEv(self3["wire.Deframer.ReadFrameInto"])
	engine := s4 - s3b
	telemetry := s5 - s4
	journalLayer := s6 - s5
	session := s7 - s5
	relay := s8 - s7
	handoff := s9 - s7

	var cpuNs float64
	if closed != nil && closed.res.events > 0 {
		cpuNs = float64(closed.cpuNs) / float64(closed.res.events)
	}
	// The ledger: per-event self costs of the layers the workload's
	// daemons run, against their measured CPU per verified event.
	encode := perEv(self4["json.Marshal"])
	sum := decode + engine + svdStep + frdStep + telemetry
	rows := [][2]any{{"wire decode", decode}, {"server engine, less result encode", engine - encode},
		{"result encode (json.Marshal)", encode}, {"svd step", svdStep}, {"frd step", frdStep}, {"telemetry", telemetry}}
	if b.spec.journal {
		sum += journalLayer
		rows = append(rows, [2]any{"journal", journalLayer})
	}
	if b.spec.cluster {
		// One stream in relayEvery is relayed; the closed loop, whose CPU
		// the sum is set against, scripts no handoffs.
		sum += session + relay/relayEvery
		rows = append(rows, [2]any{"cluster session", session}, [2]any{"relay (one stream in three)", relay / relayEvery})
	}
	h.line("ledger (traced stack, GOMAXPROCS=1, %d streams, %d events; vm producer %.1f ns/event):", len(recs), l.events, s1)
	for _, r := range rows {
		h.line("  %-40s %10.2f ns/event", r[0], r[1])
	}
	h.line("  %-40s %10.2f ns/event", "sum", sum)
	h.line("  %-40s %10.2f ns/event (closed-loop svdd utime+stime / verified events)", "server.cpu_ns_per_event", cpuNs)
	h.line("  step wall ns/event: 1 vm %.1f | 2 +svd/frd %.1f | 3 decode %.1f (+svd/frd %.1f) | 4 +engine %.1f | 5 +telemetry %.1f | 6 +journal %.1f | 7 +cluster session %.1f | 8 +relay %.1f | 9 +handoff %.1f",
		s1, s2, s3, s3b, s4, s5, s6, s7, s8, s9)
	for _, msg := range l.mismatch {
		b.problem("%s", msg)
	}

	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("vm.run_ns_per_event", s1, "ns")
	set("wire.decode_ns_per_event", decode, "ns")
	set("wire.bytes_per_event", float64(totalBytes(recs))/ev, "B")
	set("server.open_us", float64(self4["server.Engine.OpenStream"])/float64(max(calls4["server.Engine.OpenStream"], 1))/1e3, "us")
	set("server.engine_ns_per_event", engine, "ns")
	set("server.close_ms", float64(self4["server.Stream.Close"])/float64(max(calls4["server.Stream.Close"], 1))/1e6, "ms")
	set("server.cpu_ns_per_event", cpuNs, "ns")
	if closed != nil && closed.res.events > 0 {
		set("server.alloc_bytes_per_event", float64(closed.allocB)/float64(closed.res.events), "B")
	} else {
		set("server.alloc_bytes_per_event", 0, "B")
	}
	if open != nil {
		set("server.gc_pause_ms", float64(open.pauseNs)/1e6, "ms")
		set("server.retained_kb_per_stream", open.rssGrowKB/float64(len(open.plans)), "KB")
	} else {
		set("server.gc_pause_ms", 0, "ms")
		set("server.retained_kb_per_stream", 0, "KB")
	}
	set("svd.step_ns_per_event", svdStep, "ns")
	set("svd.witness_ns_per_event", perEv(witOn-witOff), "ns")
	skip := 0.0
	if t := l.remoteSent + l.remoteSkipped; t > 0 {
		skip = float64(l.remoteSkipped) / float64(t)
	}
	set("svd.remote_skip_ratio", skip, "ratio")
	set("svd.footprint_kb", meanInt(l.footprint)/1024, "KB")
	set("frd.step_ns_per_event", frdStep, "ns")
	set("report.classify_us", float64(self2["report.Classify"])/streams/1e3, "us")
	set("report.encode_ms", float64(self4["json.Marshal"])/streams/1e6, "ms")
	set("report.result_kb", meanInt(l.resultLen)/1024, "KB")
	set("obs.telemetry_ns_per_batch", telemetry*ev/frames, "ns")
	set("journal.append_ns_per_frame", float64(self6["journal.Writer.Append"])/float64(max(calls6["journal.Writer.Append"], 1)), "ns")
	set("journal.result_append_ms", float64(self6["journal.Writer.Append(result)"])/streams/1e6, "ms")
	set("journal.bytes_per_event", float64(l.journalBytes)/ev, "B")
	set("cluster.history_append_ns_per_frame", float64(self10["cluster.History.Append"])/float64(max(calls10["cluster.History.Append"], 1)), "ns")
	set("cluster.history_mb_per_stream", meanInt(l.histBytes)/(1<<20), "MB")
	set("cluster.owns_ns_per_frame", float64(self10["cluster.Router.Owns"])/float64(max(calls10["cluster.Router.Owns"], 1)), "ns")
	set("cluster.relay_ns_per_frame", relay*ev/frames, "ns")
	if b.spec.cluster && closed != nil && open != nil {
		set("cluster.forwarded_frames_per_stream", closed.forwarded/float64(len(closed.plans)), "count")
		set("cluster.handoff_ms", median(open.handoffMs), "ms")
		set("cluster.handoffs", open.handOut, "count")
	} else {
		set("cluster.forwarded_frames_per_stream", float64(fwd)/float64(len(recs)), "count")
		set("cluster.handoff_ms", median(l.handoffMs), "ms")
		set("cluster.handoffs", float64(l.handoffs), "count")
	}
	set("gen.lag_p99_ms", lagP99, "ms")
	set("ledger.unattributed_ns_per_event", cpuNs-sum, "ns")
	set("ledger.trace_overhead_pct", (l.nsPerEvent(topStep)/l.nsPerEvent(untracedStep)-1)*100, "%")
	h.line("  step 9 handoff extra %.2f ns/event over step 7; traced vs untraced step %d: %.2f%%", handoff, topStep, m["ledger.trace_overhead_pct"].Value)

	if err := l.tr.write(filepath.Join(filepath.Dir(b.dir), "trace-"+b.spec.name+".jsonl")); err != nil {
		b.problem("writing spans: %v", err)
	}
}

func openJournal(dir string) *journal.Writer {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	p, err := journal.OpenDir(dir)
	if err != nil {
		panic(err)
	}
	jw, err := journal.OpenWriter(p, journal.Options{})
	if err != nil {
		panic(err)
	}
	return jw
}

func totalBytes(recs []*recording) int {
	n := 0
	for _, r := range recs {
		n += len(r.hello) + len(r.body)
	}
	return n
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}
