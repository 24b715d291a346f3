// Command perfbench is the detection service's served-path benchmark.
// It replays pre-recorded, byte-exact wire streams to real svdd
// processes, verifies every verdict against an in-process report.Run,
// and prints the end-to-end metrics of one workload as a JSON line. With
// -trace 1 it also replays the same streams in-process through a
// growing stack of the served path and prints per-layer costs.
//
// Usage (from the repository root, after building cmd/svdd):
//
//	perfbench -svdd .bench_build/svdd -workload ingest -seed 1 -seconds 35 -trace 0
//
// See README.md for the workloads, metrics and their definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/report"
)

// spec is one workload: the traffic mix, the daemon configuration, and
// the phase sizes per second of -seconds.
type spec struct {
	name    string
	wl      string // registry workload replayed
	witness bool   // Hello asks for witnesses
	cycle   int    // distinct seeds recorded and cycled through
	journal bool   // svdd -journal
	cluster bool   // two svdd -cluster nodes instead of one svdd

	// Streams served by the closed- and open-loop phases of a run of
	// refSeconds; other run lengths scale them. Fixed work, however fast
	// the daemon is.
	closedStreams, openStreams int
	// openRate is the open loop's offered load in events/s.
	openRate float64
	// openPhases is how many open-loop phases (each on fresh daemons)
	// pool their latency samples.
	openPhases int
	// handoffs is the number of scripted view changes per open phase.
	handoffs int
	// traceStreams is how many recordings the traced stack replays.
	traceStreams int
}

var specs = []spec{
	{name: "ingest", wl: "pgsql-oltp", cycle: 3, journal: true,
		closedStreams: 50, openStreams: 60, openRate: 2.4e6, openPhases: 1, traceStreams: 2},
	{name: "forensic", wl: "queue-fixed", witness: true, cycle: 8, journal: true,
		closedStreams: 120, openStreams: 120, openRate: 4.5e5, openPhases: 2, traceStreams: 8},
	{name: "cluster", wl: "pgsql-oltp", cycle: 3, cluster: true,
		closedStreams: 50, openStreams: 60, openRate: 2.4e6, openPhases: 1, handoffs: 2, traceStreams: 2},
}

// refSeconds is the run length the phase sizes are given for.
const refSeconds = 35

// connections is the load generator's connection count: nproc on the
// reference host, one per node in cluster mode.
const connections = 2

// setupOnly is how many extra launch-and-warm-up cycles a run makes on
// top of the two phases', so setup_s is a median of several.
const setupOnly = 7

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type bench struct {
	spec   spec
	svdd   string
	dir    string
	recs   []*recording
	shards int // svdd's default -shards on this host: GOMAXPROCS

	mu        sync.Mutex
	live      []*daemon
	attempted int
	failed    int
	problems  []string
	setups    []float64
	launches  int
}

func main() {
	var (
		workload = flag.String("workload", "ingest", "workload to run: ingest, forensic or cluster")
		seed     = flag.Uint64("seed", 1, "input seed: picks the recorded executions")
		seconds  = flag.Int("seconds", refSeconds, "run length; phases serve a fixed number of streams proportional to it")
		trace    = flag.Int("trace", 0, "1 = also run the traced in-process stack and print per-layer metrics")
		svddBin  = flag.String("svdd", ".bench_build/svdd", "svdd binary built from the tree under test")
		work     = flag.String("work", ".bench_build", "work directory for daemon logs, journals and traces")
	)
	flag.Parse()
	var sp *spec
	for i := range specs {
		if specs[i].name == *workload {
			sp = &specs[i]
		}
	}
	if sp == nil || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatal(err)
	}
	b := &bench{spec: *sp, svdd: *svddBin, dir: dir, shards: runtime.GOMAXPROCS(0)}
	defer b.cleanup()

	// The whole run must end well inside the caller's 180 s budget; a
	// wedged daemon or generator fails the run instead of hanging it.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: run exceeded 170s")
		b.cleanup()
		os.Exit(3)
	})
	defer watchdog.Stop()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		b.cleanup()
		os.Exit(4)
	}()

	if err := b.record(*seed); err != nil {
		b.cleanup()
		fatal(err)
	}
	out := b.run(*seconds, *trace == 1)
	b.cleanup()
	js, _ := json.Marshal(out)
	fmt.Println(string(js))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// record pre-encodes the workload's seed cycle, two at a time.
func (b *bench) record(seed uint64) error {
	b.recs = make([]*recording, b.spec.cycle)
	errs := make([]error, b.spec.cycle)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i := range b.recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			b.recs[i], errs[i] = record(b.spec.wl, seed*1000+uint64(i), b.spec.witness)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) problem(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		b.problems = append(b.problems, msg)
	}
}

func (b *bench) count(res *phaseResult, plans []*stream) {
	b.mu.Lock()
	b.attempted += len(plans)
	b.failed += res.failed
	b.mu.Unlock()
	for _, s := range plans {
		if o := res.outcomes[s.idx]; !o.ok {
			b.problem("stream %d (%s seed %d): %s", s.idx, s.rec.workload, s.rec.seed, o.err)
		}
	}
}

// cleanup stops every daemon still running and removes the run's
// work files (journals, logs).
func (b *bench) cleanup() {
	b.mu.Lock()
	live := b.live
	b.live = nil
	b.mu.Unlock()
	for _, d := range live {
		d.stop()
	}
	os.RemoveAll(b.dir)
}

func (b *bench) stopAll(nodes []*daemon) {
	for _, d := range nodes {
		d.stop()
	}
	b.mu.Lock()
	keep := b.live[:0]
	for _, d := range b.live {
		stopped := false
		for _, n := range nodes {
			stopped = stopped || n == d
		}
		if !stopped {
			keep = append(keep, d)
		}
	}
	b.live = keep
	b.mu.Unlock()
}

// deployment is one launch of the workload's daemons.
type deployment struct {
	nodes  []*daemon
	view   *cluster.View // cluster mode: the initial view
	pusher *viewPusher
	served []*report.Sample // verified samples, for the cluster /report check
}

func (dep *deployment) addrs() []string {
	out := make([]string, connections)
	for i := range out {
		out[i] = dep.nodes[i%len(dep.nodes)].wireAddr
	}
	return out
}

// launch starts the workload's daemons and measures set-up: from the
// first process launch to the first verified warm-up Result (in cluster
// mode, one per node, and both nodes serving under the same view). Free
// ports are picked by bind-and-release, which can race with the
// generator's own ephemeral ports; a daemon that loses that race exits
// at once and the launch is retried on fresh ports.
func (b *bench) launch() (*deployment, error) {
	for attempt := 0; ; attempt++ {
		dep, err := b.launchOnce()
		if err == errPortRace && attempt < 3 {
			continue
		}
		return dep, err
	}
}

var errPortRace = errors.New("listen address taken")

func (b *bench) launchOnce() (*deployment, error) {
	b.launches++
	dep := &deployment{}
	n := 1
	if b.spec.cluster {
		n = len(nodeIDs)
	}
	wires, https := make([]string, n), make([]string, n)
	for i := range wires {
		var err error
		if wires[i], err = freeAddr(); err != nil {
			return nil, err
		}
		if https[i], err = freeAddr(); err != nil {
			return nil, err
		}
	}
	var peers string
	if b.spec.cluster {
		peers = peersSpec(wires, https)
		var err error
		if dep.pusher, err = newViewPusher(peers); err != nil {
			return nil, err
		}
		dep.view = cluster.NewView(1, dep.pusher.members)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		var extra []string
		if b.spec.journal {
			jdir := filepath.Join(b.dir, fmt.Sprintf("journal-%d-%d", b.launches, i))
			if err := os.MkdirAll(jdir, 0o755); err != nil {
				return nil, err
			}
			extra = append(extra, "-journal", jdir)
		}
		if b.spec.cluster {
			extra = append(extra, "-cluster", "-node-id", nodeIDs[i], "-peers", peers)
		}
		d, err := startDaemon(b.svdd, b.dir, fmt.Sprintf("svdd-%d-%d", b.launches, i), wires[i], https[i], extra...)
		if err != nil {
			b.stopAll(dep.nodes)
			return nil, err
		}
		b.mu.Lock()
		b.live = append(b.live, d)
		b.mu.Unlock()
		dep.nodes = append(dep.nodes, d)
	}
	// Warm-up: one stream per node, keyed to stay on that node.
	warm := make([]*stream, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, d := range dep.nodes {
		rec := b.recs[0]
		s := &stream{idx: i, rec: rec, hello: rec.hello}
		if b.spec.cluster {
			s.hello = rec.helloFor(keyOwnedBy(dep.view, rec, -1-i, nodeIDs[i], -1, 1))
		}
		warm[i] = s
		wg.Add(1)
		go func(i int, d *daemon) {
			defer wg.Done()
			c, err := d.dial(20 * time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			cl := &client{conn: c, d: newResultDeframer(c)}
			defer cl.close()
			errs[i] = cl.runStream(warm[i])
		}(i, d)
	}
	wg.Wait()
	var failed []string
	for i, err := range errs {
		if err != nil {
			if dep.nodes[i].lostPortRace() {
				b.stopAll(dep.nodes)
				return nil, errPortRace
			}
			failed = append(failed, fmt.Sprintf("warm-up on %s: %v", dep.nodes[i].name, err))
			continue
		}
		dep.served = append(dep.served, warm[i].rec.wantSample)
	}
	b.mu.Lock()
	b.attempted += n
	b.failed += len(failed)
	b.mu.Unlock()
	if len(failed) > 0 {
		b.stopAll(dep.nodes)
		return nil, errors.New(strings.Join(failed, "; "))
	}
	if b.spec.cluster {
		if err := sameView(dep.nodes); err != nil {
			b.stopAll(dep.nodes)
			return nil, err
		}
	}
	b.setups = append(b.setups, time.Since(t0).Seconds())
	return dep, nil
}

// sameView checks that every node serves under the same view.
func sameView(nodes []*daemon) error {
	var want string
	for i, d := range nodes {
		m, err := d.metrics()
		for deadline := time.Now().Add(5 * time.Second); err != nil && time.Now().Before(deadline); {
			time.Sleep(20 * time.Millisecond)
			m, err = d.metrics()
		}
		if err != nil {
			return fmt.Errorf("%v (log: %s)", err, d.logTail())
		}
		got := fmt.Sprintf("epoch %g ring %g members %g", m["svdd_cluster_epoch"], m["svdd_cluster_ring_version"], m["svdd_cluster_members"])
		if i == 0 {
			want = got
		} else if got != want {
			return fmt.Errorf("nodes disagree on the view: %s vs %s", want, got)
		}
	}
	return nil
}

// phaseStats is the outside-in accounting of one phase.
type phaseStats struct {
	res       *phaseResult
	plans     []*stream
	cpuNs     uint64  // Σ utime+stime delta over the phase's daemons
	allocB    uint64  // Σ memstats TotalAlloc delta
	pauseNs   uint64  // Σ memstats PauseTotalNs delta
	rssGrowKB float64 // Σ VmRSS delta
	hwmKB     uint64  // Σ VmHWM at the phase end
	forwarded float64 // Σ svdd_cluster_forwarded_total delta
	handIn    float64 // Σ svdd_cluster_handoffs_total{direction="in"} delta
	handOut   float64
	handoffMs []float64
}

func snapshots(nodes []*daemon) ([]snapshot, error) {
	out := make([]snapshot, len(nodes))
	for i, d := range nodes {
		var err error
		if out[i], err = d.snapshot(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// phase launches fresh daemons, runs one load phase against them, and
// reads their counters around it.
func (b *bench) phase(open bool, n int) (*phaseStats, error) {
	dep, err := b.launch()
	if err != nil {
		return nil, err
	}
	defer b.stopAll(dep.nodes)
	ps := &phaseStats{}
	if open {
		ps.plans = b.openPlans(dep, n, ps)
	} else {
		ps.plans = b.closedPlans(dep, n)
	}
	before, err := snapshots(dep.nodes)
	if err != nil {
		return nil, err
	}
	if open {
		ps.res = openLoop(dep.addrs(), ps.plans)
	} else {
		ps.res = closedLoop(dep.addrs(), ps.plans)
	}
	after, err := snapshots(dep.nodes)
	if err != nil {
		return nil, err
	}
	b.count(ps.res, ps.plans)
	for i := range dep.nodes {
		s0, s1 := before[i], after[i]
		ps.cpuNs += s1.proc.cpuNs - s0.proc.cpuNs
		ps.allocB += s1.mem.TotalAlloc - s0.mem.TotalAlloc
		ps.pauseNs += s1.mem.PauseTotalNs - s0.mem.PauseTotalNs
		ps.rssGrowKB += float64(s1.proc.rssKB) - float64(s0.proc.rssKB)
		ps.hwmKB += s1.proc.hwmKB
		ps.forwarded += metricSum(s1.metrics, "svdd_cluster_forwarded_total") - metricSum(s0.metrics, "svdd_cluster_forwarded_total")
		ps.handIn += metricSum(s1.metrics, `svdd_cluster_handoffs_total{direction="in"}`) - metricSum(s0.metrics, `svdd_cluster_handoffs_total{direction="in"}`)
		ps.handOut += metricSum(s1.metrics, `svdd_cluster_handoffs_total{direction="out"}`) - metricSum(s0.metrics, `svdd_cluster_handoffs_total{direction="out"}`)
	}
	if b.spec.cluster {
		for _, s := range ps.plans {
			if ps.res.outcomes[s.idx].ok {
				dep.served = append(dep.served, s.rec.wantSample)
			}
		}
		if err := verifyClusterReport(dep.nodes[0], dep.served); err != nil {
			b.problem("%v", err)
		}
		want := 0.0
		if open {
			want = float64(b.spec.handoffs)
		}
		if ps.handIn != want || ps.handOut != want {
			b.problem("cluster handed off %g streams out / %g in, the script pushed %g", ps.handOut, ps.handIn, want)
		}
	}
	return ps, nil
}

// relayEvery places the cluster's streams: every relayEvery-th stream
// is owned by the node its connection does not land on, so it is relayed
// raw; the rest are served where they land. One in three, not one in
// two: with exactly half relayed, the open loop's median fell in the
// gap between the local and the relayed latency modes and swung from
// run to run.
const relayEvery = 3

// keyFor picks a stream's routing key (cluster mode only) by the
// placement pattern above.
func (b *bench) keyFor(dep *deployment, s *stream) string {
	if !b.spec.cluster {
		return ""
	}
	owner := nodeIDs[s.conn%len(nodeIDs)]
	if s.idx%relayEvery == relayEvery-1 {
		owner = nodeIDs[(s.conn+1)%len(nodeIDs)]
	}
	return keyOwnedBy(dep.view, s.rec, s.idx, owner, s.conn, b.shards)
}

// closedPlans spreads n streams over the connections, stream i on
// connection i mod connections.
func (b *bench) closedPlans(dep *deployment, n int) []*stream {
	plans := make([]*stream, n)
	for i := range plans {
		rec := b.recs[i%len(b.recs)]
		s := &stream{idx: i, rec: rec, conn: i % connections}
		s.hello = rec.helloFor(b.keyFor(dep, s))
		plans[i] = s
	}
	return plans
}

// openPlans schedules n streams at the workload's offered rate: stream
// i is due at i·I (I = mean stream events / rate) on connection i mod 2
// and paces its frames over 1.6·I, so consecutive streams overlap on the
// two connections. In cluster mode, the scripted handoff streams run
// alone: they start after every earlier stream's Result is in, push a
// view that moves their key halfway through, and hold back the next
// stream until the original view is restored.
func (b *bench) openPlans(dep *deployment, n int, ps *phaseStats) []*stream {
	var mean float64
	for _, r := range b.recs {
		mean += float64(r.events())
	}
	mean /= float64(len(b.recs))
	interval := mean / b.spec.openRate // seconds
	span := 1.6 * interval
	handoffAt := map[int]bool{}
	for k := 1; k <= b.spec.handoffs; k++ {
		handoffAt[(k*n/(b.spec.handoffs+1))|1] = true
	}
	plans := make([]*stream, n)
	var cursor, lastEnd time.Duration
	var gate chan struct{}
	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	var mu sync.Mutex
	for i := range plans {
		rec := b.recs[i%len(b.recs)]
		s := &stream{idx: i, rec: rec, conn: i % connections, rate: float64(rec.events()) / span,
			start: cursor, gate: gate, done: make(chan struct{})}
		if handoffAt[i] && b.spec.cluster {
			s.start = max(cursor, lastEnd+sec(0.1*interval))
			g := make(chan struct{})
			gate = g
			b.scriptHandoff(dep, s, plans[:i], g, &mu, ps)
			s.hello = rec.helloFor(keyOwnedBy(dep.view, rec, i, nodeIDs[1], s.conn, b.shards))
			cursor = s.goodbyeDue() + sec(0.25*interval)
		} else {
			s.hello = rec.helloFor(b.keyFor(dep, s))
			cursor = s.start + sec(interval)
		}
		lastEnd = max(lastEnd, s.goodbyeDue())
		plans[i] = s
	}
	return plans
}

// scriptHandoff arms stream s (on connection 1, keyed to node b) to be
// handed off from b to a halfway through, and times the handoff from
// the view push to the moment a has ingested every event sent before
// the push — the new owner's replay done.
func (b *bench) scriptHandoff(dep *deployment, s *stream, earlier []*stream, gate chan struct{}, mu *sync.Mutex, ps *phaseStats) {
	na, nb := dep.nodes[0], dep.nodes[1]
	s.midFrame = s.rec.frames() / 2
	var polled chan struct{}
	s.mid = func() {
		for _, e := range earlier {
			waitFor(e.done, 60*time.Second)
		}
		m, err := na.metrics()
		if err != nil {
			b.problem("handoff: %v", err)
			return
		}
		target := m["svdd_ingest_events_total"] + float64(s.rec.cumEvents[s.midFrame])
		t0 := time.Now()
		if err := dep.pusher.push(nb.wireAddr, dep.pusher.next(nodeIDs[0])); err != nil {
			b.problem("handoff view push: %v", err)
			return
		}
		polled = make(chan struct{})
		go func() {
			defer close(polled)
			deadline := t0.Add(30 * time.Second)
			for time.Now().Before(deadline) {
				m, err := na.metrics()
				if err == nil && m["svdd_ingest_events_total"] >= target {
					mu.Lock()
					ps.handoffMs = append(ps.handoffMs, float64(time.Since(t0))/1e6)
					mu.Unlock()
					return
				}
				time.Sleep(500 * time.Microsecond)
			}
			b.problem("handoff: node a never finished the replay")
		}()
	}
	s.after = func() {
		defer close(gate)
		if polled == nil {
			return
		}
		<-polled
		v := dep.pusher.next(nodeIDs...)
		for _, d := range dep.nodes {
			if err := dep.pusher.push(d.wireAddr, v); err != nil {
				b.problem("view restore: %v", err)
			}
		}
	}
}

// waitFor blocks until ch is closed (a nil ch is open) or limit passes;
// a script step that never happens must not wedge the generator.
func waitFor(ch <-chan struct{}, limit time.Duration) {
	if ch == nil {
		return
	}
	select {
	case <-ch:
	case <-time.After(limit):
	}
}

// run measures the workload: extra set-up cycles, the closed-loop
// phase, the open-loop phase, and with trace the in-process ledger.
func (b *bench) run(seconds int, trace bool) map[string]any {
	nClosed := int(math.Round(float64(b.spec.closedStreams*seconds) / refSeconds))
	nOpen := int(math.Round(float64(b.spec.openStreams*seconds) / refSeconds))
	nClosed = max(nClosed, connections)
	nOpen = max(nOpen, 2*(b.spec.handoffs+1)+2)

	var closed, open *phaseStats
	var opens []*phaseStats
	for i := 0; i < setupOnly; i++ {
		dep, err := b.launch()
		if err != nil {
			b.problem("set-up: %v", err)
			continue
		}
		b.stopAll(dep.nodes)
	}
	var err error
	if closed, err = b.phase(false, nClosed); err != nil {
		b.problem("closed-loop phase: %v", err)
	}
	for i := 0; i < b.spec.openPhases; i++ {
		ps, err := b.phase(true, nOpen)
		if err != nil {
			b.problem("open-loop phase: %v", err)
			continue
		}
		opens = append(opens, ps)
	}
	if len(opens) == b.spec.openPhases {
		open = opens[0]
	}

	m := map[string]metric{}
	h := &human{}
	h.line("perfbench %s: %s, %d closed-loop + %d×%d open-loop streams at %.3g events/s offered, %d set-ups",
		b.spec.name, b.spec.wl, nClosed, b.spec.openPhases, nOpen, b.spec.openRate, len(b.setups))
	var eventsPerS, p50, p90, rssMB, lagP99 float64
	if closed != nil {
		eventsPerS = closed.res.throughput(closed.plans)
		h.metric("events_per_s", eventsPerS, "1/s", fmt.Sprintf("%d verified events in %.3fs (%.4g/s overall)",
			closed.res.events, closed.res.wall.Seconds(), float64(closed.res.events)/closed.res.wall.Seconds()))
	}
	if open != nil {
		var lat, lags []float64
		for _, ps := range opens {
			lat = append(lat, ps.res.latencies(ps.plans)...)
			pl := ps.res.lagMs()
			lags = append(lags, pl...)
			if a, z, grows := lagGrows(pl); grows {
				h.line("WARNING: generator lag kept growing (p99 %.2fms in the first half of a phase, %.2fms in the second): the daemon fell behind the offered rate", a, z)
			}
		}
		p50, p90 = percentile(lat, 50), percentile(lat, 90)
		h.metric("result_p50_ms", p50, "ms", fmt.Sprintf("n=%d", len(lat)))
		h.metric("result_p90_ms", p90, "ms", fmt.Sprintf("n=%d, %d beyond", len(lat), beyond(lat, p90)))
		lagP99 = percentile(lags, 99)
		h.metric("gen.lag_p99_ms", lagP99, "ms", fmt.Sprintf("over %d frames (p50 %.3fms)", len(lags), percentile(lags, 50)))
	}
	for _, ps := range append([]*phaseStats{closed}, opens...) {
		if ps != nil {
			rssMB = max(rssMB, float64(ps.hwmKB)/1024)
		}
	}
	h.metric("server_rss_mb", rssMB, "MB", "peak VmHWM summed over one phase's daemons, max over phases")
	setup := median(b.setups)
	h.metric("setup_s", setup, "s", fmt.Sprintf("median of %d launches", len(b.setups)))
	ratio := 0.0
	if b.attempted > 0 {
		ratio = float64(b.failed) / float64(b.attempted)
	}
	h.metric("failed_ratio", ratio, "ratio", fmt.Sprintf("%d of %d streams", b.failed, b.attempted))

	if !trace {
		m["events_per_s"] = metric{eventsPerS, "1/s"}
		m["server_rss_mb"] = metric{rssMB, "MB"}
		m["setup_s"] = metric{setup, "s"}
	} else {
		// The latency percentiles are reported but not gated: see
		// README.md, "Known limits".
		m["result_p50_ms"] = metric{finite(p50), "ms"}
		m["result_p90_ms"] = metric{finite(p90), "ms"}
		b.layers(m, h, closed, open, lagP99)
	}
	for _, p := range b.problems {
		h.line("FAILED: %s", p)
	}
	h.flush()
	correct := len(b.problems) == 0 && b.failed == 0 && closed != nil && open != nil
	return map[string]any{"correct": correct, "attempted": max(b.attempted, 1), "failed": b.failed, "metrics": m}
}

// human collects the readable report printed before the JSON line.
type human struct{ lines []string }

func (h *human) line(format string, args ...any) {
	h.lines = append(h.lines, fmt.Sprintf(format, args...))
}

func (h *human) metric(name string, v float64, unit, note string) {
	h.line("  %-40s %14.4f %-6s %s", name, v, unit, note)
}

func (h *human) flush() {
	for _, l := range h.lines {
		fmt.Println(l)
	}
}

// percentile is the linear-interpolation percentile (numpy's default)
// of the raw samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func beyond(xs []float64, limit float64) int {
	n := 0
	for _, x := range xs {
		if x > limit {
			n++
		}
	}
	return n
}

// finite keeps a JSON-encodable value: a percentile that lands on a
// failed stream (+Inf) is reported as 1e12, far past any limit.
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return 1e12
	}
	return x
}

var inf = math.Inf(1)
