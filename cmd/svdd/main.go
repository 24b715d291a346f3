// Command svdd is the detection daemon: a long-running service that
// accepts wire-format event streams (internal/wire), spreads them over
// sharded detector workers (internal/server), and answers each stream
// with the same report an in-process run would produce. Ingest is
// zero-copy columnar: each session decodes frames straight into pooled
// column batches that the shard worker consumes and recycles, so the
// socket-to-detector hop allocates nothing in steady state (DESIGN.md
// §11).
//
// Usage:
//
//	svdd -listen :7077 -shards 4
//	svdd -listen :7077 -http :7078          # /metrics, /statusz, /report, /debug/pprof
//	svdd -listen :7077 -policy shed         # drop batches under overload
//	svdd -listen :7077 -status-interval 10s # periodic status log line
//	svdd -listen :7077 -journal /var/svdd   # durable journal of ingested streams
//	svdd -cluster -node-id a -peers a=:7077+:7078,b=:7177+:7178
//
// With -cluster, svdd joins a static multi-node detection cluster
// (DESIGN.md §15): keyed streams are routed by consistent hash, a
// misrouted stream is forwarded to its owner, and when a probe demotes
// a member the survivors re-shard and drain affected streams to their
// new owners with a replay handoff. The HTTP plane's /report becomes a
// scatter-gather merge of every node's run digest; the local node's own
// report moves to /report/local and its digest is served at /digest.
//
// With -journal, every ingested wire frame is persisted to a segmented
// append-only store before its batch reaches a detector, and
// cmd/svdreplay can later replay the capture with byte-exact
// verification or re-derive each violation's journal anchor and witness
// (-journal-* flags tune rotation, retention, and fsync cadence).
// Restarting over the same directory recovers torn tails and keeps
// stream ids unique.
//
// SIGINT/SIGTERM starts a graceful drain bounded by one -drain-timeout
// deadline: the listener closes, open streams may finish until the
// deadline, connections still open then are closed (so an idle client
// cannot hold the daemon up), the engine drains in whatever time is
// left, and the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		listen       = flag.String("listen", ":7077", "address for the event-stream listener")
		shards       = flag.Int("shards", runtime.GOMAXPROCS(0), "detector worker count")
		queue        = flag.Int("queue", 64, "per-shard pending-batch queue depth")
		policyName   = flag.String("policy", "block", "overload policy: block (backpressure) or shed (drop and report)")
		httpAddr     = flag.String("http", "", "address for the observability endpoint (empty = off): /metrics, /statusz, /report, /debug/pprof")
		scale        = flag.Int("scale", 1, "workload scale for streams that name a registry workload without one")
		telemetry    = flag.Bool("telemetry", true, "per-batch ingest telemetry: shard latency histograms, busy fraction")
		statusEvery  = flag.Duration("status-interval", 0, "log a status summary at this interval (0 = off)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a graceful shutdown waits for open streams")
		journalDir   = flag.String("journal", "", "directory for the durable event journal (empty = off)")
		journalSeg   = flag.Int64("journal-segment-bytes", journal.DefaultSegmentBytes, "journal segment rotation size")
		journalAge   = flag.Duration("journal-segment-age", 0, "rotate journal segments at this age even if not full (0 = size only)")
		journalKeep  = flag.Int("journal-retain-segments", 0, "sealed journal segments to retain (0 = all)")
		journalBytes = flag.Int64("journal-retain-bytes", 0, "total sealed journal bytes to retain (0 = all)")
		journalSync  = flag.Duration("journal-fsync-interval", journal.DefaultFsyncInterval, "upper bound on the journal's unsynced window (<0 = every append)")
		clustered    = flag.Bool("cluster", false, "join a multi-node detection cluster (requires -node-id and -peers)")
		nodeID       = flag.String("node-id", "", "this node's id in -peers")
		peersSpec    = flag.String("peers", "", "cluster members: id=wireaddr[+httpaddr],... (must include -node-id)")
		peerToken    = flag.String("cluster-token", "", "shared secret authenticating the node-to-node plane; empty derives one from -peers (set explicitly when the wire port is reachable by untrusted clients)")
		probeEvery   = flag.Duration("probe-interval", 2*time.Second, "peer liveness/anti-entropy probe interval (0 = off)")
		logLevel     = flag.String("log-level", "info", "operational log level: debug, info, warn, error")
		logJSON      = flag.Bool("log-json", false, "log as JSON instead of text")
		showVersion  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.String("svdd"))
		return
	}
	log := obs.InitSlog(*logLevel, *logJSON)

	policy, err := server.ParsePolicy(*policyName)
	if err != nil {
		fatal(log, "bad -policy", err)
	}
	var jw *journal.Writer
	var streamBase uint64
	if *journalDir != "" {
		prov, err := journal.OpenDir(*journalDir)
		if err != nil {
			fatal(log, "journal open", err)
		}
		jw, err = journal.OpenWriter(prov, journal.Options{
			SegmentBytes:   *journalSeg,
			SegmentAge:     *journalAge,
			RetainSegments: *journalKeep,
			RetainBytes:    *journalBytes,
			FsyncInterval:  *journalSync,
		})
		if err != nil {
			fatal(log, "journal recover", err)
		}
		streamBase = jw.StreamBase()
		rec := jw.Recovery()
		log.Info("journal open", "dir", *journalDir, "segments", rec.Segments,
			"repaired", rec.Repaired, "truncated_bytes", rec.TruncatedBytes,
			"stream_base", streamBase)
	}

	sink := obs.NewSink(obs.SinkOptions{})
	eng := server.New(server.Options{
		Shards:     *shards,
		QueueDepth: *queue,
		Policy:     policy,
		Scale:      *scale,
		Obs:        sink,
		Telemetry:  *telemetry,
		Journal:    jw,
		StreamBase: streamBase,
		Logger:     log,
	})

	var cs *server.ClusterServer
	if *clustered {
		if *nodeID == "" || *peersSpec == "" {
			fatal(log, "cluster config", fmt.Errorf("-cluster requires -node-id and -peers"))
		}
		members, err := cluster.ParsePeers(*peersSpec)
		if err != nil {
			fatal(log, "bad -peers", err)
		}
		view := cluster.NewView(1, members)
		if _, ok := view.Member(*nodeID); !ok {
			fatal(log, "cluster config", fmt.Errorf("-node-id %q is not in -peers", *nodeID))
		}
		rt := cluster.NewRouter(*nodeID, view)
		token := *peerToken
		if token == "" {
			// Every node of one cluster runs with the same -peers, so a
			// token derived from the member list agrees fleet-wide with
			// no extra distribution. It keeps ordinary clients from
			// injecting Assign/Handoff frames, but anyone who knows the
			// topology can compute it — set -cluster-token explicitly
			// (or firewall the wire port) in adversarial settings.
			token = cluster.DeriveToken(members)
		}
		cs = server.NewClusterServer(eng, rt, server.ClusterOptions{PeerToken: token})
		log.Info("cluster mode", "node", *nodeID, "members", len(members), "epoch", view.Epoch)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(log, "listen", err)
	}
	log.Info("svdd listening", "addr", ln.Addr().String(),
		"shards", *shards, "policy", policy.String(), "build", buildinfo.String("svdd"))

	var httpSrv *http.Server
	if *httpAddr != "" {
		// Publish before the mux serves /debug/vars; an unpublished sink
		// leaves the endpoint showing only the runtime's defaults.
		sink.PublishExpvar("svdd")
		// One /metrics page: the sink's detector families plus the
		// engine's shard/stream service telemetry, single # EOF.
		mux := obs.NewServeMux(sink, "svdd", eng.MetricsWriter())
		if cs != nil {
			// Clustered /report is the scatter-gather merge; the node's
			// own view stays reachable for debugging.
			mux.Handle("/report", cs.GatherHandler())
			mux.Handle("/report/local", eng.ReportHandler())
			mux.Handle("/digest", eng.DigestHandler())
		} else {
			mux.Handle("/report", eng.ReportHandler())
		}
		mux.Handle("/statusz", eng.StatuszHandler())
		httpLn, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(log, "http listen", err)
		}
		httpSrv = &http.Server{Handler: mux}
		go func() {
			if err := httpSrv.Serve(httpLn); err != nil && err != http.ErrServerClosed {
				log.Error("http endpoint", "err", err)
			}
		}()
		log.Info("observability endpoint", "addr", httpLn.Addr().String())
	}

	if cs != nil && *probeEvery > 0 {
		// The probe doubles as failure detector and view anti-entropy:
		// each round exchanges Assign frames with every peer and demotes
		// unreachable members so routing converges without the peer.
		probeTicker := time.NewTicker(*probeEvery)
		defer probeTicker.Stop()
		go func() {
			for range probeTicker.C {
				cs.ProbePeers()
			}
		}()
	}

	if *statusEvery > 0 {
		ticker := time.NewTicker(*statusEvery)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				log.Info("status", eng.StatusSummary()...)
			}
		}()
	}

	// SIGINT/SIGTERM closes the listener and sets the one drain
	// deadline. Serve returns once every session ends; at the deadline
	// CloseConns ends the sessions still open, and the engine drains in
	// whatever time is left.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	deadline := make(chan time.Time, 1)
	go func() {
		<-ctx.Done()
		log.Info("signal received, draining", "timeout", drainTimeout.String())
		end := time.Now().Add(*drainTimeout)
		deadline <- end
		ln.Close()
		time.AfterFunc(time.Until(end), eng.CloseConns)
	}()

	serve := eng.Serve
	if cs != nil {
		serve = cs.Serve
	}
	if err := serve(ln); err != nil {
		log.Error("serve", "err", err)
	}
	end := time.Now().Add(*drainTimeout) // Serve failed without a signal
	select {
	case end = <-deadline:
	default:
	}
	drainCtx, cancel := context.WithDeadline(context.Background(), end)
	defer cancel()
	if err := eng.Shutdown(drainCtx); err != nil {
		log.Warn("drain cut short", "err", err)
	}
	if httpSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutCtx)
	}
	if jw != nil {
		if err := jw.Close(); err != nil {
			log.Warn("journal close", "err", err)
		}
	}
	c := eng.Counters()
	log.Info("svdd stopped", "streams", c.StreamsClosed, "events", c.Events, "batches_shed", c.BatchesShed)
}

func fatal(log *slog.Logger, msg string, err error) {
	log.Error(msg, "err", err)
	os.Exit(1)
}
