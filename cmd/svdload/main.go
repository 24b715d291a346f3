// Command svdload is the detection service's load generator: it replays
// workload executions over the wire protocol to a running svdd, paces
// them at a target event rate, and reports the achieved throughput plus
// the server's detection results.
//
// Usage:
//
//	svdload -addr localhost:7077 -workload queue-buggy -samples 8
//	svdload -addr localhost:7077 -workload apache-buggy -rate 500000
//	svdload -addr localhost:7077 -workload queue-buggy -verify
//	svdload -addr localhost:7077 -workload queue-buggy -latency
//	svdload -nodes :7077,:7177,:7277 -report localhost:7078 -verify
//
// -verify re-runs every sample in-process and fails unless the served
// report matches bit for bit — the live form of the loopback
// differential test.
//
// -nodes sprays the streams round-robin across a cluster of svdd
// nodes instead of a single -addr, stamping each stream with its
// routing key (workload/seed) so misrouted streams exercise the
// cluster's forwarding path. -report then fetches the scatter-gather
// merged report from one node's HTTP plane after the run and fails
// unless it is byte-identical to an in-process merge of the same
// samples — the cluster-wide form of -verify. With
// -tolerate-disconnect, a node that dies mid-run is dropped from the
// spray and the run continues on the survivors (crash-drill mode).
//
// -latency negotiates send stamps on every stream and prints the
// client-observed wire-to-verdict distribution (p50/p90/p99 from the
// server's per-stream histograms, merged across samples). Both flags
// compose: a -verify -latency run proves the stamps change nothing in
// the detection results while measuring them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/workloads"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:7077", "svdd address")
		nodes       = flag.String("nodes", "", "comma-separated svdd wire addresses to spray streams across (cluster mode; overrides -addr)")
		reportAddr  = flag.String("report", "", "cluster HTTP address; after the run, require the merged /report byte-identical to an in-process merge")
		workload    = flag.String("workload", "queue-buggy", "registered workload to replay (see svd -list)")
		samples     = flag.Int("samples", 4, "number of executions to stream, seeds seed..seed+samples-1")
		seed        = flag.Uint64("seed", 1, "first scheduler seed")
		scale       = flag.Int("scale", 1, "workload size multiplier")
		rate        = flag.Float64("rate", 0, "target events/sec per stream (0 = unpaced)")
		witness     = flag.Bool("witness", false, "ask the server for violation witnesses")
		embed       = flag.Bool("embed-program", false, "ship the program image in the handshake alongside the workload name; only a daemon that does not know that name serves from the image")
		verify      = flag.Bool("verify", false, "re-run each sample in-process and require bit-identical reports")
		tolerate    = flag.Bool("tolerate-disconnect", false, "treat a dropped connection as the end of the run, not a failure (crash-drill mode)")
		latency     = flag.Bool("latency", false, "negotiate send stamps and report wire-to-verdict latency percentiles")
		jsonOut     = flag.Bool("json", false, "print per-sample results as JSON")
		logLevel    = flag.String("log-level", "info", "operational log level: debug, info, warn, error")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.String("svdload"))
		return
	}
	log := obs.InitSlog(*logLevel, false)

	addrs := []string{*addr}
	if *nodes != "" {
		addrs = addrs[:0]
		for _, a := range strings.Split(*nodes, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			log.Error("bad -nodes", "err", "no addresses")
			os.Exit(1)
		}
	}

	var wants []*report.Sample
	var totalEvents uint64
	var totalElapsed time.Duration
	violations, races := uint64(0), uint64(0)
	// Latency histograms merge exactly (power-of-two buckets), so the
	// aggregate percentiles are computed over every stamped batch of the
	// whole run, not averaged per sample.
	var latAgg obs.Histogram
	start := time.Now()
	for i := 0; i < *samples; i++ {
		s := *seed + uint64(i)
		w, err := workloads.ByName(*workload, *scale, s)
		if err != nil {
			log.Error("workload", "err", err)
			os.Exit(1)
		}
		// One connection per sample keeps streams independent; svdd
		// round-robins them across shards. With -nodes, samples also
		// round-robin across the cluster, and each stream carries its
		// routing key so the receiving node can forward a misroute.
		target := addrs[i%len(addrs)]
		cli, conn, err := server.Dial(target)
		if err != nil {
			if *tolerate && len(addrs) > 1 {
				log.Warn("node unreachable, dropping from spray", "addr", target, "err", err)
				addrs = dropAddr(addrs, target)
				i--
				continue
			}
			if *tolerate {
				log.Warn("daemon unreachable, ending run", "addr", target, "err", err)
				break
			}
			log.Error("dial", "addr", target, "err", err)
			os.Exit(1)
		}
		var key string
		if *nodes != "" {
			key = fmt.Sprintf("%s/%d", *workload, s)
		}
		got, stats, err := cli.RunSample(w, s, server.ReplayOptions{
			Witness:      *witness,
			Rate:         *rate,
			Scale:        *scale,
			EmbedProgram: *embed,
			Timestamps:   *latency,
			Key:          key,
		})
		conn.Close()
		if err != nil {
			// Under -tolerate-disconnect a mid-stream hangup is the
			// expected outcome of a crash drill: the daemon was killed
			// while this sample streamed. With other nodes left, drop
			// the dead one and keep the run going on the survivors;
			// the interrupted sample never produced a report and is
			// simply lost. Single-node runs stop cleanly as before.
			if *tolerate && len(addrs) > 1 {
				log.Warn("connection lost mid-sample, dropping node from spray",
					"addr", target, "workload", *workload, "seed", s, "err", err)
				addrs = dropAddr(addrs, target)
				continue
			}
			if *tolerate {
				log.Warn("connection lost mid-sample, ending run", "workload", *workload, "seed", s, "err", err)
				break
			}
			log.Error("replay", "workload", *workload, "seed", s, "err", err)
			os.Exit(1)
		}
		totalEvents += stats.Events
		totalElapsed += stats.Elapsed
		violations += got.SVDStats.Violations
		races += got.FRDStats.Races
		if *latency {
			if stats.Latency == nil {
				log.Error("server returned no latency report (svdd too old for timestamps?)", "seed", s)
				os.Exit(1)
			}
			latAgg.Merge(&stats.Latency.WireToVerdictNs)
		}

		if *verify || *reportAddr != "" {
			wLocal, err := workloads.ByName(*workload, *scale, s)
			if err != nil {
				log.Error("workload", "err", err)
				os.Exit(1)
			}
			want, err := report.Run(wLocal, s, report.Options{Witness: *witness})
			if err != nil {
				log.Error("in-process run", "seed", s, "err", err)
				os.Exit(1)
			}
			if *reportAddr != "" {
				wants = append(wants, want)
			}
			if *verify {
				gotJS, _ := json.Marshal(got)
				wantJS, _ := json.Marshal(want)
				if string(gotJS) != string(wantJS) {
					log.Error("served report differs from in-process run", "workload", *workload, "seed", s)
					os.Exit(1)
				}
				log.Info("verified", "workload", *workload, "seed", s)
			}
		}
		if *jsonOut {
			js, _ := json.Marshal(got)
			fmt.Println(string(js))
		} else {
			kv := []any{
				"workload", *workload, "seed", s,
				"events", stats.Events,
				"events_per_sec", fmt.Sprintf("%.0f", stats.EventsPerSec()),
				"violations", got.SVDStats.Violations,
				"races", got.FRDStats.Races,
				"erroneous", got.Erroneous,
			}
			if stats.Latency != nil {
				sum := stats.Latency.Summary()
				kv = append(kv,
					"lat_batches", sum.Count,
					"lat_p50", time.Duration(sum.P50).String(),
					"lat_p99", time.Duration(sum.P99).String())
			}
			log.Info("sample", kv...)
		}
	}
	wall := time.Since(start)
	fmt.Printf("svdload: %d samples, %d events in %v wall (%.0f events/sec aggregate), %d violations, %d races\n",
		*samples, totalEvents, wall.Round(time.Millisecond),
		float64(totalEvents)/wall.Seconds(), violations, races)
	if *latency {
		sum := latAgg.Summarize()
		fmt.Printf("svdload: wire-to-verdict latency over %d batches: p50 %v, p90 %v, p99 %v, max %v\n",
			sum.Count, time.Duration(sum.P50), time.Duration(sum.P90),
			time.Duration(sum.P99), time.Duration(sum.Max))
	}

	if *reportAddr != "" {
		// The cluster-wide differential: the scatter-gather /report must
		// merge to exactly what an in-process run over the same samples
		// merges to, regardless of which node each stream landed on or
		// whether it was forwarded or handed off along the way.
		resp, err := http.Get("http://" + *reportAddr + "/report")
		if err != nil {
			log.Error("cluster report fetch", "addr", *reportAddr, "err", err)
			os.Exit(1)
		}
		var cr server.ClusterReport
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			log.Error("cluster report decode", "addr", *reportAddr, "status", resp.StatusCode, "err", err)
			os.Exit(1)
		}
		local := report.MergeSamples(wants)
		gotJS, _ := json.Marshal(cr.Merged)
		wantJS, _ := json.Marshal(local)
		if string(gotJS) != string(wantJS) {
			log.Error("merged cluster report differs from in-process merge",
				"cluster", string(gotJS), "local", string(wantJS))
			os.Exit(1)
		}
		served := 0
		for _, n := range cr.Nodes {
			served += n.Samples
		}
		fmt.Printf("svdload: merged cluster report verified: %d samples across %d nodes (epoch %d) == in-process merge of %d samples\n",
			served, len(cr.Nodes), cr.Epoch, len(wants))
	}
}

// dropAddr removes addr from the spray set, preserving order.
func dropAddr(addrs []string, addr string) []string {
	out := addrs[:0]
	for _, a := range addrs {
		if a != addr {
			out = append(out, a)
		}
	}
	return out
}
