package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// Client is the producer half of the detection service: it replays
// workload executions over a wire connection, one stream per sample,
// and reads back the server's report. cmd/svdload drives it; the
// loopback differential test uses it over net.Pipe.
type Client struct {
	rw io.ReadWriter
	f  *wire.Framer
	d  *wire.Deframer
}

// NewClient wraps an established connection (or any reliable byte
// stream, e.g. one side of a net.Pipe).
func NewClient(rw io.ReadWriter) *Client {
	d := wire.NewDeframer(rw)
	d.ExpectResults() // reports with witnesses outgrow the ingest cap
	return &Client{rw: rw, f: wire.NewFramer(rw, 1), d: d}
}

// Dial connects to a detection daemon.
func Dial(addr string) (*Client, net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	return NewClient(conn), conn, nil
}

// ReplayOptions tune one RunSample call.
type ReplayOptions struct {
	// MaxSteps is the VM instruction budget; zero means report.Run's
	// default, keeping wire replays comparable to in-process runs.
	MaxSteps uint64

	// Witness asks the server for flight-recorder witnesses.
	Witness bool

	// Rate paces the replay at approximately this many events per
	// second (0 = as fast as the connection allows). Pacing sleeps
	// between batches, so granularity is one VM event ring.
	Rate float64

	// Scale is the workload scale the producer built its workload
	// with; the server must rebuild with the same scale or the
	// programs diverge.
	Scale int

	// EmbedProgram ships the program image in the handshake, for
	// servers that do not hold this workload in their registry.
	EmbedProgram bool

	// Timestamps negotiates wire-to-verdict latency tracing: every
	// Events frame carries a send stamp, and the Result comes back with
	// the server's latency digest in ReplayStats.Latency. Needs a
	// wire.Version >= 2 server.
	Timestamps bool

	// Key is the cluster routing key carried in the handshake. A
	// cluster node that is not the key's owner forwards the stream to
	// the node that is; empty opts out of routing (the receiving node
	// serves the stream itself). Needs a wire.Version >= 3 server.
	Key string
}

// ReplayStats reports the achieved throughput of one stream.
type ReplayStats struct {
	Events  uint64
	Batches uint64
	Elapsed time.Duration

	// Latency is the server's wire-to-verdict digest for this stream,
	// non-nil only when ReplayOptions.Timestamps was negotiated. The
	// send stamps are this process's wall clock and the verdict stamps
	// the server's, so cross-host numbers include clock skew.
	Latency *LatencyReport
}

// EventsPerSec is the achieved replay rate.
func (s ReplayStats) EventsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Events) / s.Elapsed.Seconds()
}

// RunSample executes w locally under seed, streams every dynamic
// instruction to the server, and returns the server's detection report.
// The local VM is the event producer — the same role the instrumented
// server program plays in the paper — so the erroneous/consistency
// judgment (which needs the finished memory image) is filled in locally
// before returning, leaving everything else exactly as the server
// classified it.
func (c *Client) RunSample(w *workloads.Workload, seed uint64, opts ReplayOptions) (*report.Sample, ReplayStats, error) {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1 << 24
	}
	m, err := w.NewVM(seed)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	h := wire.Hello{
		Version:    wire.Version,
		Threads:    w.NumThreads,
		Workload:   w.Name,
		Scale:      opts.Scale,
		Seed:       seed,
		Witness:    opts.Witness,
		Timestamps: opts.Timestamps,
		Key:        opts.Key,
	}
	if opts.EmbedProgram {
		h.Program = w.Prog
	}
	if err := c.f.WriteHello(h); err != nil {
		return nil, ReplayStats{}, err
	}

	var stats ReplayStats
	var sendErr error
	start := time.Now()
	pace := func() {
		if opts.Rate > 0 {
			// Pace against the stream's own clock: the batch is due
			// when events-so-far/rate seconds have elapsed.
			due := start.Add(time.Duration(float64(stats.Events) / opts.Rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
	}
	// The VM's columnar ring feeds the columnar encoder, so no
	// []vm.Event is built on this side either — the replay is zero-copy
	// end to end.
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		if sendErr != nil {
			return
		}
		pace()
		sendErr = c.f.WriteColumns(eb)
		stats.Events += uint64(eb.Len())
		stats.Batches++
	}))
	_, runErr := m.Run(maxSteps)
	stats.Elapsed = time.Since(start)
	if sendErr != nil {
		return nil, stats, fmt.Errorf("server/client: send: %w", sendErr)
	}
	if runErr != nil {
		return nil, stats, fmt.Errorf("server/client: %s seed %d: %w", w.Name, seed, runErr)
	}
	if !m.Done() {
		return nil, stats, fmt.Errorf("server/client: %s seed %d did not finish within %d steps", w.Name, seed, maxSteps)
	}
	if err := c.f.WriteGoodbye(); err != nil {
		return nil, stats, err
	}

	fr, err := c.d.ReadFrame()
	if err != nil {
		return nil, stats, err
	}
	switch fr.Type {
	case wire.FrameResult:
		if len(fr.Result.Latency) > 0 {
			var lr LatencyReport
			if err := json.Unmarshal(fr.Result.Latency, &lr); err != nil {
				return nil, stats, fmt.Errorf("server/client: decode latency report: %w", err)
			}
			stats.Latency = &lr
		}
		if fr.Result.Err != "" {
			return nil, stats, fmt.Errorf("server/client: server: %s", fr.Result.Err)
		}
		var sample report.Sample
		if err := json.Unmarshal(fr.Result.Sample, &sample); err != nil {
			return nil, stats, fmt.Errorf("server/client: decode result: %w", err)
		}
		if w.Check != nil {
			sample.Erroneous, sample.ErrorDetail = w.Check(m)
		}
		return &sample, stats, nil
	case wire.FrameError:
		return nil, stats, fmt.Errorf("server/client: server: %s", fr.Errmsg)
	default:
		return nil, stats, fmt.Errorf("%w: expected result, got %s", wire.ErrBadFrame, fr.Type)
	}
}
