package main

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/wire"
)

// stream is one planned stream of a phase: which recording it replays,
// under which Hello, on which connection and (open loop) when.
type stream struct {
	idx   int
	rec   *recording
	hello []byte
	conn  int

	// start is the open-loop due time of the Hello, relative to the
	// phase start; frame i of the body is due start+cumEvents[i]/rate.
	start time.Duration
	rate  float64

	// Cluster handoff script hooks (nil elsewhere): gate must be closed
	// before the Hello is sent, mid runs after body frame midFrame is
	// written, and after runs once the stream's Result arrived.
	gate     <-chan struct{}
	midFrame int
	mid      func()
	after    func()

	// done is closed once the stream's outcome is known (open loop).
	done chan struct{}
}

// frameDue is the open-loop due time of body frame i.
func (s *stream) frameDue(i int) time.Duration {
	return s.start + time.Duration(float64(s.rec.cumEvents[i])/s.rate*float64(time.Second))
}

// goodbyeDue is when the stream's Goodbye was due: the latency origin.
func (s *stream) goodbyeDue() time.Duration { return s.frameDue(s.rec.frames() - 1) }

// outcome is what happened to one stream.
type outcome struct {
	ok      bool
	err     string
	arrival time.Duration // Result arrival, relative to the phase start
}

// lag is how late the open-loop generator sent one frame.
type lag struct {
	due  time.Duration // relative to the phase start
	late time.Duration
}

// phaseResult aggregates one phase.
type phaseResult struct {
	wall     time.Duration
	outcomes []outcome // by stream idx
	lags     []lag     // open loop: one per frame
	events   uint64    // verified events
	failed   int
}

func (p *phaseResult) tally(plans []*stream) {
	for _, s := range plans {
		o := p.outcomes[s.idx]
		if o.ok {
			p.events += s.rec.events()
		} else {
			p.failed++
		}
	}
}

// readResult reads one Result (or Error) frame and checks it against
// the recording's verdict bytes without decoding the sample JSON.
func readResult(d *wire.Deframer, rec *recording) error {
	fr, err := d.ReadFrame()
	if err != nil {
		return fmt.Errorf("disconnect: %w", err)
	}
	switch fr.Type {
	case wire.FrameResult:
		if fr.Result.Err != "" {
			return fmt.Errorf("server error result: %s", fr.Result.Err)
		}
		if !bytes.Equal(fr.Result.Sample, rec.want) {
			return fmt.Errorf("verdict mismatch: %s seed %d (%d bytes served, %d expected)",
				rec.workload, rec.seed, len(fr.Result.Sample), len(rec.want))
		}
		return nil
	case wire.FrameError:
		return fmt.Errorf("error frame: %s", fr.Errmsg)
	default:
		return fmt.Errorf("unexpected %s frame", fr.Type)
	}
}

// client is one load-generator connection.
type client struct {
	conn net.Conn
	d    *wire.Deframer
}

func dialClient(addr string) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: c, d: newResultDeframer(c)}, nil
}

func newResultDeframer(c net.Conn) *wire.Deframer {
	d := wire.NewDeframer(c)
	d.ExpectResults()
	return d
}

func (c *client) close() {
	if c != nil && c.conn != nil {
		c.conn.Close()
	}
}

// runStream sends one whole stream and waits for its Result.
func (c *client) runStream(s *stream) error {
	if _, err := c.conn.Write(s.hello); err != nil {
		return fmt.Errorf("disconnect: %w", err)
	}
	if _, err := c.conn.Write(s.rec.body); err != nil {
		return fmt.Errorf("disconnect: %w", err)
	}
	return readResult(c.d, s.rec)
}

// closedLoop runs the plans as fast as the daemons answer: each
// connection sends its next stream as soon as the previous Result
// arrives.
func closedLoop(addrs []string, plans []*stream) *phaseResult {
	res := &phaseResult{outcomes: make([]outcome, len(plans))}
	byConn := make([][]*stream, len(addrs))
	for _, s := range plans {
		byConn[s.conn] = append(byConn[s.conn], s)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for ci, ss := range byConn {
		wg.Add(1)
		go func(addr string, ss []*stream) {
			defer wg.Done()
			var c *client
			defer func() { c.close() }()
			for _, s := range ss {
				var err error
				if c == nil {
					c, err = dialClient(addr)
				}
				if err == nil {
					err = c.runStream(s)
				}
				if err != nil {
					res.outcomes[s.idx] = outcome{err: err.Error(), arrival: time.Since(t0)}
					c.close()
					c = nil
					continue
				}
				res.outcomes[s.idx] = outcome{ok: true, arrival: time.Since(t0)}
			}
		}(addrs[ci], ss)
	}
	wg.Wait()
	res.wall = time.Since(t0)
	res.tally(plans)
	return res
}

// openLoop replays the plans on a fixed schedule: every frame is sent
// at its due time (or as soon after as the connection accepts it), so
// a slow daemon shows up as latency and generator lag rather than as a
// slower offered rate. Each connection has a writer and a reader; the
// reader stamps each Result's arrival.
func openLoop(addrs []string, plans []*stream) *phaseResult {
	res := &phaseResult{outcomes: make([]outcome, len(plans))}
	byConn := make([][]*stream, len(addrs))
	for _, s := range plans {
		byConn[s.conn] = append(byConn[s.conn], s)
	}
	clients := make([]*client, len(addrs))
	for i, a := range addrs {
		c, err := dialClient(a)
		if err != nil {
			for _, s := range plans {
				res.outcomes[s.idx] = outcome{err: err.Error()}
			}
			res.tally(plans)
			return res
		}
		clients[i] = c
	}
	var lagMu sync.Mutex
	t0 := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for ci, ss := range byConn {
		c := clients[ci]
		sent := make(chan *stream, len(ss))
		wg.Add(2)
		go func(ss []*stream) { // writer
			defer wg.Done()
			defer close(sent)
			lags := make([]lag, 0, 1024)
			defer func() {
				lagMu.Lock()
				res.lags = append(res.lags, lags...)
				lagMu.Unlock()
			}()
			for _, s := range ss {
				waitFor(s.gate, 60*time.Second)
				sleepUntil(t0.Add(s.start))
				if _, err := c.conn.Write(s.hello); err != nil {
					return
				}
				lags = append(lags, lag{s.start, time.Since(t0.Add(s.start))})
				n := s.rec.frames()
				for i := 0; i < n; {
					sleepUntil(t0.Add(s.frameDue(i)))
					// Send every frame already due in one write.
					now := time.Since(t0)
					j := i + 1
					for j < n && s.frameDue(j) <= now && (s.mid == nil || j <= s.midFrame) {
						j++
					}
					start := 0
					if i > 0 {
						start = s.rec.ends[i-1]
					}
					if _, err := c.conn.Write(s.rec.body[start:s.rec.ends[j-1]]); err != nil {
						return
					}
					for k := i; k < j; k++ {
						lags = append(lags, lag{s.frameDue(k), now - s.frameDue(k)})
					}
					if s.mid != nil && i <= s.midFrame && s.midFrame < j {
						s.mid()
					}
					i = j
				}
				sent <- s
			}
		}(ss)
		go func() { // reader
			defer wg.Done()
			for s := range sent {
				err := readResult(c.d, s.rec)
				arr := time.Since(t0)
				if err != nil {
					res.outcomes[s.idx] = outcome{err: err.Error()}
					c.conn.Close() // unblocks the writer
				} else {
					res.outcomes[s.idx] = outcome{ok: true, arrival: arr}
				}
				if s.after != nil {
					s.after()
				}
				close(s.done)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	for _, c := range clients {
		c.close()
	}
	for _, s := range plans {
		if res.outcomes[s.idx].err == "" && !res.outcomes[s.idx].ok {
			res.outcomes[s.idx] = outcome{err: "disconnect: stream never completed"}
		}
	}
	res.tally(plans)
	return res
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// latencies returns the open-loop samples, Goodbye due to Result
// arrival, in milliseconds; a failed stream counts as +Inf so it misses
// every latency limit.
func (p *phaseResult) latencies(plans []*stream) []float64 {
	out := make([]float64, 0, len(plans))
	for _, s := range plans {
		o := p.outcomes[s.idx]
		if !o.ok {
			out = append(out, inf)
			continue
		}
		out = append(out, float64(o.arrival-s.goodbyeDue())/1e6)
	}
	return out
}

// throughput is the closed loop's saturation rate: the median, over
// every window of 2·connections consecutive Result arrivals, of the
// verified events completed in the window divided by its length. The
// median keeps a short host stall from moving the figure; a failed
// stream contributes no events.
func (p *phaseResult) throughput(plans []*stream) float64 {
	type done struct {
		at     time.Duration
		events uint64
	}
	var ds []done
	for _, s := range plans {
		o := p.outcomes[s.idx]
		if o.ok {
			ds = append(ds, done{o.arrival, s.rec.events()})
		} else if o.arrival > 0 {
			ds = append(ds, done{o.arrival, 0})
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].at < ds[j].at })
	k := 2 * connections
	var rates []float64
	for j := 0; j+k < len(ds); j++ {
		var ev uint64
		for _, d := range ds[j+1 : j+k+1] {
			ev += d.events
		}
		if dt := ds[j+k].at - ds[j].at; dt > 0 {
			rates = append(rates, float64(ev)/dt.Seconds())
		}
	}
	if len(rates) == 0 {
		return float64(p.events) / p.wall.Seconds()
	}
	return median(rates)
}

// lagMs returns the phase's frame lags in milliseconds, in due order.
func (p *phaseResult) lagMs() []float64 {
	ls := append([]lag(nil), p.lags...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].due < ls[j].due })
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = float64(l.late) / 1e6
	}
	return out
}

// lagGrows reports a generator that fell further and further behind
// its schedule: p99 lag over the second half of the phase more than
// twice the first half's and above 5 ms.
func lagGrows(lags []float64) (first, second float64, grows bool) {
	half := len(lags) / 2
	if half < 100 {
		return 0, 0, false
	}
	first, second = percentile(lags[:half], 99), percentile(lags[half:], 99)
	return first, second, second > 2*first && second > 5
}
