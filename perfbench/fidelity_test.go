package main

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// captureConn records what a client writes and answers with a canned
// reply.
type captureConn struct {
	written bytes.Buffer
	reply   io.Reader
}

func (c *captureConn) Read(p []byte) (int, error)  { return c.reply.Read(p) }
func (c *captureConn) Write(p []byte) (int, error) { return c.written.Write(p) }

// TestRecordingMatchesClient: for the same workload, seed and key, the
// pre-encoded frames are byte-identical to what server.Client.RunSample
// writes, so replaying them is the production client's traffic.
func TestRecordingMatchesClient(t *testing.T) {
	cases := []struct {
		workload string
		witness  bool
		key      string
	}{
		{"pgsql-oltp", false, ""},
		{"queue-fixed", true, ""},
		{"pgsql-oltp", false, "pgsql-oltp/7/0/3"},
	}
	for _, c := range cases {
		const seed = 7
		rec, err := record(c.workload, seed, c.witness)
		if err != nil {
			t.Fatal(err)
		}
		var reply bytes.Buffer
		if err := wire.NewFramer(&reply, 1).WriteResult(wire.Result{Sample: rec.want}); err != nil {
			t.Fatal(err)
		}
		conn := &captureConn{reply: &reply}
		w, err := workloads.ByName(c.workload, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := server.NewClient(conn).RunSample(w, seed, server.ReplayOptions{Witness: c.witness, Scale: 1, Key: c.key}); err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte(nil), rec.helloFor(c.key)...), rec.body...)
		if !bytes.Equal(conn.written.Bytes(), want) {
			t.Errorf("%s key %q: recording (%d bytes) differs from RunSample's stream (%d bytes)",
				c.workload, c.key, len(want), conn.written.Len())
		}
	}
}

// TestServedVerdictMatchesRecording: a real engine serving the
// recording answers with exactly the recording's verdict bytes — the
// comparison every benchmark Result goes through.
func TestServedVerdictMatchesRecording(t *testing.T) {
	rec, err := record("queue-fixed", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	eng := server.New(server.Options{Shards: 1, Logger: quiet})
	cli, srv := net.Pipe()
	go eng.ServeConn(srv)
	defer cli.Close()
	c := &client{conn: cli, d: newResultDeframer(cli)}
	_ = cli.SetDeadline(time.Now().Add(time.Minute))
	if err := c.runStream(&stream{rec: rec, hello: rec.hello}); err != nil {
		t.Fatal(err)
	}
}

// TestPercentile pins the interpolation and the failed-stream rule.
func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 50); got != 2.5 {
		t.Errorf("p50 = %g, want 2.5", got)
	}
	if got := percentile(append(xs, inf), 90); got != inf {
		t.Errorf("p90 with a failed stream = %g, want +Inf", got)
	}
}
