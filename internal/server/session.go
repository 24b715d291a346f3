package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/journal"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Session layer: the glue between the wire protocol and the engine. A
// session owns one connection and runs entirely in the caller's
// goroutine; all detector work happens on the shard workers, so a slow
// connection never holds a detector hostage and a slow shard stalls
// exactly the connections routed to it (PolicyBlock) and nobody else.

// Serve accepts connections until the listener closes and runs one
// session per connection. It returns once the accept loop ends and every
// session has finished; CloseConns bounds that wait.
func (e *Engine) Serve(ln net.Listener) error { return e.serve(ln, e.ServeConn) }

// serve is the accept loop behind Engine.Serve and ClusterServer.Serve.
// It records each session's connection while the session runs, so
// CloseConns can end sessions that would otherwise wait forever on a
// quiet peer.
func (e *Engine) serve(ln net.Listener, session func(net.Conn)) error {
	var sessions sync.WaitGroup
	defer sessions.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		e.mu.Lock()
		if e.connsClosed { // accepted after CloseConns
			e.mu.Unlock()
			conn.Close()
			continue
		}
		e.conns[conn] = struct{}{}
		e.mu.Unlock()
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			session(conn)
			e.mu.Lock()
			delete(e.conns, conn)
			e.mu.Unlock()
		}()
	}
}

// CloseConns closes every connection a Serve loop is running a session
// on, and any it accepts afterwards. A session blocked reading its next
// frame then fails the read and ends, aborting its open stream, so
// Serve returns: a client that holds a connection open without sending
// cannot keep a draining daemon alive. Reads carry no deadline, so the
// ingest path pays nothing for this.
func (e *Engine) CloseConns() {
	e.mu.Lock()
	e.connsClosed = true
	conns := make([]net.Conn, 0, len(e.conns))
	for conn := range e.conns {
		conns = append(conns, conn)
	}
	e.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
}

// ServeConn runs one session: a loop of streams, each a Hello, any
// number of Events frames, and a Goodbye answered with a Result. The
// connection closes on return. Protocol errors are answered with an
// Error frame when the connection still works; either way the session
// ends, because a desynchronized peer cannot be re-synchronized inside
// a stream.
func (e *Engine) ServeConn(conn net.Conn) {
	defer conn.Close()
	log := e.opts.Logger.With("remote", conn.RemoteAddr().String())
	d := wire.NewDeframer(conn)
	f := wire.NewFramer(conn, 1)

	for streamSeq := 0; ; streamSeq++ {
		fr, err := d.ReadFrame()
		if err == nil && fr.Type != wire.FrameHello {
			err = fmt.Errorf("%w: stream must open with hello, got %s", wire.ErrBadFrame, fr.Type)
		}
		if err == nil {
			err = e.serveStream(d, f, fr.Hello, "", nil)
		}
		switch {
		case err == nil:
			continue // next Hello on the same connection
		case errors.Is(err, io.EOF):
			return // clean end between streams
		default:
			log.Warn("session ended", "stream", streamSeq, "err", err)
			// Best effort: tell the peer why before hanging up.
			_ = f.WriteError(err.Error())
			return
		}
	}
}

// frameCheck inspects each Events frame of a served stream before the
// frame is journaled and ingested; hdr and payload are its raw bytes.
// It returns took=true when it has taken the stream over — a cluster
// handoff released st (and eb with it) and relayed the rest of the
// stream — and err is then the stream's outcome.
type frameCheck func(st *Stream, eb *vm.EventBatch, hdr, payload []byte) (took bool, err error)

// serveStream runs one stream to completion: open, ingest, result. It
// is the one loop behind every served stream, standalone or cluster.
// hello is the stream's opening frame, already read from d (so
// d.RawFrame still holds its bytes); key feeds the shard router; check,
// when non-nil, runs on every Events frame. An Events frame that
// addresses memory outside the workload ends the stream before it is
// checked, journaled or ingested.
func (e *Engine) serveStream(d *wire.Deframer, f *wire.Framer, hello wire.Hello, key string, check frameCheck) error {
	st, err := e.OpenStream(hello, key)
	if err != nil {
		return err
	}
	d.SetProgram(st.w.Prog, st.w.NumThreads)

	// Journaling persists each frame's raw wire bytes before its batch
	// reaches a shard, so the journal holds every batch a verdict was
	// built from. A journal write error downgrades the stream to
	// unjournaled rather than killing it: detection availability wins,
	// and the writer's sticky error keeps later appends cheap.
	jw := e.opts.Journal
	if jw != nil {
		hdr, payload := d.RawFrame()
		if _, jerr := jw.Append(journal.Meta{Kind: journal.KindHello, Stream: st.id}, hdr, payload); jerr != nil {
			e.opts.Logger.Warn("journal append failed; stream unjournaled", "stream", st.id, "err", jerr)
			jw = nil
		}
	}

	closed := false
	defer func() {
		if !closed {
			st.Abort()
		}
	}()
	for {
		// Zero-copy ingest: borrow a batch buffer from the stream and
		// let the deframer decode the next events frame straight into
		// its columns. Only a FrameEvents result transfers ownership to
		// IngestBatch; every other outcome returns the buffer.
		eb := st.GetBatch()
		fr, err := d.ReadFrameInto(eb)
		if err != nil {
			st.PutBatch(eb)
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("%w: connection closed mid-stream", wire.ErrTruncated)
			}
			return err
		}
		switch fr.Type {
		case wire.FrameEvents:
			if err := checkAddrs(eb, st.w); err != nil {
				st.PutBatch(eb)
				return err
			}
			st.NoteWireBytes(d.LastFrameBytes())
			hdr, payload := d.RawFrame()
			if check != nil {
				if took, err := check(st, eb, hdr, payload); took {
					closed = true
					return err
				}
			}
			if jw != nil {
				var first, last uint64
				if n := eb.Len(); n > 0 {
					first, last = eb.Seq[0], eb.Seq[n-1]
				}
				if _, jerr := jw.Append(journal.Meta{
					Kind: journal.KindEvents, Stream: st.id, FirstSeq: first, LastSeq: last,
				}, hdr, payload); jerr != nil {
					e.opts.Logger.Warn("journal append failed; stream unjournaled", "stream", st.id, "err", jerr)
					jw = nil
				}
			}
			st.IngestBatchAt(eb, fr.SendNanos)
		case wire.FrameGoodbye:
			st.PutBatch(eb)
			if jw != nil {
				hdr, payload := d.RawFrame()
				if _, jerr := jw.Append(journal.Meta{Kind: journal.KindGoodbye, Stream: st.id}, hdr, payload); jerr != nil {
					jw = nil
				}
			}
			closed = true
			sample, serr := st.Close()
			res := wire.Result{}
			if serr != nil {
				res.Err = serr.Error()
				if jw != nil {
					_, _ = jw.Append(journal.Meta{Kind: journal.KindError, Stream: st.id}, nil, []byte(res.Err))
				}
			} else {
				data, err := json.Marshal(sample)
				if err != nil {
					return fmt.Errorf("server: encode result: %w", err)
				}
				res.Sample = data
				if jw != nil {
					_, _ = jw.Append(journal.Meta{Kind: journal.KindResult, Stream: st.id}, nil, data)
				}
			}
			// A stream that negotiated timestamps gets its latency digest
			// back alongside the sample, even when the sample is replaced
			// by an error — latency of a shed stream is still meaningful.
			if lr := st.Latency(); lr != nil {
				if data, err := json.Marshal(lr); err == nil {
					res.Latency = data
				}
			}
			return f.WriteResult(res)
		default:
			st.PutBatch(eb)
			return fmt.Errorf("%w: unexpected %s frame inside a stream", wire.ErrBadFrame, fr.Type)
		}
	}
}
