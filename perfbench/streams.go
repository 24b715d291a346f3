package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// maxSteps is the VM instruction budget server.Client.RunSample and
// report.Run both default to.
const maxSteps = 1 << 24

// frameHeader is the wire header size: magic, type, payload length.
const frameHeader = 9

// recording is one workload execution pre-encoded exactly as
// server.Client.RunSample writes it, split into frames so the load
// generator can pace them, plus the verdict bytes a served Result must
// carry. Replaying the bytes is the production client's traffic without
// the client's VM run.
type recording struct {
	workload string
	seed     uint64
	witness  bool
	threads  int

	// hello is the keyless Hello frame; helloFor re-encodes it with
	// a cluster routing key (the key lives only in the Hello, so the
	// event frames are shared by every key).
	hello []byte
	// body holds the Events frames and the closing Goodbye back to back;
	// ends[i] is the end offset of frame i and cumEvents[i] the events
	// carried by frames 0..i. The last frame is the Goodbye.
	body      []byte
	ends      []int
	cumEvents []uint64

	// want is the in-process report.Run sample as JSON with Erroneous and
	// ErrorDetail cleared — the bytes a served Result's Sample field
	// holds (the server never sees the finished VM that judges them).
	want       []byte
	wantSample *report.Sample

	fullStream []byte
}

// full is the keyless stream as one byte slice, built once.
func (r *recording) full() []byte {
	if r.fullStream == nil {
		r.fullStream = append(append([]byte(nil), r.hello...), r.body...)
	}
	return r.fullStream
}

func (r *recording) events() uint64 { return r.cumEvents[len(r.cumEvents)-1] }

// frames is the number of body frames (events frames plus the Goodbye).
func (r *recording) frames() int { return len(r.ends) }

// frame returns body frame i.
func (r *recording) frame(i int) []byte {
	start := 0
	if i > 0 {
		start = r.ends[i-1]
	}
	return r.body[start:r.ends[i]]
}

// helloFor renders the stream's Hello with the given routing key.
func (r *recording) helloFor(key string) []byte {
	if key == "" {
		return r.hello
	}
	var b bytes.Buffer
	f := wire.NewFramer(&b, r.threads)
	if err := f.WriteHello(r.helloMsg(key)); err != nil {
		panic(err)
	}
	return b.Bytes()
}

func (r *recording) helloMsg(key string) wire.Hello {
	return wire.Hello{
		Version:  wire.Version,
		Threads:  r.threads,
		Workload: r.workload,
		Scale:    1,
		Seed:     r.seed,
		Witness:  r.witness,
		Key:      key,
	}
}

// record runs workload name at scale 1 under seed once, encoding its
// event stream the way server.Client.RunSample does (columnar observer
// into a Framer), and computes the verdict bytes with report.Run.
func record(name string, seed uint64, witness bool) (*recording, error) {
	w, err := workloads.ByName(name, 1, seed)
	if err != nil {
		return nil, err
	}
	m, err := w.NewVM(seed)
	if err != nil {
		return nil, err
	}
	r := &recording{workload: name, seed: seed, witness: witness, threads: w.NumThreads}
	var buf bytes.Buffer
	f := wire.NewFramer(&buf, 1)
	if err := f.WriteHello(r.helloMsg("")); err != nil {
		return nil, err
	}
	r.hello = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	var sendErr error
	var total uint64
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		if sendErr != nil {
			return
		}
		sendErr = f.WriteColumns(eb)
		total += uint64(eb.Len())
		r.ends = append(r.ends, buf.Len())
		r.cumEvents = append(r.cumEvents, total)
	}))
	if _, err := m.Run(maxSteps); err != nil {
		return nil, err
	}
	if sendErr != nil {
		return nil, sendErr
	}
	if !m.Done() {
		return nil, fmt.Errorf("%s seed %d did not finish within %d steps", name, seed, maxSteps)
	}
	if err := f.WriteGoodbye(); err != nil {
		return nil, err
	}
	r.ends = append(r.ends, buf.Len())
	r.cumEvents = append(r.cumEvents, total)
	r.body = buf.Bytes()

	wl, err := workloads.ByName(name, 1, seed)
	if err != nil {
		return nil, err
	}
	s, err := report.Run(wl, seed, report.Options{Witness: witness})
	if err != nil {
		return nil, err
	}
	s.Erroneous, s.ErrorDetail = false, ""
	if r.want, err = json.Marshal(s); err != nil {
		return nil, err
	}
	r.wantSample = s
	return r, nil
}
