package workloads

import (
	"fmt"

	"repro/internal/vm"
)

// ApacheConfig parameterizes the Apache log_config model.
type ApacheConfig struct {
	Threads  int   // worker threads (simulated CPUs)
	Requests int   // log records written per thread
	BufWords int64 // shared log buffer capacity
	MaxLen   int64 // maximum record length
	Buggy    bool  // omit the lock around the buffered write (the real bug)
	// ThinkWork is the per-request local computation (loop iterations)
	// modelling request parsing and response generation. Real server
	// requests dwarf the log append; raising ThinkWork dilutes contention
	// on the log buffer the same way.
	ThinkWork int64
	Seed      uint64
}

func (c ApacheConfig) withDefaults() ApacheConfig {
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Requests <= 0 {
		c.Requests = 64
	}
	if c.BufWords <= 0 {
		c.BufWords = 64
	}
	if c.MaxLen <= 0 {
		c.MaxLen = 13
	}
	if c.MaxLen > c.BufWords {
		c.MaxLen = c.BufWords
	}
	if c.ThinkWork <= 0 {
		c.ThinkWork = 150
	}
	return c
}

// ApacheLog builds the Figure 2 workload: ap_buffered_log_writer. Each
// worker formats a record into a thread-local buffer, then appends it to
// the shared log buffer: read the index, flush when full, copy the record,
// bump the index. The buggy variant performs the append without the lock —
// Apache 2.0.48's actual defect, which silently corrupts the access log.
func ApacheLog(cfg ApacheConfig) *Workload { return must(apacheLog(cfg)) }

// apacheLog is ApacheLog, returning a compile failure instead of panicking.
func apacheLog(cfg ApacheConfig) (*Workload, error) {
	cfg = cfg.withDefaults()
	lock1, unlock1 := "lock(loglock);", "unlock(loglock);"
	if cfg.Buggy {
		lock1, unlock1 = "", ""
	}

	src := fmt.Sprintf(`// Apache log_config model (paper Figure 2)
shared reqlen[%d];      // per-thread rows of SURGE request lengths
shared bufout[%d];      // the shared log buffer
shared outcnt;          // index of the first free buffer word
shared flushed;         // words retired by buffer flushes
shared written[%d];     // per-thread words appended (private slots)
lock loglock;
local msg[%d];          // thread-local formatted record

func fillmsg(len) {
    var i;
    i = 0;
    while (i < len) {
        msg[i] = (tid + 1) * 100000 + i;
        i = i + 1;
    }
}

// serve models the request handling around the log append: parsing and
// response generation are thread-local computation.
func serve(work) {
    var k, h;
    k = 0;
    h = tid;
    while (k < work) {
        h = h * 31 + k;
        k = k + 1;
    }
    return h;
}

func writer(n) {
    var r, len, c, j;
    r = 0;
    while (r < n) {
        serve(%d);
        len = reqlen[tid * %d + r];
        fillmsg(len);
        written[tid] = written[tid] + len;
        %s
        c = outcnt;                       // read the shared index
        if (c + len > %d) {
            flushed = flushed + c;        // flush resets the buffer
            outcnt = 0;
            c = 0;
        }
        j = 0;
        while (j < len) {
            bufout[c + j] = msg[j];       // copy the record
            j = j + 1;
        }
        outcnt = c + len;                 // publish the new index
        %s
        r = r + 1;
    }
}
%s`,
		cfg.Threads*cfg.Requests, cfg.BufWords, cfg.Threads, cfg.MaxLen,
		cfg.ThinkWork, cfg.Requests, lock1, cfg.BufWords, unlock1,
		threadDecls(cfg.Threads, "writer", fmt.Sprintf("%d", cfg.Requests)))

	name := "apache-fixed"
	if cfg.Buggy {
		name = "apache-buggy"
	}
	prog, err := compile(name, src)
	if err != nil {
		return nil, err
	}

	var bugPCs map[int64]bool
	if cfg.Buggy {
		// The whole unprotected append region is the bug: the index read,
		// the flush, the copy, and the index publish.
		bugPCs = pcsForLines(prog, name, []int{
			lineOf(src, "c = outcnt;"),
			lineOf(src, "flushed = flushed + c;"),
			lineOf(src, "outcnt = 0;"),
			lineOf(src, "bufout[c + j] = msg[j];"),
			lineOf(src, "outcnt = c + len;"),
		})
	}

	threads, requests := cfg.Threads, cfg.Requests
	seed := cfg.Seed
	return &Workload{
		Name: name,
		Description: fmt.Sprintf(
			"Apache log_config, %d threads x %d requests, buffer %d words, buggy=%v",
			cfg.Threads, cfg.Requests, cfg.BufWords, cfg.Buggy),
		Source:     src,
		Prog:       prog,
		NumThreads: cfg.Threads,
		Buggy:      cfg.Buggy,
		BugPCs:     bugPCs,
		MemWords:   1 << 18,
		StackWords: 1 << 10,
		Setup: func(m *vm.VM) {
			gen := newSurgeGen(seed+0x5347, cfg.MaxLen)
			pokeArray(m, "reqlen", gen.Sizes(threads*requests))
		},
		// The log is corrupted when appended words went missing: the
		// buffer accounting (flushed + outcnt) no longer matches what the
		// writers recorded in their private counters — exactly the silent
		// corruption the real bug caused.
		Check: func(m *vm.VM) (bool, string) {
			var total int64
			for t := 0; t < threads; t++ {
				total += symWord(m, "written", int64(t))
			}
			accounted := symWord(m, "flushed", 0) + symWord(m, "outcnt", 0)
			if accounted != total {
				return true, fmt.Sprintf("log corrupted: %d words written, %d accounted", total, accounted)
			}
			return false, "log consistent"
		},
	}, nil
}
