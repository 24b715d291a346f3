package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat's
// utime and stime (100 on every Linux architecture Go supports).
const clockTicks = 100

// daemon is one svdd process started by the benchmark.
type daemon struct {
	name     string
	dir      string
	cmd      *exec.Cmd
	wireAddr string
	httpAddr string
	launched time.Time
	exited   chan struct{}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon launches svdd with its listeners on wireAddr/httpAddr
// plus extra flags, logging to dir/<name>.log.
func startDaemon(bin, dir, name, wireAddr, httpAddr string, extra ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-listen", wireAddr, "-http", httpAddr, "-log-level", "warn"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{name: name, dir: dir, cmd: cmd, wireAddr: wireAddr, httpAddr: httpAddr, exited: make(chan struct{})}
	d.launched = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	return d, nil
}

// dial connects to the daemon's wire port, retrying while it starts.
func (d *daemon) dial(timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.Dial("tcp", d.wireAddr)
		if err == nil {
			return c, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("%s exited during start-up: %s", d.name, d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// lostPortRace reports whether the daemon exited because one of its
// listen addresses was taken between reservation and bind.
func (d *daemon) lostPortRace() bool {
	select {
	case <-d.exited:
	default:
		return false
	}
	return strings.Contains(d.logTail(), "address already in use")
}

// logTail is the end of the daemon's log, for error messages (the log
// itself is removed with the run's work directory).
func (d *daemon) logTail() string {
	log, _ := os.ReadFile(filepath.Join(d.dir, d.name+".log"))
	if len(log) > 400 {
		log = log[len(log)-400:]
	}
	return strings.TrimSpace(string(log))
}

// stop interrupts the daemon and waits for it to exit, killing it when
// the graceful drain takes too long.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// procStats is what /proc says about the daemon.
type procStats struct {
	cpuNs uint64 // utime + stime
	rssKB uint64 // VmRSS
	hwmKB uint64 // VmHWM, peak RSS
}

func (d *daemon) proc() (procStats, error) {
	var ps procStats
	pid := d.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+2:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	ps.cpuNs = (ut + st) * uint64(time.Second/clockTicks)
	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		line := sc.Text()
		var dst *uint64
		switch {
		case strings.HasPrefix(line, "VmRSS:"):
			dst = &ps.rssKB
		case strings.HasPrefix(line, "VmHWM:"):
			dst = &ps.hwmKB
		default:
			continue
		}
		if f := strings.Fields(line); len(f) >= 2 {
			*dst, _ = strconv.ParseUint(f[1], 10, 64)
		}
	}
	return ps, sc.Err()
}

var httpClient = &http.Client{Timeout: 30 * time.Second}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := httpClient.Get("http://" + d.httpAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s", d.name, path, resp.Status)
	}
	return body, nil
}

// memStats is the subset of runtime.MemStats read from /debug/vars.
type memStats struct {
	TotalAlloc   uint64
	PauseTotalNs uint64
	NumGC        uint32
}

func (d *daemon) memstats() (memStats, error) {
	body, err := d.get("/debug/vars")
	if err != nil {
		return memStats{}, err
	}
	var v struct {
		Memstats memStats `json:"memstats"`
	}
	err = json.Unmarshal(body, &v)
	return v.Memstats, err
}

// metrics scrapes /metrics into series name (labels included, as
// printed) -> value.
func (d *daemon) metrics() (map[string]float64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// snapshot is every outside-in counter of one daemon at one instant.
type snapshot struct {
	proc    procStats
	mem     memStats
	metrics map[string]float64
}

func (d *daemon) snapshot() (snapshot, error) {
	var s snapshot
	var err error
	if s.proc, err = d.proc(); err != nil {
		return s, err
	}
	if s.mem, err = d.memstats(); err != nil {
		return s, err
	}
	s.metrics, err = d.metrics()
	return s, err
}
