package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A daemon is one viewserverd child process, driven only from outside:
// its HTTP API over loopback, its /proc entry, and signals.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	readyAt time.Time // when waitReady saw the first 200
	stderr  tailBuffer
	waited  chan struct{} // closed once cmd.Wait has returned
	waitErr error
	http    *http.Client // control-plane client (healthz, views, scrapes)
}

// readyDeadline bounds how long a daemon may take from exec to a 200
// /v1/healthz. A cold wk1 bootstrap takes about 7 s on the build box; a
// daemon that is not ready after this long counts as failed to start.
const readyDeadline = 90 * time.Second

// freeAddr picks a loopback address nobody is listening on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a free port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", fmt.Errorf("release the probed port: %w", err)
	}
	return addr, nil
}

// startDaemon execs bin with args plus a free -addr and returns without
// waiting for readiness; started is taken just before the exec.
func startDaemon(bin string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		addr:   addr,
		waited: make(chan struct{}),
		http:   &http.Client{Timeout: 5 * time.Second},
	}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = &d.stderr
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.waited)
	}()
	return d, nil
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// health is the subset of GET /v1/healthz the checks compare.
type health struct {
	State        string `json:"state"`
	Window       int    `json:"window"`
	ViewVersion  int    `json:"view_version"`
	Views        int    `json:"views"`
	ModelVersion int    `json:"model_version"`
}

// waitReady polls /v1/healthz until it answers 200 and returns the time
// since exec. It gives up when the process exits or the deadline passes.
func (d *daemon) waitReady() (time.Duration, error) {
	deadline := d.started.Add(readyDeadline)
	for {
		select {
		case <-d.waited:
			return 0, fmt.Errorf("daemon exited before it was ready: %v", d.waitErr)
		default:
		}
		resp, err := d.http.Get(d.url("/v1/healthz"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
			_ = resp.Body.Close()                 // read-only body
			if resp.StatusCode == http.StatusOK {
				d.readyAt = time.Now()
				return d.readyAt.Sub(d.started), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("daemon not ready after %v", readyDeadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getJSON decodes one control-plane GET into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.http.Get(d.url(path))
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // read-only body
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// viewSet is the subset of GET /v1/views the harness reads.
type viewSet struct {
	Version int `json:"version"`
	Views   []struct {
		SQL string `json:"sql"`
	} `json:"views"`
}

func (vs *viewSet) sqls() []string {
	out := make([]string, len(vs.Views))
	for i := range vs.Views {
		out[i] = vs.Views[i].SQL
	}
	return out
}

// signalGrace is how long after its first 200 a daemon is left alone
// before it is sent SIGTERM. viewserverd answers /v1/healthz with 200 from
// inside Server.Start, and its main goroutine installs the SIGTERM handler
// only after Start has returned: a signal in between ends the process
// ("signal: terminated") without a drain. Only the restarted daemon of
// advise_mixed is stopped that soon after it came up, and nothing is timed
// there.
const signalGrace = 500 * time.Millisecond

// stop ends the daemon the way an operator would (SIGTERM, wait for the
// drain) and falls back to SIGKILL if it does not exit.
func (d *daemon) stop() error {
	select {
	case <-d.waited:
		return nil
	default:
	}
	time.Sleep(time.Until(d.readyAt.Add(signalGrace))) // no wait once the grace has passed
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case <-d.waited:
		if d.waitErr != nil {
			return fmt.Errorf("daemon exit: %w", d.waitErr)
		}
		return nil
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("daemon ignored SIGTERM for 20s; killed")
	}
}

// kill is SIGKILL + wait: the crash the durability layer must survive,
// and the cleanup of last resort.
func (d *daemon) kill() {
	select {
	case <-d.waited:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // already-exited is the only failure and is fine
	<-d.waited
}

// tailBuffer keeps the last tailCap bytes written to it: a daemon's
// stderr, attached to the result when a run fails.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailCap = 16 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailCap {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailCap:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// --- /proc ---------------------------------------------------------------

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux the Go toolchain supports.
const clockTick = 100

// procCPU returns the user+system CPU seconds a live process has used,
// all threads included.
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime %q %q", pid, f[11], f[12])
	}
	return (utime + stime) / clockTick, nil
}

// procPeakRSS returns VmHWM, the resident-set high-water mark, in MiB.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// --- scraping --------------------------------------------------------------

// scrape is one reading of the daemon's own counters: every sample of
// /metrics that is not a histogram bucket, plus the runtime's memstats
// from /debug/vars.
type scrape struct {
	Metrics    map[string]float64 `json:"metrics"`
	TotalAlloc float64            `json:"total_alloc_bytes"`
	NumGC      float64            `json:"num_gc"`
}

func (d *daemon) scrape() (*scrape, error) {
	resp, err := d.http.Get(d.url("/metrics"))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read-only body
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	s := &scrape{Metrics: parseMetrics(string(raw))}
	var vars struct {
		Memstats struct {
			TotalAlloc float64
			NumGC      float64
		} `json:"memstats"`
	}
	if err := d.getJSON("/debug/vars", &vars); err != nil {
		return nil, err
	}
	s.TotalAlloc, s.NumGC = vars.Memstats.TotalAlloc, vars.Memstats.NumGC
	return s, nil
}

// parseMetrics reads Prometheus text exposition, skipping comments and
// labelled samples (histogram buckets).
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.IndexByte(line, '{') >= 0 {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// delta returns after−before for one /metrics sample.
func delta(before, after *scrape, name string) float64 {
	return after.Metrics[name] - before.Metrics[name]
}

// ratio is num/(num+den), 0 when both are 0.
func ratio(num, den float64) float64 {
	if num+den <= 0 {
		return 0
	}
	return num / (num + den)
}

// childRun is what the kernel and the wall clock say about one finished
// batch child.
type childRun struct {
	wall   time.Duration
	cpuS   float64 // user + system
	rssMB  float64 // peak resident set
	stderr string
}

// runChild runs a batch child process to completion under ctx, handing
// every line of its standard output to onLine with the time it arrived:
// the child writes each stage's line unbuffered when the stage ends.
func runChild(ctx context.Context, onLine func(line string, at time.Duration), bin string, args ...string) (childRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var errBuf tailBuffer
	cmd.Stderr = &errBuf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, fmt.Errorf("start %s: %w", bin, err)
	}
	lines := bufio.NewScanner(out)
	for lines.Scan() {
		onLine(lines.Text(), time.Since(start))
	}
	err = cmd.Wait()
	run := childRun{wall: time.Since(start), stderr: errBuf.String()}
	if ps := cmd.ProcessState; ps != nil {
		run.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			run.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return run, fmt.Errorf("%s: %w", bin, err)
	}
	return run, nil
}
