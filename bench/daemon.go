package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// buildDaemon compiles ./cmd/hemeserved from the checkout at root into
// outDir and returns the binary's path. The go tool's own cache makes
// this a sub-second no-op after the first build.
func buildDaemon(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "hemeserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hemeserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building hemeserved: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running hemeserved process, started in its own process
// group so that stop can take down anything it spawned.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	// bootS is exec → first 200 on /healthz.
	bootS   float64
	started time.Time
	// stderrDone closes once the log drain has seen EOF.
	stderrDone chan struct{}
	tail       *logTail
	stopOnce   sync.Once
}

// logTail keeps the last few daemon log lines for failure reports.
type logTail struct {
	mu    sync.Mutex
	lines []string
}

func (l *logTail) add(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, s)
	if len(l.lines) > 20 {
		l.lines = l.lines[1:]
	}
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// startDaemon execs hemeserved on an ephemeral port (read back from its
// "listening" log line) with -workers 2 and, when dataDir is not
// empty, -data-dir; every other flag keeps its default. It returns once
// /healthz answers 200.
func startDaemon(ctx context.Context, bin, dataDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-workers", "2"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("daemon stderr pipe: %w", err)
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hemeserved: %w", err)
	}
	d := &daemon{cmd: cmd, started: start, stderrDone: make(chan struct{}), tail: &logTail{}}
	urlCh := make(chan string, 1)
	go func() {
		defer close(d.stderrDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.tail.add(line)
			if i := strings.Index(line, "url=http://"); !sent && i >= 0 && strings.Contains(line, "listening") {
				u := line[i+len("url="):]
				if j := strings.IndexByte(u, ' '); j >= 0 {
					u = u[:j]
				}
				urlCh <- strings.Trim(u, `"`)
				sent = true
			}
		}
	}()
	select {
	case d.base = <-urlCh:
	case <-d.stderrDone:
		d.stop()
		return nil, fmt.Errorf("hemeserved exited before listening:\n%s", d.tail)
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("hemeserved did not report a listen address:\n%s", d.tail)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	c := newClient()
	defer c.close()
	for {
		code, _, err := c.get(ctx, d.base+"/healthz")
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Since(start) > 20*time.Second || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("hemeserved never became healthy (last: %d %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
	d.bootS = time.Since(start).Seconds()
	return d, nil
}

// stop SIGKILLs the daemon's process group and waits for the process
// and its log drain to end. Safe to call more than once.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		if d.cmd.Process != nil {
			_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // already-exited is fine
		}
		<-d.stderrDone
		_ = d.cmd.Wait() // "signal: killed" is the expected outcome
	})
}

// procStats reads the daemon's peak RSS (VmHWM, MB) and CPU time
// (utime+stime, seconds) from /proc; zeros when /proc is unreadable.
func (d *daemon) procStats() (peakRSSMB, cpuS float64) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	if data, err := os.ReadFile("/proc/" + pid + "/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				if len(f) >= 2 {
					kb, _ := strconv.ParseFloat(f[1], 64)
					peakRSSMB = kb / 1024
				}
			}
		}
	}
	if data, err := os.ReadFile("/proc/" + pid + "/stat"); err == nil {
		// Fields after the ")" that closes comm: state is field 3, so
		// utime/stime (14/15) sit at offsets 11/12 of the remainder.
		if i := bytes.LastIndexByte(data, ')'); i >= 0 {
			f := strings.Fields(string(data[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				cpuS = (ut + st) / 100 // USER_HZ is 100 on every Linux Go supports
			}
		}
	}
	return peakRSSMB, cpuS
}

// client is one HTTP connection to the daemon: a transport capped at a
// single connection, so "at most two client connections" is enforced by
// construction (two clients exist at any time).
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func (c *client) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) get(ctx context.Context, url string) (int, []byte, error) {
	return c.do(ctx, http.MethodGet, url, nil)
}

// submit posts a job spec and returns the accepted job's info.
func (c *client) submit(ctx context.Context, base string, spec service.JobSpec) (service.JobInfo, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.JobInfo{}, err
	}
	code, data, err := c.do(ctx, http.MethodPost, base+"/api/v1/jobs", body)
	if err != nil {
		return service.JobInfo{}, err
	}
	if code != http.StatusCreated {
		return service.JobInfo{}, fmt.Errorf("submit: status %d: %s", code, bytes.TrimSpace(data))
	}
	var info service.JobInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return service.JobInfo{}, fmt.Errorf("submit: decoding reply: %w", err)
	}
	return info, nil
}

func (c *client) job(ctx context.Context, base, id string) (service.JobInfo, error) {
	code, data, err := c.get(ctx, base+"/api/v1/jobs/"+id)
	if err != nil {
		return service.JobInfo{}, err
	}
	if code != http.StatusOK {
		return service.JobInfo{}, fmt.Errorf("get job %s: status %d", id, code)
	}
	var info service.JobInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return service.JobInfo{}, fmt.Errorf("get job %s: %w", id, err)
	}
	return info, nil
}

// waitJob polls the job every millisecond until pred holds, the job is
// terminal, or ctx ends; it returns the last info seen.
func (c *client) waitJob(ctx context.Context, base, id string, pred func(service.JobInfo) bool) (service.JobInfo, error) {
	for {
		info, err := c.job(ctx, base, id)
		if err != nil {
			return info, err
		}
		if pred(info) || info.State.Terminal() {
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// waitCheckpoint polls the job's flight recorder until it holds the end
// of a checkpoint write; a job that ends first is an error.
func (c *client) waitCheckpoint(ctx context.Context, base, id string) error {
	for {
		code, data, err := c.get(ctx, base+"/api/v1/jobs/"+id+"/events")
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("events of %s: status %d", id, code)
		}
		var reply struct {
			State  service.JobState `json:"state"`
			Events []struct {
				Type string `json:"type"`
			} `json:"events"`
		}
		if err := json.Unmarshal(data, &reply); err != nil {
			return fmt.Errorf("events of %s: %w", id, err)
		}
		for _, ev := range reply.Events {
			if ev.Type == obs.EvCheckpointEnd {
				return nil
			}
		}
		if reply.State.Terminal() {
			return fmt.Errorf("job %s was %s before any checkpoint was written", id, reply.State)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (c *client) cancel(ctx context.Context, base, id string) error {
	code, data, err := c.do(ctx, http.MethodDelete, base+"/api/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	// 409 means the job already reached a terminal state — nothing left to cancel.
	if code != http.StatusOK && code != http.StatusConflict {
		return fmt.Errorf("cancel %s: status %d: %s", id, code, bytes.TrimSpace(data))
	}
	return nil
}

// countJobs returns how many jobs the daemon knows.
func (c *client) countJobs(ctx context.Context, base string) (int, error) {
	code, data, err := c.get(ctx, base+"/api/v1/jobs")
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("list jobs: status %d", code)
	}
	var list struct {
		Jobs []service.JobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		return 0, fmt.Errorf("list jobs: %w", err)
	}
	return len(list.Jobs), nil
}

// scrape reads the daemon's Prometheus exposition into name → value for
// the un-labelled series (counters and gauges), which is all the
// benchmark reads.
func (c *client) scrape(ctx context.Context, base string) (map[string]float64, error) {
	code, data, err := c.get(ctx, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// sseEvent is one Server-Sent Event: its name and data line.
type sseEvent struct {
	Name string
	Data []byte
}

// sseStream is an open /stream subscription on its own connection.
type sseStream struct {
	resp *http.Response
	rd   *bufio.Reader
}

func (c *client) openStream(ctx context.Context, url string) (*sseStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // diagnostics only
		resp.Body.Close()
		return nil, fmt.Errorf("stream: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return &sseStream{resp: resp, rd: bufio.NewReaderSize(resp.Body, 256<<10)}, nil
}

// next blocks for the next event; io.EOF when the server closes.
func (s *sseStream) next() (sseEvent, error) {
	var ev sseEvent
	for {
		line, err := s.rd.ReadBytes('\n')
		if err != nil {
			return ev, err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if ev.Name != "" {
				return ev, nil
			}
		case bytes.HasPrefix(line, []byte("event: ")):
			ev.Name = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			ev.Data = append([]byte(nil), line[len("data: "):]...)
		}
	}
}

func (s *sseStream) close() { s.resp.Body.Close() }
