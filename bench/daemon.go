package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// buildDaemon compiles cmd/maritimed from the checkout into the build
// directory and returns the binary's path.
func buildDaemon(ctx context.Context, at dirs) (string, error) {
	bin, err := filepath.Abs(filepath.Join(at.build, "bin", "maritimed"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/maritimed")
	cmd.Dir = at.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/maritimed: %w\n%s", err, out)
	}
	return bin, nil
}

// summary is maritimed's closing "N lines → M messages …" line.
type summary struct {
	lines, messages, archived, alerts, undecodable int
}

var (
	servingRE = regexp.MustCompile(`^\[query\] serving .* on (\S+)$`)
	summaryRE = regexp.MustCompile(`^(\d+) lines → (\d+) messages in .*; archived (\d+) .*; (\d+) alerts; (\d+) undecodable$`)
)

// tail keeps the last bytes of a stream for error messages.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 2048 {
		t.buf = t.buf[len(t.buf)-2048:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// daemon is one running maritimed, driven from outside: lines go in on
// stdin, queries and streams over loopback HTTP, stdout is drained
// continuously.
type daemon struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	base   string // http://host:port
	http   *http.Client
	stderr tail

	readyAfter time.Duration // process spawn → /readyz 200

	exited chan struct{} // closed once stdout hit EOF and the process was reaped
	// Written by the drain goroutine before exited closes.
	sum     summary
	gotSum  bool
	waitErr error
}

// startDaemon spawns bin with the fixed front (-severity 9 silences alert
// printing, -http on an ephemeral loopback port) plus args, and returns
// once /readyz answers 200. A daemon that exits early or is not ready
// within 30 s is an error, never a slow number.
func startDaemon(ctx context.Context, bin string, env []string, args ...string) (*daemon, error) {
	d := &daemon{
		exited: make(chan struct{}),
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 16, MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute,
		}},
	}
	d.cmd = exec.Command(bin, append([]string{"-severity", "9", "-http", "127.0.0.1:0"}, args...)...)
	d.cmd.Env = append(os.Environ(), env...)
	d.cmd.Stderr = &d.stderr
	stdin, err := d.cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.stdin = stdin
	spawned := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go d.drain(stdout, addr)

	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("maritimed %v exited before serving: %v\n%s", args, d.waitErr, d.stderr.String())
	case <-deadline.C:
		d.kill()
		return nil, fmt.Errorf("maritimed %v printed no serving line within 30s", args)
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	for {
		code, _, err := d.get(ctx, "/readyz")
		if err == nil && code == http.StatusOK {
			d.readyAfter = time.Since(spawned)
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("maritimed %v exited before ready: %v\n%s", args, d.waitErr, d.stderr.String())
		case <-deadline.C:
			d.kill()
			return nil, fmt.Errorf("maritimed %v: /readyz not 200 within 30s (last: %d, %v)", args, code, err)
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// drain consumes the daemon's stdout to EOF, picking out the serving
// address and the closing summary, then reaps the process.
func (d *daemon) drain(stdout io.Reader, addr chan<- string) {
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := servingRE.FindStringSubmatch(line); m != nil {
			select {
			case addr <- m[1]:
			default:
			}
			continue
		}
		if m := summaryRE.FindStringSubmatch(line); m != nil {
			n := make([]int, 5)
			for i := range n {
				n[i], _ = strconv.Atoi(m[i+1]) // the pattern admits digits only
			}
			d.sum = summary{lines: n[0], messages: n[1], archived: n[2], alerts: n[3], undecodable: n[4]}
			d.gotSum = true
		}
	}
	d.waitErr = d.cmd.Wait()
	close(d.exited)
}

// alive reports an error once the daemon has exited.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return fmt.Errorf("maritimed exited mid-run: %v\n%s", d.waitErr, d.stderr.String())
	default:
		return nil
	}
}

// finish closes stdin, waits for the daemon to drain and exit, and
// returns its closing summary.
func (d *daemon) finish() (summary, error) {
	if err := d.stdin.Close(); err != nil {
		d.kill()
		return summary{}, fmt.Errorf("closing maritimed stdin: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return summary{}, errors.New("maritimed did not exit within 60s of stdin closing")
	}
	d.http.CloseIdleConnections()
	if d.waitErr != nil {
		return summary{}, fmt.Errorf("maritimed: %w\n%s", d.waitErr, d.stderr.String())
	}
	if !d.gotSum {
		return summary{}, errors.New("maritimed exited without its summary line")
	}
	return d.sum, nil
}

// kill is the error-path stop: no summary wanted, just no orphan.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Kill() // already-exited is the only failure, and is fine
		<-d.exited
	}
	d.http.CloseIdleConnections()
}

// rssPeakMB reads the daemon's VmHWM.
func (d *daemon) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// get issues one GET and returns status and body.
func (d *daemon) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return d.do(req)
}

// post issues one JSON POST and returns status and body.
func (d *daemon) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return d.do(req)
}

func (d *daemon) do(req *http.Request) (int, []byte, error) {
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape reads /metrics into a map keyed by the full series id, labels
// included, as the exposition prints it.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	code, body, err := d.get(ctx, "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", code)
	}
	out := make(map[string]float64, 128)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}
