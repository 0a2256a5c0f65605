package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running cmd/serve process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	copied chan struct{} // closed once stderr is drained
	setup  time.Duration // exec until the first 200 from /healthz
}

// startDaemon execs the daemon and returns once /healthz answers 200.
// The daemon reports its bound address on stderr after it has listened
// and opened its state, so the wait is one blocking read and one GET:
// no polling.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{copied: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	br := bufio.NewReader(pipe)
	line, err := br.ReadString('\n')
	go func() {
		defer close(d.copied)
		_, _ = io.Copy(&d.stderr, br)
	}()
	const marker = "serve: listening on "
	if err != nil || !strings.HasPrefix(line, marker) {
		d.kill()
		return nil, fmt.Errorf("daemon did not report its address (got %q, %v): %s", line, err, d.stderr.String())
	}
	d.base = "http://" + strings.TrimSpace(strings.TrimPrefix(line, marker))
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.kill()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	d.setup = time.Since(t0)
	return d, nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
	<-d.copied
}

// stop sends SIGTERM, waits for the drain and checks the exit code.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		<-d.copied
		if err != nil {
			return fmt.Errorf("daemon exit: %v: %s", err, d.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		<-d.copied
		return errors.New("daemon did not drain within 30s")
	}
}

// clockTick is the kernel's USER_HZ: /proc reports CPU time in 10 ms
// ticks on Linux.
const clockTick = 10 * time.Millisecond

// cpuTime reads the process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// Fields 14 and 15 of stat (utime, stime) are f[11] and f[12] here.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// statusKB reads one "Name: N kB" line of /proc/<pid>/status.
func statusKB(pid int, name string) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", name, pid)
}

// statsz is the part of the daemon's /statsz document the benchmark reads.
type statsz struct {
	Workers     int   `json:"workers"`
	Rejected429 int64 `json:"rejected_429"`
	Timeouts    int64 `json:"timeouts"`
	ServerErrs  int64 `json:"server_errors"`
	Sweep       struct {
		Releases       int   `json:"releases"`
		Duplicates     int   `json:"duplicate_completions"`
		JournalAppends int64 `json:"journal_appends"`
		JournalSyncs   int64 `json:"journal_syncs"`
		JournalBytes   int64 `json:"journal_bytes"`
	} `json:"sweep"`
}

func (d *daemon) statsz(ctx context.Context, c *http.Client) (*statsz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /statsz: %w", err)
	}
	return &st, nil
}
