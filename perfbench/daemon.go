package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// oneShot makes the benchmark's requests outside the load generator
// (readiness probes, metric reads) without holding a connection open.
var oneShot = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// daemon is one sarserve process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	ledger string
	exited chan struct{}
	err    error // Wait result, valid once exited is closed
}

// startDaemon launches sarserve on a free loopback port with its own
// ledger directory and the given cache directory, and waits until
// /readyz answers 200. It returns the daemon and the start-to-ready time.
func startDaemon(bin, dir, cacheDir string, traceSample float64) (*daemon, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, ready, err := tryStartDaemon(bin, dir, cacheDir, traceSample)
		if err == nil {
			return d, ready, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func tryStartDaemon(bin, dir, cacheDir string, traceSample float64) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "sarserve.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{base: "http://" + addr, ledger: filepath.Join(dir, "ledger"), exited: make(chan struct{})}
	d.cmd = exec.Command(bin,
		"-addr", addr,
		"-j", strconv.Itoa(runtime.NumCPU()),
		"-cache-dir", cacheDir,
		"-ledger", d.ledger,
		"-trace-sample", strconv.FormatFloat(traceSample, 'g', -1, 64),
		"-log-level", "warn")
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	// The daemon must not outlive the benchmark, even if the benchmark
	// is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start sarserve: %w", err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.exited) }()

	deadline := start.Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("sarserve exited before ready: %v (log in %s)", d.err, logf.Name())
		default:
		}
		if resp, err := oneShot.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	d.kill()
	return nil, 0, errors.New("sarserve not ready within 20s")
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than a minute.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	select {
	case <-d.exited:
		return d.err
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return d.err
	case <-time.After(time.Minute):
		d.kill()
		return errors.New("sarserve did not drain within a minute")
	}
}

// kill stops the daemon at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// peakRSS is the daemon's peak resident set size in bytes.
func (d *daemon) peakRSS() (float64, error) {
	return peakRSS(strconv.Itoa(d.cmd.Process.Pid))
}

// vars reads the daemon's /debug/vars metrics: counters and gauges as
// numbers, histograms as objects with count and sum.
func (d *daemon) vars() (map[string]json.RawMessage, error) {
	resp, err := oneShot.Get(d.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return m, nil
}

// varNum reads a counter or gauge from a /debug/vars document (0 when
// absent).
func varNum(m map[string]json.RawMessage, name string) float64 {
	var v float64
	_ = json.Unmarshal(m[name], &v)
	return v
}

// varHist reads a histogram's count and sum from a /debug/vars document.
func varHist(m map[string]json.RawMessage, name string) (count, sum float64) {
	var h struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum"`
	}
	_ = json.Unmarshal(m[name], &h)
	return h.Count, h.Sum
}
