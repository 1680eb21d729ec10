// Sarserve is the long-running SAR-as-a-service daemon: it accepts
// image-formation and sweep jobs over HTTP/JSON, runs each admitted job
// through internal/sweep as soon as one of its -j execution slots is
// free, and serves the resulting bench envelopes from a shared
// content-addressed cache (duplicate submissions single-flight across
// tenants).
//
// Endpoints (see docs/API.md for schemas and docs/OPERATIONS.md for the
// operator runbook):
//
//	POST /v1/jobs              submit a job (202; ?wait=1 blocks to 200)
//	GET  /v1/jobs/{id}         job status
//	GET  /v1/jobs/{id}/result  result envelope
//	GET  /metrics              Prometheus text exposition
//	GET  /debug/vars           expvar-style JSON metrics
//	GET  /healthz              liveness
//	GET  /readyz               readiness (503 once draining)
//
// Usage:
//
//	sarserve                                   # listen on :8357, defaults
//	sarserve -addr :9000 -j 8                  # at most eight jobs execute at once
//	sarserve -cache-dir /var/cache/sarserve    # persistent result cache
//	sarserve -queue 512                        # admission queue bound
//	sarserve -qps 10 -burst 20                 # per-tenant quota
//	sarserve -timeout 5m                       # per-job deadline
//	sarserve -ledger out/runs                  # run-ledger directory
//	sarserve -drain-timeout 1m                 # max SIGTERM drain wait
//	sarserve -trace-sample 0.1                 # trace 10% of submissions
//	sarserve -slow-request 2s                  # warn-log slower requests
//	sarserve -log-format json -log-level debug # structured log output
//
// On SIGTERM or SIGINT the daemon stops admitting jobs (POST answers
// 503 + Retry-After, /readyz trips), finishes the jobs it has already
// admitted, writes a final run-ledger entry with a metrics snapshot, and
// exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sarmany/internal/logx"
	"sarmany/internal/serve"
	"sarmany/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8357", "HTTP listen address")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "sweep worker pool size")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory (empty = no cache)")
	queue := flag.Int("queue", 256, "max queued jobs before 429")
	qps := flag.Float64("qps", 0, "per-tenant job admission rate (0 = unlimited)")
	burst := flag.Int("burst", 0, "per-tenant burst allowance (0 = derived from -qps)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-job execution deadline")
	ledger := flag.String("ledger", telemetry.DefaultDir, "run-ledger directory (empty = disabled)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "max wait for in-flight jobs on shutdown")
	traceSample := flag.Float64("trace-sample", 1.0, "fraction of submissions to trace (0 = off; inbound traceparent always wins)")
	slowReq := flag.Duration("slow-request", 10*time.Second, "warn-log jobs slower than this (0 = never)")
	var logCfg logx.Config
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sarserve: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	lg := logCfg.MustNew("sarserve")

	s := serve.NewServer(serve.Options{
		Workers:     *workers,
		CacheDir:    *cacheDir,
		QueueLimit:  *queue,
		Quota:       serve.QuotaConfig{JobsPerSec: *qps, Burst: *burst},
		JobTimeout:  *timeout,
		LedgerDir:   *ledger,
		TraceSample: *traceSample,
		SlowRequest: *slowReq,
		Log:         lg,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	// Serve until SIGTERM/SIGINT, then drain: the signal context flips,
	// admission starts rejecting, and we wait for admitted jobs
	// before letting the HTTP listener close.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	lg.Info("listening on "+*addr,
		"workers", *workers, "queue", *queue, "trace_sample", *traceSample)

	select {
	case err := <-errCh:
		lg.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	lg.Info("draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := s.Drain(dctx)
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		lg.Warn("shutdown", "err", err)
	}
	if drainErr != nil {
		lg.Error("drain failed", "err", drainErr)
		os.Exit(1)
	}
	lg.Info("drained cleanly")
}
