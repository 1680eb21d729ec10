package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sarmany/internal/bench"
	"sarmany/internal/emu"
	"sarmany/internal/kernels"
	"sarmany/internal/report"
	"sarmany/internal/sar"
	"sarmany/internal/sweep"
)

// servePoint is one offered-load measurement of the saturation curve.
type servePoint struct {
	OfferedJobsPerSec float64 `json:"offered_jobs_per_sec"`
	Jobs              int     `json:"jobs"`
	Distinct          int     `json:"distinct"`
	Completed         int     `json:"completed"`
	Failed            int     `json:"failed"`
	// Executed counts fresh simulations; everything else was served by
	// in-flight dedup or the content-addressed cache.
	Executed     int `json:"executed"`
	CacheHits    int `json:"cache_hits"`
	Deduplicated int `json:"deduplicated"`
	// CacheHitRatio is the fraction of jobs served without a fresh
	// simulation: 1 - executed/completed.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	P50Seconds    float64 `json:"p50_seconds"`
	P99Seconds    float64 `json:"p99_seconds"`
	JobsPerSec    float64 `json:"jobs_per_sec"`
}

// serveBenchData is the BENCH_serve.json payload.
type serveBenchData struct {
	HostCPUs    int          `json:"host_cpus"`
	RaceEnabled bool         `json:"race_enabled"`
	Points      []servePoint `json:"points"`
	// Warm reruns the last point's job set against its now-warm cache on
	// a fresh server: every result must replay without simulation.
	Warm servePoint `json:"warm"`
}

// benchRunner is a real (simulated-chip) workload: a parallel FFBP run
// on a 64x61 dataset, cycle-accounted rather than wall-clock timed, so
// equal jobs produce byte-identical envelopes.
func benchRunner(tb testing.TB) sweep.RunFunc {
	tb.Helper()
	p := sar.DefaultParams()
	p.NumPulses, p.NumBins, p.R0 = 64, 61, 500
	box := report.DefaultBox(p)
	data := sar.Simulate(p, sar.SixTargetScene(p), nil)
	return func(ctx context.Context, j sweep.Job) (bench.Result, error) {
		if err := ctx.Err(); err != nil {
			return bench.Result{}, err
		}
		chip := emu.New(emu.E16G3())
		if _, _, err := kernels.ParFFBP(chip, 4, data, p, box); err != nil {
			return bench.Result{}, err
		}
		return bench.Result{
			Name: "serve-ffbp", Title: "served FFBP point",
			Pulses: p.NumPulses, Bins: p.NumBins,
			Data: struct {
				Seconds float64 `json:"seconds"`
			}{chip.Time()},
		}, nil
	}
}

// loadPoint drives one offered-load measurement: jobs submissions paced
// at rate against a fresh server over cacheDir, each a synchronous
// (?wait=1) POST whose wall clock is the end-to-end latency.
func loadPoint(t *testing.T, run sweep.RunFunc, cacheDir string, rate float64, jobs, distinct int) servePoint {
	t.Helper()
	s := NewServer(Options{
		Workers:    4,
		QueueLimit: 4 * jobs, // admission losses would skew the latency sample
		CacheDir:   cacheDir,
		Run:        run,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	interval := time.Duration(float64(time.Second) / rate)
	latencies := make([]float64, jobs)
	errs := make([]error, jobs)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * interval) // the offered arrival process
			spec := fmt.Sprintf(`{"exp": "gbp", "tag": "job-%02d"}`, i%distinct)
			t0 := time.Now()
			resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(spec))
			if err != nil {
				errs[i] = err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			latencies[i] = time.Since(t0).Seconds()
		}(i)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	sorted := append([]float64(nil), latencies...)
	sort.Float64s(sorted)
	reg := s.reg
	completed := int(reg.Counter("serve.jobs.completed").Value())
	executed := int(reg.Counter("sweep.jobs.executed").Value())
	pt := servePoint{
		OfferedJobsPerSec: rate,
		Jobs:              jobs,
		Distinct:          distinct,
		Completed:         completed,
		Failed:            int(reg.Counter("serve.jobs.failed").Value()),
		Executed:          executed,
		CacheHits:         int(reg.Counter("serve.jobs.cachehits").Value()),
		Deduplicated:      int(reg.Counter("serve.jobs.deduplicated").Value()),
		P50Seconds:        sorted[len(sorted)/2],
		P99Seconds:        sorted[(len(sorted)*99)/100],
		JobsPerSec:        float64(jobs) / wall,
	}
	if served := completed + pt.Deduplicated; served > 0 {
		pt.CacheHitRatio = 1 - float64(executed)/float64(served)
	}
	if got := completed + pt.Deduplicated; got != jobs {
		t.Errorf("rate %.0f: completed %d + deduplicated %d != %d submitted",
			rate, completed, pt.Deduplicated, jobs)
	}
	if pt.Failed != 0 {
		t.Errorf("rate %.0f: %d failed jobs", rate, pt.Failed)
	}
	return pt
}

// TestServeSaturation measures the server's saturation behavior (p50/p99
// end-to-end latency and jobs/sec at three offered loads, plus a
// warm-cache rerun) and, when SERVEBENCH_OUT names a directory, records
// it as a BENCH_serve.json envelope — the `make servebench` target.
// Without the variable the measurement is skipped to keep the regular
// suite fast. Latencies are wall clock and therefore advisory; the
// submitted/executed/cache-hit accounting is deterministic and gates.
func TestServeSaturation(t *testing.T) {
	out := os.Getenv("SERVEBENCH_OUT")
	if out == "" {
		t.Skip("SERVEBENCH_OUT not set")
	}
	run := benchRunner(t)
	const jobs, distinct = 24, 8

	data := serveBenchData{HostCPUs: runtime.GOMAXPROCS(0), RaceEnabled: raceEnabled}
	var lastCache string
	for _, rate := range []float64{25, 50, 100} {
		lastCache = filepath.Join(t.TempDir(), fmt.Sprintf("cache-%.0f", rate))
		pt := loadPoint(t, run, lastCache, rate, jobs, distinct)
		t.Logf("offered %.0f/s: p50 %.3fs p99 %.3fs, %.1f jobs/s, hit ratio %.3f",
			rate, pt.P50Seconds, pt.P99Seconds, pt.JobsPerSec, pt.CacheHitRatio)
		data.Points = append(data.Points, pt)
	}

	// Warm rerun: same job set, fresh server, the last point's cache.
	data.Warm = loadPoint(t, run, lastCache, 100, jobs, distinct)
	t.Logf("warm rerun: hit ratio %.3f (executed %d)", data.Warm.CacheHitRatio, data.Warm.Executed)
	if data.Warm.Executed != 0 {
		t.Errorf("warm rerun executed %d simulations, want 0", data.Warm.Executed)
	}
	if data.Warm.CacheHitRatio <= 0.9 {
		t.Errorf("warm cache-hit ratio = %.3f, want > 0.9", data.Warm.CacheHitRatio)
	}

	env := bench.Result{
		Name: "serve", Title: "Job server saturation",
		Pulses: 64, Bins: 61,
		Data: data,
	}
	path, err := bench.WriteFile(out, env)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
