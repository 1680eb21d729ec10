package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"sarmany/internal/autofocus"
	"sarmany/internal/bench"
	"sarmany/internal/emu"
	"sarmany/internal/ffbp"
	"sarmany/internal/interp"
	"sarmany/internal/kernels"
	"sarmany/internal/mat"
	"sarmany/internal/obs"
	"sarmany/internal/refcpu"
	"sarmany/internal/report"
	"sarmany/internal/sar"
	"sarmany/internal/sweep"
)

// t1Limit is the latency limit of one paper-scale Table I job (about
// three times its host time on a 2-CPU x86 host).
const t1Limit = 30 * time.Second

// t1Warmups is how many small-scale Table I jobs warm the stack before a
// t1-paper run; setup_s is their median time.
const t1Warmups = 5

// runJob runs one experiment through the benchtab path: sweep.Run with
// one worker and no cache, which calls bench.Compute.
func runJob(exp string, cfg report.Config) (sweep.JobResult, time.Duration, error) {
	start := time.Now()
	res, err := sweep.Run(context.Background(), []sweep.Job{{Name: exp, Exp: exp, Config: cfg}},
		sweep.Options{Workers: 1})
	d := time.Since(start)
	if err != nil {
		return sweep.JobResult{}, d, err
	}
	return res[0], d, res[0].Err
}

// computeEnvelope returns an experiment's canonical envelope at a scale.
func computeEnvelope(exp, scale string) ([]byte, error) {
	cfg := report.Small()
	if scale == "paper" {
		cfg = report.Default()
	}
	r, _, err := runJob(exp, cfg)
	return r.Raw, err
}

// warmT1 runs the small-scale warm-up jobs, checks their output, and
// returns their median time.
func warmT1(pins *pinSet, out *outcome) (float64, error) {
	var ds []float64
	for i := 0; i < t1Warmups; i++ {
		r, d, err := runJob("t1", report.Small())
		if err != nil {
			return 0, fmt.Errorf("warm-up job: %w", err)
		}
		if err := pins.check(pinKey("small", "t1"), r.Raw); err != nil {
			out.mismatch("warm-up %v", err)
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), nil
}

// runT1 is the t1-paper workload: a closed loop with one client running
// paper-scale Table I jobs back to back for the run length. The last job
// started inside the run length is waited for.
func runT1(opt options, pins *pinSet) (*outcome, error) {
	out := newOutcome()
	setup, err := warmT1(pins, out)
	if err != nil {
		return nil, err
	}
	if opt.trace {
		return traceT1(opt, pins, out)
	}
	var lat []float64
	paperErr := math.NaN()
	ok, inLimit := 0, 0
	start := time.Now()
	for time.Since(start).Seconds() < opt.seconds {
		out.attempted++
		r, d, err := runJob("t1", report.Default())
		if err != nil {
			out.failed++
			out.note("job failed: %v", err)
			continue
		}
		if err := pins.check(pinKey("paper", "t1"), r.Raw); err != nil {
			out.failed++
			out.mismatch("%v", err)
			continue
		}
		ok++
		lat = append(lat, d.Seconds())
		if d <= t1Limit {
			inLimit++
		}
		if math.IsNaN(paperErr) {
			t, _ := r.Result.Data.(*report.Table1)
			paperErr = table1PaperErr(t)
		}
	}
	elapsed := time.Since(start).Seconds()
	rss, err := peakRSS("self")
	if err != nil {
		return nil, err
	}
	p50 := median(lat)
	tv, pct := tail(lat)
	out.note("t1-paper: %d jobs in %.1f s, closed loop, one client; job times %v", out.attempted, elapsed, roundAll(lat))
	out.note("job_tail_s is p%.1f of %d samples (fewer than %d, so the slowest job)", pct, len(lat), tailBeyond+1)
	out.note("failed_ratio = %d/%d", out.failed, out.attempted)
	out.set("setup_s", "s", setup)
	out.set("job_p50_s", "s", p50)
	out.set("job_tail_s", "s", tv)
	out.set("jobs_per_s", "1/s", float64(ok)/elapsed)
	out.set("in_limit_ratio", "ratio", float64(inLimit)/float64(out.attempted))
	out.set("peak_rss_bytes", "bytes", rss)
	out.set("table1_paper_err", "ratio", paperErr)
	return out, nil
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// paperRatios are the eight ratios the paper reports in Table I and
// Sec. VI-A, in the order table1Ratios computes them.
var paperRatios = [8]float64{0.36, 4.25, 11.7, 0.80, 8.93, 10.9, 38, 78}

// table1Ratios extracts the reproduction's values of the paper's ratios:
// FFBP speedups of sequential and parallel Epiphany over sequential
// Intel, parallel over sequential Epiphany; the same three for
// autofocus; and the two energy-efficiency ratios.
func table1Ratios(t *report.Table1) [8]float64 {
	return [8]float64{
		t.FFBP[1].Speedup, t.FFBP[2].Speedup, t.FFBP[1].Seconds / t.FFBP[2].Seconds,
		t.Autofocus[1].Speedup, t.Autofocus[2].Speedup, t.Autofocus[2].PixPerSec / t.Autofocus[1].PixPerSec,
		t.FFBPEnergyRatio, t.AutofocusEnergyRatio,
	}
}

// table1PaperErr is the largest relative error of the eight ratios
// against the paper.
func table1PaperErr(t *report.Table1) float64 {
	if t == nil {
		return math.NaN()
	}
	worst := 0.0
	for i, m := range table1Ratios(t) {
		worst = math.Max(worst, math.Abs(m/paperRatios[i]-1))
	}
	return worst
}

// table1PaperErrRaw decodes a Table I envelope and scores it.
func table1PaperErrRaw(raw []byte) float64 {
	var env struct {
		Data report.Table1 `json:"data"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return math.NaN()
	}
	return table1PaperErr(&env.Data)
}

// t1Trace is one traced replay of report.RunTable1: the host time of each
// public call it makes, and the exact simulated counts of the machines.
type t1Trace struct {
	layers map[string]float64
	total  float64
	counts map[string]float64
	image  *mat.C // sequential Epiphany FFBP image
}

// t1Layers are the named layer spans of the traced replay, in call order.
var t1Layers = []string{
	"sar.simulate_s",
	"kernels.ffbp_seq_intel_s", "kernels.ffbp_seq_epiphany_s", "kernels.ffbp_par_epiphany_s",
	"kernels.af_seq_intel_s", "kernels.af_seq_epiphany_s", "kernels.af_par_epiphany_s",
}

// tracedTable1 makes the public calls report.RunTable1 makes, in the
// same order and on fresh machine models, with a span around each. Time
// in the sequence outside these spans is report's own
// (report.unattributed_s).
func tracedTable1() (*t1Trace, error) {
	cfg := report.Default()
	tr := &t1Trace{layers: map[string]float64{}, counts: map[string]float64{}}
	span := func(name string, f func() error) error {
		st := time.Now()
		err := f()
		tr.layers[name] += time.Since(st).Seconds()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	start := time.Now()
	var data *mat.C
	_ = span("sar.simulate_s", func() error {
		data = sar.Simulate(cfg.Params, cfg.Targets, nil)
		return nil
	})

	cpu := refcpu.New(cfg.Intel)
	if err := span("kernels.ffbp_seq_intel_s", func() error {
		_, _, err := kernels.SeqFFBP(cpu, cpu.Mem(), data, cfg.Params, cfg.Box)
		return err
	}); err != nil {
		return nil, err
	}
	tr.addCPU(cpu.Metrics().Snapshot())

	chSeq := emu.New(cfg.Epiphany)
	if err := span("kernels.ffbp_seq_epiphany_s", func() error {
		var err error
		tr.image, _, err = kernels.SeqFFBP(chSeq.Cores[0], chSeq.Ext(), data, cfg.Params, cfg.Box)
		return err
	}); err != nil {
		return nil, err
	}
	tr.addEmu(chSeq.Metrics().Snapshot())

	chPar := emu.New(cfg.Epiphany)
	if err := span("kernels.ffbp_par_epiphany_s", func() error {
		_, _, err := kernels.ParFFBP(chPar, cfg.FFBPCores, data, cfg.Params, cfg.Box)
		return err
	}); err != nil {
		return nil, err
	}
	tr.addEmu(chPar.Metrics().Snapshot())

	pairs := report.AutofocusWorkload(cfg)
	shifts := autofocus.RangeSweep(-1.5, 1.5, cfg.Shifts)

	cpu2 := refcpu.New(cfg.Intel)
	if err := span("kernels.af_seq_intel_s", func() error {
		_, err := kernels.SeqAutofocus(cpu2, cpu2.Mem(), pairs, shifts)
		return err
	}); err != nil {
		return nil, err
	}
	tr.addCPU(cpu2.Metrics().Snapshot())

	chSeqA := emu.New(cfg.Epiphany)
	if err := span("kernels.af_seq_epiphany_s", func() error {
		_, err := kernels.SeqAutofocus(chSeqA.Cores[0], chSeqA.Ext(), pairs, shifts)
		return err
	}); err != nil {
		return nil, err
	}
	tr.addEmu(chSeqA.Metrics().Snapshot())

	chParA := emu.New(cfg.Epiphany)
	if err := span("kernels.af_par_epiphany_s", func() error {
		_, err := kernels.ParAutofocus(chParA, pairs, shifts)
		return err
	}); err != nil {
		return nil, err
	}
	tr.addEmu(chParA.Metrics().Snapshot())

	tr.total = time.Since(start).Seconds()
	named := 0.0
	for _, l := range t1Layers {
		named += tr.layers[l]
	}
	tr.layers["report.unattributed_s"] = tr.total - named
	return tr, nil
}

func (tr *t1Trace) addEmu(s obs.Snapshot) {
	c, _ := s.Get("emu.core.cycles")
	tr.counts["emu.cycles"] += c.Sum
	tr.counts["emu.ext_busy_cycles"] += s.Value("emu.phase.ext_busy_cycles")
}

func (tr *t1Trace) addCPU(s obs.Snapshot) {
	tr.counts["refcpu.cycles"] += s.Value("cpu.cycles")
	for _, lvl := range []string{"l1", "l2", "l3", "dram"} {
		tr.counts["refcpu.mem_served."+lvl] += s.Value("cpu.mem.served." + lvl)
	}
}

// sameImage reports whether two images are element-wise identical.
func sameImage(a, b *mat.C) bool {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			if a.Data[r*a.Stride+c] != b.Data[r*b.Stride+c] {
				return false
			}
		}
	}
	return true
}

// traceT1 is the traced t1-paper run. It alternates an untraced job with
// a traced replay until the run length is spent (at least one pair),
// then times the fused host image of the same scene (ffbp.Image, the
// floor a kernel that forms the image once could reach) and the envelope
// encoding of the untraced job's result.
func traceT1(opt options, pins *pinSet, out *outcome) (*outcome, error) {
	layers := map[string][]float64{}
	var untraced, overhead, coverage []float64
	var counts map[string]float64
	var last sweep.JobResult
	start := time.Now()
	for len(untraced) == 0 || time.Since(start).Seconds() < opt.seconds {
		out.attempted++
		r, d, err := runJob("t1", report.Default())
		if err != nil {
			return nil, fmt.Errorf("untraced job: %w", err)
		}
		if err := pins.check(pinKey("paper", "t1"), r.Raw); err != nil {
			out.failed++
			out.mismatch("%v", err)
		}
		last = r
		tr, err := tracedTable1()
		if err != nil {
			return nil, err
		}
		if err := pins.checkCounts(tr.counts); err != nil {
			out.mismatch("%v", err)
		}
		counts = tr.counts
		untraced = append(untraced, d.Seconds())
		overhead = append(overhead, tr.total-d.Seconds())
		named := 0.0
		for _, l := range t1Layers {
			named += tr.layers[l]
		}
		coverage = append(coverage, named/d.Seconds())
		for k, v := range tr.layers {
			layers[k] = append(layers[k], v)
		}
		if len(untraced) == 1 {
			cfg := report.Default()
			data := sar.Simulate(cfg.Params, cfg.Targets, nil)
			st := time.Now()
			img, _, err := ffbp.Image(data, cfg.Params, cfg.Box, ffbp.Config{Interp: interp.Nearest, Workers: 1})
			if err != nil {
				return nil, fmt.Errorf("ffbp.Image: %w", err)
			}
			layers["ffbp.image_s"] = append(layers["ffbp.image_s"], time.Since(st).Seconds())
			if !sameImage(img, tr.image) {
				out.mismatch("ffbp.Image differs from the simulated sequential FFBP image")
			}
		}
	}
	st := time.Now()
	env, err := bench.Marshal(last.Result)
	if err != nil {
		return nil, err
	}
	marshal := time.Since(st).Seconds()

	out.note("t1-paper traced: %d untraced/traced pairs; untraced job times %v", len(untraced), roundAll(untraced))
	emuSec := median(layers["kernels.ffbp_seq_epiphany_s"]) + median(layers["kernels.ffbp_par_epiphany_s"]) +
		median(layers["kernels.af_seq_epiphany_s"]) + median(layers["kernels.af_par_epiphany_s"])
	cpuSec := median(layers["kernels.ffbp_seq_intel_s"]) + median(layers["kernels.af_seq_intel_s"])
	pl := zeroLayers()
	for _, l := range append(append([]string{}, t1Layers...), "report.unattributed_s", "ffbp.image_s") {
		pl[l] = median(layers[l])
	}
	pl["emu.host_ns_per_cycle"] = emuSec / counts["emu.cycles"] * 1e9
	pl["refcpu.host_ns_per_cycle"] = cpuSec / counts["refcpu.cycles"] * 1e9
	for k, v := range counts {
		pl[k] = v
	}
	pl["bench.marshal_s"] = marshal
	pl["bench.envelope_bytes"] = float64(len(env))
	pl["obs.trace_overhead_s"] = median(overhead)
	pl["obs.span_coverage"] = median(coverage)
	setLayers(out, pl)
	return out, nil
}
