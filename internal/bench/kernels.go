package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"sarmany/internal/cf"
	"sarmany/internal/ffbp"
	"sarmany/internal/gbp"
	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/report"
	"sarmany/internal/sar"
)

// kernelGBPBeams is the beam count of the GBP throughput measurement: a
// subset of the paper-scale grid tall enough to time reliably while
// keeping the reference pass under a second. Per-pixel work is identical
// at every beam count, so pixels/sec on the subset is pixels/sec on the
// full image.
const kernelGBPBeams = 16

// kernelEquivULP is the fused-vs-reference equivalence bound, expressed
// in float32 ULPs of the image peak — the same bound the gbp equivalence
// suite pins (gbp/fused_test.go).
const kernelEquivULP = 16

// KernelMergePoint is the measured throughput of one FFBP merge stage,
// reference beam kernel vs fused.
type KernelMergePoint struct {
	// Stage numbers the merge iterations from 1; Parents is the number
	// of merged subaperture images it produces and Pixels their total
	// pixel count.
	Stage   int `json:"stage"`
	Parents int `json:"parents"`
	Pixels  int `json:"pixels"`
	// RefSeconds/FusedSeconds are wall-clock; the derived pixels/sec and
	// speedup are the headline throughput leaves. All five vary with the
	// host and are advisory in the benchdiff gate.
	RefSeconds        float64 `json:"ref_seconds"`
	FusedSeconds      float64 `json:"fused_seconds"`
	RefPixelsPerSec   float64 `json:"ref_pixels_per_sec"`
	FusedPixelsPerSec float64 `json:"fused_pixels_per_sec"`
	Speedup           float64 `json:"speedup"`
	// BitIdentical asserts the fused stage output equals the reference
	// bit for bit — the ffbp fusion contract. Deterministic: it gates.
	BitIdentical bool `json:"bit_identical"`
}

// KernelsResult is the JSON form of the fused-kernel throughput
// comparison: the GBP hot path on a paper-scale beam subset, then every
// FFBP merge stage of the full factorization.
type KernelsResult struct {
	GBPBeams             int     `json:"gbp_beams"`
	GBPPixels            int     `json:"gbp_pixels"`
	GBPRefSeconds        float64 `json:"gbp_ref_seconds"`
	GBPFusedSeconds      float64 `json:"gbp_fused_seconds"`
	GBPRefPixelsPerSec   float64 `json:"gbp_ref_pixels_per_sec"`
	GBPFusedPixelsPerSec float64 `json:"gbp_fused_pixels_per_sec"`
	GBPSpeedup           float64 `json:"gbp_speedup"`
	// GBPEquivOK asserts the fused image matches the reference within
	// kernelEquivULP float32 ULPs of the image peak, the bound pinned by
	// the gbp equivalence suite. Deterministic: it gates.
	GBPEquivOK bool               `json:"gbp_equiv_ok"`
	Merges     []KernelMergePoint `json:"merges"`
}

// RunKernels measures the fused back-projection hot paths against their
// retained references on the host. GBP runs the Linear reference-image
// kernel over a kernelGBPBeams-beam subset of the scene grid at the
// configured pulse/bin scale and cross-checks the fused image against
// gbp.ImageRef under the pinned ULP bound. FFBP runs the complete
// factorization stage by stage, timing ffbp.MergeRef against ffbp.Merge
// on identical inputs and requiring bit-identity, then continuing the
// factorization with the fused result. Both measurements use one worker
// so the recorded pixels/sec is per-core arithmetic throughput, not host
// parallelism.
func RunKernels(ctx context.Context, cfg report.Config) (KernelsResult, error) {
	var res KernelsResult
	if _, ok := ffbp.Levels(cfg.Params.NumPulses, 2); !ok {
		return res, fmt.Errorf("bench: NumPulses %d is not a power of two (FFBP merge base 2)", cfg.Params.NumPulses)
	}
	data := sar.Simulate(cfg.Params, cfg.Targets, nil)
	sar.AddNoise(data, 0.05, 11) // dense scene: no zero-skip shortcut

	// GBP: reference vs fused on a paper-scale beam subset.
	if err := ctx.Err(); err != nil {
		return res, err
	}
	full := geom.Aperture{Center: 0, Length: cfg.Params.ApertureLength()}
	beams := kernelGBPBeams
	if beams > cfg.Params.NumPulses {
		beams = cfg.Params.NumPulses
	}
	grid := cfg.Box.GridFor(full, beams, cfg.Params.NumBins, cfg.Params.R0, cfg.Params.DR)
	gcfg := gbp.Config{Interp: interp.Linear, Workers: 1}

	start := time.Now()
	ref := gbp.ImageRef(data, cfg.Params, grid, gcfg)
	refSec := time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return res, err
	}
	start = time.Now()
	fused := gbp.Image(data, cfg.Params, grid, gcfg)
	fusedSec := time.Since(start).Seconds()

	pixels := grid.NTheta * grid.NR
	var peak float64
	for bt := 0; bt < ref.Rows; bt++ {
		for _, v := range ref.Row(bt) {
			if a := float64(cf.Abs(v)); a > peak {
				peak = a
			}
		}
	}
	res.GBPBeams = grid.NTheta
	res.GBPPixels = pixels
	res.GBPRefSeconds = refSec
	res.GBPFusedSeconds = fusedSec
	res.GBPRefPixelsPerSec = float64(pixels) / refSec
	res.GBPFusedPixelsPerSec = float64(pixels) / fusedSec
	res.GBPSpeedup = refSec / fusedSec
	res.GBPEquivOK = peak > 0 && ref.MaxAbsDiff(fused) <= kernelEquivULP*peak*0x1p-23

	// FFBP: every merge stage of the full factorization, reference vs
	// fused on identical inputs; the factorization continues with the
	// fused output (bit-identical, so the choice cannot steer the run).
	s, err := ffbp.InitialStage(data, cfg.Params, cfg.Box)
	if err != nil {
		return res, err
	}
	fcfg := ffbp.Config{Interp: interp.Nearest, Workers: 1}
	for stage := 1; len(s.Images) > 1; stage++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		start := time.Now()
		mref, err := ffbp.MergeRef(s, cfg.Box, fcfg)
		if err != nil {
			return res, err
		}
		refSec := time.Since(start).Seconds()
		start = time.Now()
		mfused, err := ffbp.Merge(s, cfg.Box, fcfg)
		if err != nil {
			return res, err
		}
		fusedSec := time.Since(start).Seconds()

		px := 0
		bit := len(mfused.Images) == len(mref.Images)
		for j := range mfused.Images {
			px += mfused.Images[j].Rows * mfused.Images[j].Cols
			bit = bit && mfused.Images[j].Equal(mref.Images[j])
		}
		res.Merges = append(res.Merges, KernelMergePoint{
			Stage:             stage,
			Parents:           len(mfused.Images),
			Pixels:            px,
			RefSeconds:        refSec,
			FusedSeconds:      fusedSec,
			RefPixelsPerSec:   float64(px) / refSec,
			FusedPixelsPerSec: float64(px) / fusedSec,
			Speedup:           refSec / fusedSec,
			BitIdentical:      bit,
		})
		s = mfused
	}
	return res, nil
}

func printKernels(w io.Writer, res KernelsResult) {
	fmt.Fprintf(w, "GBP (%d beams x %d bins, Linear, 1 worker): ref %.2f Mpx/s, fused %.2f Mpx/s (%.2fx, equiv %v)\n",
		res.GBPBeams, res.GBPPixels/max(res.GBPBeams, 1), res.GBPRefPixelsPerSec/1e6,
		res.GBPFusedPixelsPerSec/1e6, res.GBPSpeedup, res.GBPEquivOK)
	fmt.Fprintf(w, "%6s %8s %10s %12s %12s %8s %5s\n",
		"stage", "parents", "pixels", "ref Mpx/s", "fused Mpx/s", "speedup", "bit")
	for _, m := range res.Merges {
		fmt.Fprintf(w, "%6d %8d %10d %12.2f %12.2f %7.2fx %5v\n",
			m.Stage, m.Parents, m.Pixels, m.RefPixelsPerSec/1e6,
			m.FusedPixelsPerSec/1e6, m.Speedup, m.BitIdentical)
	}
}
