// Package ffbp implements fast factorized back-projection (FFBP), the
// paper's memory-intensive case study. The whole aperture initially
// consists of single-pulse subapertures with one wide beam each; merge
// iterations pairwise combine subapertures, doubling the angular resolution
// each time (paper Fig. 3a), until one full-aperture image remains. With
// the paper's configuration — 1024 pulses x 1001 range bins, merge base 2 —
// that is ten iterations ending in a 1024x1001-pixel image.
//
// Each merge maps every parent pixel (r, theta) onto its two child images
// through the cosine-theorem geometry of geom.ChildCoords (paper eqs. 1-4)
// and combines the interpolated child samples (paper eq. 5). The
// interpolation kernel is configurable; the paper's implementation uses
// simplified nearest-neighbour interpolation, which is faster but degrades
// the image relative to GBP (paper Fig. 7).
package ffbp

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"sarmany/internal/autofocus"
	"sarmany/internal/cf"
	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/mat"
	"sarmany/internal/sar"
)

// Config controls image formation.
type Config struct {
	// Interp selects the child-image interpolation kernel. The paper's
	// FFBP uses Nearest; Cubic markedly improves quality at higher cost.
	Interp interp.Kind
	// Workers is the number of goroutines used per merge stage; 0 means
	// GOMAXPROCS. Workers == 1 gives the sequential reference.
	Workers int

	// comps holds per-pair flight-path compensations applied to the plus
	// child's sampling positions; set through MergeCompensated.
	comps []autofocus.Shift
}

// Stage holds the state of the factorization after some number of merges:
// one polar image (and its grid) per remaining subaperture. Each image is
// compact (Stride == Cols) and shaped like its grid (NTheta x NR), as
// InitialStage and Merge produce them; Merge rejects any other.
type Stage struct {
	Apertures []geom.Aperture
	Grids     []geom.PolarGrid
	Images    []*mat.C
}

// NumSubapertures returns the number of subapertures in the stage.
func (s *Stage) NumSubapertures() int { return len(s.Images) }

// InitialStage builds stage 0 of the factorization from pulse-compressed
// data: one single-beam image per pulse, with the two-way carrier phase
// removed (multiplication by exp(+i*4*pi*r/lambda)) so that subsequent
// merges combine coherently.
//
// Precision contract: the phase argument k*r is evaluated in float64 and
// rounded to float32 once, at the cf.Expi call. At paper-scale ranges
// (k*r up to ~4e3 rad) that single rounding costs at most half a float32
// ULP of the argument, ~2.5e-4 rad — two orders of magnitude below the
// merge interpolation error — and the downstream float32 pixels carry no
// further phase arithmetic. TestInitialStagePhaseContract pins this
// against the closed form; the simulator kernels (kernels.stage0Pixel)
// replicate the same evaluation bit for bit.
func InitialStage(data *mat.C, p sar.Params, box geom.SceneBox) (*Stage, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if data.Rows != p.NumPulses || data.Cols != p.NumBins {
		return nil, fmt.Errorf("ffbp: data is %dx%d, params say %dx%d",
			data.Rows, data.Cols, p.NumPulses, p.NumBins)
	}
	aps := geom.Stage0(p.NumPulses, -p.ApertureLength()/2, p.PulseSpacing)
	s := &Stage{
		Apertures: aps,
		Grids:     make([]geom.PolarGrid, len(aps)),
		Images:    make([]*mat.C, len(aps)),
	}
	k := 4 * math.Pi / p.Wavelength
	for i, a := range aps {
		s.Grids[i] = box.GridFor(a, 1, p.NumBins, p.R0, p.DR)
		img := mat.NewC(1, p.NumBins)
		src := data.Row(i)
		dst := img.Row(0)
		for c := range dst {
			r := p.R0 + float64(c)*p.DR
			dst[c] = src[c] * cf.Expi(float32(k*r))
		}
		s.Images[i] = img
	}
	return s, nil
}

// Merge performs one merge-base-2 iteration, combining subaperture pairs
// (2j, 2j+1) into parents with doubled angular resolution. It runs the
// fused beam kernel (mergeBeam); MergeRef runs the retained reference.
func Merge(s *Stage, box geom.SceneBox, cfg Config) (*Stage, error) {
	return merge(s, box, cfg, 2, mergeBeam)
}

// beamKernel computes beam bt of parent j of out from the k children of s
// it merges (k*j .. k*j+k-1). comp displaces the plus child's sampling
// positions and taps is the calling worker's scratch of 2*NR tap offsets;
// only the base-2 kernels use them.
type beamKernel func(s, out *Stage, k, j, bt int, kind interp.Kind, comp autofocus.Shift, taps []int32)

// merge is the one merge-iteration driver, for every base k: grid/image
// setup and the flattened (parent, beam) fan-out, parameterized by the
// beam kernel. Each worker hands the kernel its own scratch of 2*NR tap
// offsets.
func merge(s *Stage, box geom.SceneBox, cfg Config, k int, beam beamKernel) (*Stage, error) {
	if k < 2 || len(s.Images)%k != 0 {
		return nil, fmt.Errorf("ffbp: cannot merge %d subapertures with base %d", len(s.Images), k)
	}
	for i, img := range s.Images {
		g := s.Grids[i]
		if img.Rows != g.NTheta || img.Cols != g.NR || img.Stride != img.Cols {
			return nil, fmt.Errorf("ffbp: subaperture %d image is %dx%d (stride %d), grid is %dx%d",
				i, img.Rows, img.Cols, img.Stride, g.NTheta, g.NR)
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parents := geom.MergeStageK(s.Apertures, k)
	ntheta := s.Grids[0].NTheta * k
	nr := s.Grids[0].NR
	out := &Stage{
		Apertures: parents,
		Grids:     make([]geom.PolarGrid, len(parents)),
		Images:    make([]*mat.C, len(parents)),
	}
	for j, a := range parents {
		out.Grids[j] = box.GridFor(a, ntheta, nr, s.Grids[0].R0, s.Grids[0].DR)
		out.Images[j] = mat.NewC(ntheta, nr)
	}

	// Work unit: one (parent, beam) pair; partition the flattened list so
	// every stage parallelizes evenly regardless of how many parents
	// remain.
	total := len(parents) * ntheta
	var wg sync.WaitGroup
	for _, sl := range mat.Partition(total, workers) {
		if sl.Len() == 0 {
			continue
		}
		wg.Add(1)
		go func(sl mat.Slice) {
			defer wg.Done()
			taps := make([]int32, 2*nr)
			for gb := sl.Lo; gb < sl.Hi; gb++ {
				j := gb / ntheta
				bt := gb % ntheta
				var comp autofocus.Shift
				if cfg.comps != nil {
					comp = cfg.comps[j]
				}
				beam(s, out, k, j, bt, cfg.Interp, comp, taps)
			}
		}(sl)
	}
	wg.Wait()
	return out, nil
}

// mergeBeam computes beam bt of parent j: the element combining of paper
// eq. 5 along one output beam. comp displaces the plus child's sampling
// positions (in pixels) — the flight-path compensation of the autofocused
// merge; the zero Shift reproduces the plain merge. taps is the calling
// worker's scratch of 2*NR tap offsets for the nearest-neighbour path.
//
// This is the fused hot path, bit-identical to mergeBeamRef (pinned by
// TestFusedMergeBitIdentical): the per-beam cos/sin of the parent angle is
// hoisted out of geom.ChildCoords — theta is constant along the beam, so
// the two calls per pixel collapse to two multiplies — and the paper's
// nearest-neighbour sampling of both children runs through NearestTaps
// plus a gather, eliminating the two interp.At2 calls per pixel. Every
// retained operation (hypot, atan2, the index divisions, the rounding) is
// exactly the reference's.
func mergeBeam(s, out *Stage, _, j, bt int, kind interp.Kind, comp autofocus.Shift, taps []int32) {
	pg := out.Grids[j]
	img0, img1 := s.Images[2*j], s.Images[2*j+1]
	g0, g1 := s.Grids[2*j], s.Grids[2*j+1]
	l := s.Apertures[2*j].Length // child subaperture length
	theta := pg.Theta(bt)
	row := out.Images[j].Row(bt)

	if kind == interp.Nearest {
		o0, o1 := taps[:pg.NR], taps[pg.NR:2*pg.NR]
		NearestTaps(pg, g0, g1, l, theta, comp, o0, o1)
		for bi := range row {
			var v1, v2 complex64
			if o := o0[bi]; o >= 0 {
				v1 = img0.Data[o]
			}
			if o := o1[bi]; o >= 0 {
				v2 = img1.Data[o]
			}
			row[bi] = v1 + v2
		}
		return
	}
	// Hoisted from geom.ChildCoords: x = r*cos(theta), y = r*sin(theta)
	// with theta fixed along the beam, origin shifted ∓l/2 along track.
	ct, st := math.Cos(theta), math.Sin(theta)
	h := l / 2
	for bi := 0; bi < pg.NR; bi++ {
		r := pg.Range(bi)
		x := r * ct
		y := r * st
		xp, xm := x+h, x-h
		r1 := math.Hypot(xp, y)
		th1 := math.Atan2(y, xp)
		r2 := math.Hypot(xm, y)
		th2 := math.Atan2(y, xm)
		v1 := interp.At2(img0, g0.ThetaIndex(th1), g0.RangeIndex(r1), kind)
		v2 := interp.At2(img1, g1.ThetaIndex(th2)+comp.DBeam, g1.RangeIndex(r2)+comp.DRange, kind)
		row[bi] = v1 + v2
	}
}

// NearestTaps computes the nearest-neighbour child taps of one parent
// beam: the merge geometry of paper eqs. 1-4 for every range bin of the
// beam at angle theta on parent grid pg, rounded onto the minus child's
// grid g0 and the plus child's grid g1 (children of length l). For range
// bin bi it writes o0[bi] and o1[bi], each child's element offset
// ti*NR+ri in its compact row-major image, or -1 when the tap falls
// outside that child's grid. comp displaces the plus child's taps (in
// pixels); the zero Shift gives the plain merge.
//
// It is the one implementation of the merge geometry: Merge gathers from
// these taps, and the simulated kernels (internal/kernels) charge their
// machines for them. The cos/sin of theta are hoisted out of
// geom.ChildCoords, and every other operation is the reference's, so the
// taps are exactly those of geom.ChildCoords, PolarGrid.ThetaIndex and
// RangeIndex, math.Round and a bounds test.
func NearestTaps(pg, g0, g1 geom.PolarGrid, l, theta float64, comp autofocus.Shift, o0, o1 []int32) {
	// Hoisted from geom.ChildCoords: x = r*cos(theta), y = r*sin(theta)
	// with theta fixed along the beam, origin shifted ∓l/2 along track.
	ct, st := math.Cos(theta), math.Sin(theta)
	h := l / 2
	o0, o1 = o0[:pg.NR], o1[:pg.NR]
	for bi := range o0 {
		r := pg.Range(bi)
		x := r * ct
		y := r * st
		xp, xm := x+h, x-h
		r1 := math.Hypot(xp, y)
		th1 := math.Atan2(y, xp)
		r2 := math.Hypot(xm, y)
		th2 := math.Atan2(y, xm)
		o0[bi] = -1
		rr := int(math.Round((th1 - g0.Theta0) / g0.DTheta))
		cc := int(math.Round((r1 - g0.R0) / g0.DR))
		if uint(rr) < uint(g0.NTheta) && uint(cc) < uint(g0.NR) {
			o0[bi] = int32(rr*g0.NR + cc)
		}
		o1[bi] = -1
		rr = int(math.Round((th2-g1.Theta0)/g1.DTheta + comp.DBeam))
		cc = int(math.Round((r2-g1.R0)/g1.DR + comp.DRange))
		if uint(rr) < uint(g1.NTheta) && uint(cc) < uint(g1.NR) {
			o1[bi] = int32(rr*g1.NR + cc)
		}
	}
}

// mergeBeamRef is the retained unfused reference for mergeBeam: per-pixel
// geom.ChildCoords and interp.At2 calls, the literal transcription of
// paper eq. 5. The fused path is pinned bit-identical to it.
func mergeBeamRef(s, out *Stage, _, j, bt int, kind interp.Kind, comp autofocus.Shift, _ []int32) {
	pg := out.Grids[j]
	img0, img1 := s.Images[2*j], s.Images[2*j+1]
	g0, g1 := s.Grids[2*j], s.Grids[2*j+1]
	l := s.Apertures[2*j].Length // child subaperture length
	theta := pg.Theta(bt)
	row := out.Images[j].Row(bt)
	for bi := 0; bi < pg.NR; bi++ {
		r := pg.Range(bi)
		r1, th1, r2, th2 := geom.ChildCoords(r, theta, l)
		v1 := interp.At2(img0, g0.ThetaIndex(th1), g0.RangeIndex(r1), kind)
		v2 := interp.At2(img1, g1.ThetaIndex(th2)+comp.DBeam, g1.RangeIndex(r2)+comp.DRange, kind)
		row[bi] = v1 + v2
	}
}

// MergeRef is Merge running the retained unfused reference beam kernel
// (mergeBeamRef); the equivalence suite pins Merge bit-identical to it.
func MergeRef(s *Stage, box geom.SceneBox, cfg Config) (*Stage, error) {
	return merge(s, box, cfg, 2, mergeBeamRef)
}

// Image runs the complete factorization: InitialStage followed by
// Levels(NumPulses, 2) merges. It returns the final full-aperture image
// (rows = beams, cols = range bins) and its polar grid, which is expressed
// relative to the aperture centre (track position 0) — directly
// comparable to gbp.Image on the same grid.
func Image(data *mat.C, p sar.Params, box geom.SceneBox, cfg Config) (*mat.C, geom.PolarGrid, error) {
	return image(data, p, box, cfg, 2, Merge)
}

// ImageRef is Image running every merge through the retained reference
// beam kernel (MergeRef). Image is pinned bit-identical to it; ImageRef
// is the whole-image oracle of the equivalence suite (the kernels
// benchmark times MergeRef stage by stage).
func ImageRef(data *mat.C, p sar.Params, box geom.SceneBox, cfg Config) (*mat.C, geom.PolarGrid, error) {
	return image(data, p, box, cfg, 2, MergeRef)
}

// image is the one factorization loop: InitialStage, then base-k merges
// through mergeFn until a single subaperture remains.
func image(data *mat.C, p sar.Params, box geom.SceneBox, cfg Config, k int,
	mergeFn func(*Stage, geom.SceneBox, Config) (*Stage, error)) (*mat.C, geom.PolarGrid, error) {
	if _, ok := Levels(p.NumPulses, k); !ok {
		return nil, geom.PolarGrid{}, fmt.Errorf("ffbp: NumPulses %d is not a power of the merge base %d", p.NumPulses, k)
	}
	s, err := InitialStage(data, p, box)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	for len(s.Images) > 1 {
		s, err = mergeFn(s, box, cfg)
		if err != nil {
			return nil, geom.PolarGrid{}, err
		}
	}
	return s.Images[0], s.Grids[0], nil
}

// Levels returns how many base-k merges reduce n subapertures to one, and
// false when n is not a power of k (or n < 1, or k < 2). The paper's
// 1024 pulses take ten merges with base 2.
func Levels(n, k int) (int, bool) {
	if n < 1 || k < 2 {
		return 0, false
	}
	levels := 0
	for ; n%k == 0; n /= k {
		levels++
	}
	return levels, n == 1
}
