package ffbp

import (
	"sarmany/internal/autofocus"
	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/mat"
	"sarmany/internal/sar"
)

// Generalized factorization base. The paper's implementation uses merge
// base 2; Ulander et al.'s FFBP formulation allows any base k, combining k
// subapertures per merge and multiplying the angular resolution by k. The
// base trades work against quality: per output pixel the whole
// factorization performs k * log_k(N) interpolations (minimized near
// k = 3), while fewer merge levels mean fewer successive interpolations
// degrading the image — the knob behind the paper's observation that the
// simplified interpolation's noise accumulates "in the successive
// iterations".

// MergeK performs one base-k merge, combining subaperture groups
// (k*j .. k*j+k-1) into parents with k-fold angular resolution. Base 2 is
// exactly Merge; other bases run mergeBeamK.
func MergeK(s *Stage, box geom.SceneBox, cfg Config, k int) (*Stage, error) {
	if k == 2 {
		return Merge(s, box, cfg)
	}
	return merge(s, box, cfg, k, mergeBeamK)
}

// mergeBeamK computes beam bt of parent j of a base-k merge: every parent
// pixel is re-expressed in each child's frame (geom.ShiftCoords), sampled
// there with the interpolation kernel, and the k samples are summed.
func mergeBeamK(s, out *Stage, k, j, bt int, kind interp.Kind, _ autofocus.Shift, _ []int32) {
	pg := out.Grids[j]
	theta := pg.Theta(bt)
	row := out.Images[j].Row(bt)
	// Child centre offsets relative to the parent centre.
	offsets := geom.ChildOffsets(k, s.Apertures[k*j].Length)
	for bi := range row {
		r := pg.Range(bi)
		var acc complex64
		for i, off := range offsets {
			rc, thc := geom.ShiftCoords(r, theta, off)
			g := s.Grids[k*j+i]
			acc += interp.At2(s.Images[k*j+i], g.ThetaIndex(thc), g.RangeIndex(rc), kind)
		}
		row[bi] = acc
	}
}

// ImageK runs the complete base-k factorization. NumPulses must be a
// power of k. ImageK(_, _, _, cfg, 2) is Image.
func ImageK(data *mat.C, p sar.Params, box geom.SceneBox, cfg Config, k int) (*mat.C, geom.PolarGrid, error) {
	return image(data, p, box, cfg, k, func(s *Stage, box geom.SceneBox, cfg Config) (*Stage, error) {
		return MergeK(s, box, cfg, k)
	})
}
