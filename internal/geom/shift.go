package geom

import "math"

// ShiftCoords re-expresses the polar position (r, theta) — given relative
// to a subaperture centred at track position 0 — in the frame of a
// subaperture centred at track position offset. It is the single-child
// generalization of ChildCoords: ChildCoords(r, theta, l) equals
// (ShiftCoords(r, theta, -l/2), ShiftCoords(r, theta, +l/2)).
//
// Factorizations with merge bases above two (Ulander et al.'s general
// formulation) need this form: a base-k merge combines k children whose
// centres sit at offsets (i - (k-1)/2) * lChild for i = 0..k-1. Its only
// production caller is ffbp.MergeK for k != 2; base-2 merges use the
// hoisted geometry of ffbp.NearestTaps.
func ShiftCoords(r, theta, offset float64) (rc, thetac float64) {
	x := r * math.Cos(theta)
	y := r * math.Sin(theta)
	return math.Hypot(x-offset, y), math.Atan2(y, x-offset)
}

// MergeStageK returns the next-stage apertures of a base-k factorization,
// grouping k consecutive apertures per parent. len(cur) must be a
// multiple of k.
func MergeStageK(cur []Aperture, k int) []Aperture {
	if k < 2 || len(cur)%k != 0 {
		panic("geom: MergeStageK needs a group size >= 2 dividing the aperture count")
	}
	out := make([]Aperture, len(cur)/k)
	for j := range out {
		var center, length float64
		for i := 0; i < k; i++ {
			center += cur[k*j+i].Center
			length += cur[k*j+i].Length
		}
		out[j] = Aperture{Center: center / float64(k), Length: length}
	}
	return out
}

// ChildOffsets returns the centre offsets of the k children of a parent
// whose children each have length lChild: (i - (k-1)/2) * lChild.
func ChildOffsets(k int, lChild float64) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = (float64(i) - float64(k-1)/2) * lChild
	}
	return out
}
