// Package geom implements the subaperture merge geometry of fast factorized
// back-projection: the cosine-theorem equations (paper eqs. 1-4) that map a
// pixel of a merged (parent) subaperture image onto the contributing pixels
// of its two child subaperture images, and the polar grids those images are
// sampled on.
//
// Conventions. A subaperture is a segment of the (nominally linear) flight
// track. Its polar image a(r, theta) is sampled relative to the subaperture
// centre, with theta measured from the flight-track direction, so theta =
// pi/2 is broadside and theta in (0, pi). A parent subaperture of length 2l
// is formed from two children of length l whose centres sit at -l/2 (the
// "minus", earlier-in-track child) and +l/2 (the "plus" child) relative to
// the parent centre.
package geom

import "math"

// ChildCoords maps a parent-image pixel at polar position (r, theta) to the
// corresponding positions (r1, theta1) in the minus child image and
// (r2, theta2) in the plus child image, where l is the child subaperture
// length (so the child centres are at -l/2 and +l/2 along the track).
//
// These are paper eqs. 1-4, evaluated in the numerically direct Cartesian
// form: with the target at (r cos theta, r sin theta), the child-relative
// coordinates follow from shifting the origin by -/+ l/2 along the track.
// The Cartesian form is algebraically identical to the cosine-theorem form
// but avoids the acos cancellation for points near the track axis.
func ChildCoords(r, theta, l float64) (r1, theta1, r2, theta2 float64) {
	x := r * math.Cos(theta)
	y := r * math.Sin(theta)
	h := l / 2
	r1 = math.Hypot(x+h, y)
	r2 = math.Hypot(x-h, y)
	theta1 = math.Atan2(y, x+h)
	theta2 = math.Atan2(y, x-h)
	return r1, theta1, r2, theta2
}

// ChildCoordsCosine is the literal cosine-theorem formulation of paper
// eqs. 1-4. It is retained to validate ChildCoords against the published
// equations; production code uses ChildCoords.
func ChildCoordsCosine(r, theta, l float64) (r1, theta1, r2, theta2 float64) {
	h := l / 2
	r1 = math.Sqrt(r*r + h*h - 2*r*h*math.Cos(math.Pi-theta))
	r2 = math.Sqrt(r*r + h*h - 2*r*h*math.Cos(theta))
	theta1 = math.Acos(clamp1((r1*r1 + h*h - r*r) / (r1 * l)))
	theta2 = math.Pi - math.Acos(clamp1((r2*r2+h*h-r*r)/(r2*l)))
	return r1, theta1, r2, theta2
}

func clamp1(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}

// PolarGrid describes the sampling of a subaperture image: NR range bins
// spanning [R0, R0 + (NR-1)*DR] and NTheta angle bins spanning
// [Theta0, Theta0 + (NTheta-1)*DTheta]. A stage-0 subaperture (a single
// pulse) has NTheta == 1: one wide beam covering the whole angular interval.
type PolarGrid struct {
	NR     int
	R0, DR float64

	NTheta         int
	Theta0, DTheta float64
}

// NewPolarGrid builds a grid with nr range bins from r0 spaced dr, and
// ntheta angle bins spanning the closed interval [thetaMin, thetaMax]
// placed at bin centres: bin k covers thetaMin + k*W .. thetaMin + (k+1)*W
// with W = (thetaMax-thetaMin)/ntheta, sampled at the centre.
func NewPolarGrid(nr int, r0, dr float64, ntheta int, thetaMin, thetaMax float64) PolarGrid {
	w := (thetaMax - thetaMin) / float64(ntheta)
	return PolarGrid{
		NR: nr, R0: r0, DR: dr,
		NTheta: ntheta,
		Theta0: thetaMin + w/2,
		DTheta: w,
	}
}

// Range returns the range of bin i.
func (g PolarGrid) Range(i int) float64 { return g.R0 + float64(i)*g.DR }

// Theta returns the angle of bin k.
func (g PolarGrid) Theta(k int) float64 { return g.Theta0 + float64(k)*g.DTheta }

// RangeIndex returns the fractional bin index of range r.
func (g PolarGrid) RangeIndex(r float64) float64 { return (r - g.R0) / g.DR }

// ThetaIndex returns the fractional bin index of angle theta.
func (g PolarGrid) ThetaIndex(theta float64) float64 { return (theta - g.Theta0) / g.DTheta }

// Aperture describes one subaperture of the factorization: its centre
// position along the track (metres, in scene coordinates) and its length.
type Aperture struct {
	Center float64
	Length float64
}

// Stage0 returns the np length-d apertures of the initial factorization of
// a track that starts at u0: aperture i is the single pulse at
// u0 + (i+0.5)*d.
func Stage0(np int, u0, d float64) []Aperture {
	out := make([]Aperture, np)
	for i := range out {
		out[i] = Aperture{Center: u0 + (float64(i)+0.5)*d, Length: d}
	}
	return out
}
