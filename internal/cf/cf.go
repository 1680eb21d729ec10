// Package cf provides single-precision complex arithmetic helpers used
// throughout the SAR processing chain.
//
// The Epiphany FPU operates on 32-bit single-precision floats with a fused
// multiply-add, and the paper's implementations keep all pixel data as pairs
// of float32. This package mirrors that: everything is complex64/float32,
// including the polynomial sine/cosine behind the carrier phase factors.
package cf

import "math"

// Abs2 returns |z|^2 computed as re*re + im*im without an intermediate
// square root. This is the quantity the autofocus criterion (paper eq. 6)
// actually needs.
func Abs2(z complex64) float32 {
	re := real(z)
	im := imag(z)
	return re*re + im*im
}

// Abs returns |z| using float32 arithmetic.
func Abs(z complex64) float32 {
	return float32(math.Hypot(float64(real(z)), float64(imag(z))))
}

// Scale returns s*z for a real scale factor.
func Scale(s float32, z complex64) complex64 {
	return complex(s*real(z), s*imag(z))
}

// Conj returns the complex conjugate of z.
func Conj(z complex64) complex64 {
	return complex(real(z), -imag(z))
}

// Expi returns exp(i*phi) = cos(phi) + i*sin(phi) as a complex64.
func Expi(phi float32) complex64 {
	s, c := math.Sincos(float64(phi))
	return complex(float32(c), float32(s))
}

// Sincos/quadrant constants for FastSincos: the Cody–Waite three-part
// split of π/4 (the same split math.Sin uses), chosen so y*PI4A is exact
// for |y| < 2^29 and the reduced argument keeps ~1e-14 absolute accuracy
// over the phase magnitudes the SAR chain produces (|φ| ≲ 1e6 rad).
const (
	pi4A = 7.85398125648498535156e-1 // 0x3fe921fb40000000
	pi4B = 3.77489470793079817668e-8 // 0x3e64442d00000000
	pi4C = 2.69515142907905952645e-15
	m4pi = 1.273239544735162542821171882678754627704620361328125 // 4/π
)

// fastSincosCut is the |φ| above which FastSincos falls back to
// math.Sincos: past it the float64 octant reduction loses the accuracy
// budget that keeps the float32 result within 1 ULP of the reference.
const fastSincosCut = 1 << 26

// FastSincos returns (sin φ, cos φ) as float32, the fused-kernel
// replacement for the per-sample math.Sincos call in the back-projection
// hot path. It runs the same Cody–Waite octant reduction as math.Sin but
// evaluates shorter polynomials — degree 9/10 instead of 13/14 — because
// the result only has to carry float32 precision: the truncation error
// (≤3e-9 relative) is ~20x below half a float32 ULP, so FastSincos
// matches float32(math.Sincos(φ)) to within 1 ULP on each component
// (pinned by TestFastSincosMatchesSincos). Non-finite and huge arguments
// fall back to math.Sincos.
// Per-quadrant sign and swap tables, indexed by quadrant = (octant>>1)&3
// after rounding odd octants up: in quadrants 1 and 3 the reduced-argument
// polynomials swap roles (sin of the reduced argument gives the cosine of
// the full argument and vice versa); the signs follow the circle. Table
// lookups and ±1 multiplies keep the quadrant handling branch-free — the
// quadrant is data-dependent in the back-projection hot loop, so branches
// on it would mispredict roughly half the time.
var (
	quadSinMul = [4]float64{1, 1, -1, -1}
	quadCosMul = [4]float64{1, -1, -1, 1}
)

func FastSincos(phi float32) (sin, cos float32) {
	x := float64(phi)
	if !(x > -fastSincosCut && x < fastSincosCut) {
		// Captures NaN, ±Inf and reduction-hostile magnitudes.
		s, c := math.Sincos(x)
		return float32(s), float32(c)
	}
	sgn := math.Copysign(1, x) // sin is odd, cos even: fold the sign in at the end
	x = math.Abs(x)
	j := int64(x * m4pi) // integer part of x/(π/4), octant index
	j += j & 1           // map zeros of cos to zeros of sin
	y := float64(j)
	quad := (j >> 1) & 3
	z := ((x - y*pi4A) - y*pi4B) - y*pi4C // |z| ≤ π/4 + ε
	zz := z * z
	// sin(z) ≈ z + z³(s3 + z²(s5 + z²(s7 + z²·s9))), cos(z) likewise
	// through z¹⁰: plain Taylor coefficients suffice at float32 target
	// accuracy on |z| ≤ π/4.
	sp := z + z*zz*(-1.6666666666666666e-01+zz*(8.3333333333333333e-03+
		zz*(-1.9841269841269841e-04+zz*2.7557319223985893e-06)))
	cp := 1 + zz*(-5e-01+zz*(4.1666666666666666e-02+zz*(-1.3888888888888889e-03+
		zz*(2.4801587301587302e-05+zz*-2.7557319223985888e-07))))
	pair := [2]float64{sp, cp}
	sw := quad & 1
	sn := pair[sw] * quadSinMul[quad] * sgn
	cs := pair[1-sw] * quadCosMul[quad]
	return float32(sn), float32(cs)
}
