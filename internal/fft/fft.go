// Package fft implements an iterative radix-2 fast Fourier transform over
// complex64 data, plus the fast-convolution helpers the SAR front end uses
// for pulse compression (matched filtering of the received chirp).
//
// The transforms are deliberately plain: single precision, power-of-two
// lengths, no SIMD — they model the arithmetic a signal-processing chain
// would run ahead of the back-projection stage that the paper evaluates.
package fft

import (
	"fmt"
	"math"
	"math/bits"

	"sarmany/internal/cf"
)

// Plan holds the twiddle factors and bit-reversal permutation for a fixed
// power-of-two transform length, so repeated transforms of the same size
// avoid recomputing trigonometry.
type Plan struct {
	n       int
	logn    uint
	rev     []int
	twiddle []complex64 // forward twiddles, n/2 entries
}

// NewPlan creates a plan for transforms of length n. n must be a power of
// two and at least 1.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: length %d is not a positive power of two", n)
	}
	p := &Plan{
		n:       n,
		logn:    uint(bits.TrailingZeros(uint(n))),
		rev:     make([]int, n),
		twiddle: make([]complex64, n/2),
	}
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - int(p.logn)))
	}
	for i := range p.twiddle {
		phi := -2 * math.Pi * float64(i) / float64(n)
		s, c := math.Sincos(phi)
		p.twiddle[i] = complex(float32(c), float32(s))
	}
	return p, nil
}

// MustPlan is NewPlan that panics on error; for lengths known at compile
// time.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Forward computes the in-place forward DFT of x. len(x) must equal the
// plan length.
func (p *Plan) Forward(x []complex64) {
	p.transform(x, false)
}

// Inverse computes the in-place inverse DFT of x, including the 1/n
// normalization. len(x) must equal the plan length.
func (p *Plan) Inverse(x []complex64) {
	p.transform(x, true)
	scale := float32(1) / float32(p.n)
	for i := range x {
		x[i] = cf.Scale(scale, x[i])
	}
}

func (p *Plan) transform(x []complex64, inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: data length %d does not match plan length %d", len(x), p.n))
	}
	// Bit-reversal permutation.
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Cooley–Tukey butterflies.
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		for start := 0; start < p.n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[ti]
				if inverse {
					w = cf.Conj(w)
				}
				u := x[k]
				v := x[k+half] * w
				x[k] = u + v
				x[k+half] = u - v
				ti += step
			}
		}
	}
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << (bits.Len(uint(n - 1)))
}

// Convolve returns the full linear convolution of a and b (length
// len(a)+len(b)-1) computed by FFT. Either input being empty yields nil.
func Convolve(a, b []complex64) []complex64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	n := NextPow2(outLen)
	p := MustPlan(n)
	fa := make([]complex64, n)
	fb := make([]complex64, n)
	copy(fa, a)
	copy(fb, b)
	p.Forward(fa)
	p.Forward(fb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	p.Inverse(fa)
	return fa[:outLen]
}

// Correlate returns the cross-correlation of x with the reference ref:
// out[k] = sum_j x[j+k] * conj(ref[j]) for k in [0, len(x)-len(ref)].
// This is the matched-filter operation of pulse compression. It returns
// nil if ref is longer than x or either is empty.
func Correlate(x, ref []complex64) []complex64 {
	if len(ref) == 0 || len(x) < len(ref) {
		return nil
	}
	rc := make([]complex64, len(ref))
	for i, v := range ref {
		rc[len(ref)-1-i] = cf.Conj(v)
	}
	full := Convolve(x, rc)
	// Valid part: lags 0 .. len(x)-len(ref).
	return full[len(ref)-1 : len(x)]
}
