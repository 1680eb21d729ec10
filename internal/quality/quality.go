// Package quality provides the image-quality metrics used to compare GBP
// and FFBP outputs (paper Fig. 7 discussion): peak localization, peak-to-
// background ratio, image sharpness, and similarity between two processed
// images. The paper argues qualitatively that the FFBP images are degraded
// by the simplified interpolation relative to GBP and that the Intel and
// Epiphany FFBP images are of similar quality; these metrics make those
// statements testable.
package quality

import (
	"fmt"
	"math"

	"sarmany/internal/cf"
	"sarmany/internal/mat"
)

// Mag returns the magnitude image |z| of a complex image.
func Mag(img *mat.C) *mat.F {
	out := mat.NewF(img.Rows, img.Cols)
	for r := 0; r < img.Rows; r++ {
		src := img.Row(r)
		dst := out.Row(r)
		for i, v := range src {
			dst[i] = cf.Abs(v)
		}
	}
	return out
}

// Peak returns the position and value of the largest element of f.
func Peak(f *mat.F) (r, c int, v float32) {
	v = float32(math.Inf(-1))
	for rr := 0; rr < f.Rows; rr++ {
		row := f.Row(rr)
		for cc, x := range row {
			if x > v {
				r, c, v = rr, cc, x
			}
		}
	}
	return r, c, v
}

// PeakWithin returns the position and value of the largest element of f
// inside the window of half-width rad centred at (r0, c0), clipped to the
// image.
func PeakWithin(f *mat.F, r0, c0, rad int) (r, c int, v float32) {
	v = float32(math.Inf(-1))
	for rr := max(0, r0-rad); rr <= min(f.Rows-1, r0+rad); rr++ {
		for cc := max(0, c0-rad); cc <= min(f.Cols-1, c0+rad); cc++ {
			if x := f.At(rr, cc); x > v {
				r, c, v = rr, cc, x
			}
		}
	}
	return r, c, v
}

// PeakToBackground returns the ratio (in dB) between the peak value inside
// the window of half-width rad around (r0, c0) and the RMS level of the
// image outside all the given exclusion windows. It is a PSLR-style focus
// measure: well-focused targets give large values.
func PeakToBackground(f *mat.F, r0, c0, rad int, exclude [][2]int) float64 {
	_, _, pk := PeakWithin(f, r0, c0, rad)
	var sum float64
	var n int
	for rr := 0; rr < f.Rows; rr++ {
		row := f.Row(rr)
	cols:
		for cc, x := range row {
			for _, e := range exclude {
				if abs(rr-e[0]) <= rad && abs(cc-e[1]) <= rad {
					continue cols
				}
			}
			sum += float64(x) * float64(x)
			n++
		}
	}
	if n == 0 || sum == 0 {
		return math.Inf(1)
	}
	rms := math.Sqrt(sum / float64(n))
	return 20 * math.Log10(float64(pk)/rms)
}

// Sharpness returns the normalized fourth-power sharpness
// N * sum(m^4) / (sum(m^2))^2, a standard autofocus quality measure: a
// single bright pixel in a dark image gives N, a uniform image gives 1.
func Sharpness(f *mat.F) float64 {
	var s2, s4 float64
	for r := 0; r < f.Rows; r++ {
		for _, x := range f.Row(r) {
			m2 := float64(x) * float64(x)
			s2 += m2
			s4 += m2 * m2
		}
	}
	if s2 == 0 {
		return 0
	}
	n := float64(f.Rows * f.Cols)
	return n * s4 / (s2 * s2)
}

// Entropy returns the Shannon entropy of the image's normalized power
// distribution: sum of -p*ln(p) with p = |I|^2 / total power. Lower
// entropy means energy concentrated in fewer pixels — the
// entropy-minimization criterion used by many autofocus methods, and a
// useful cross-check of the paper's correlation criterion (a good
// compensation maximizes the correlation criterion and minimizes
// entropy).
func Entropy(f *mat.F) float64 {
	var total float64
	for r := 0; r < f.Rows; r++ {
		for _, v := range f.Row(r) {
			total += float64(v) * float64(v)
		}
	}
	if total == 0 {
		return 0
	}
	var h float64
	for r := 0; r < f.Rows; r++ {
		for _, v := range f.Row(r) {
			p := float64(v) * float64(v) / total
			if p > 0 {
				h -= p * math.Log(p)
			}
		}
	}
	return h
}

// NormCorr returns the normalized correlation coefficient between two
// magnitude images of identical shape, in [0, 1] for non-negative inputs
// (1 means proportional images). It panics on a shape mismatch.
func NormCorr(a, b *mat.F) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("quality: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var sab, saa, sbb float64
	for r := 0; r < a.Rows; r++ {
		ra, rb := a.Row(r), b.Row(r)
		for i := range ra {
			x, y := float64(ra[i]), float64(rb[i])
			sab += x * y
			saa += x * x
			sbb += y * y
		}
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
