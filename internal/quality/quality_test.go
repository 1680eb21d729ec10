package quality

import (
	"math"
	"testing"

	"sarmany/internal/mat"
)

func TestMag(t *testing.T) {
	img := mat.NewC(2, 2)
	img.Set(0, 0, complex(3, 4))
	img.Set(1, 1, complex(0, -2))
	m := Mag(img)
	if m.At(0, 0) != 5 || m.At(1, 1) != 2 || m.At(0, 1) != 0 {
		t.Errorf("Mag wrong: %v %v %v", m.At(0, 0), m.At(1, 1), m.At(0, 1))
	}
}

func TestPeak(t *testing.T) {
	f := mat.NewF(4, 4)
	f.Set(2, 3, 7)
	f.Set(1, 1, 5)
	r, c, v := Peak(f)
	if r != 2 || c != 3 || v != 7 {
		t.Errorf("Peak = (%d,%d,%v)", r, c, v)
	}
}

func TestPeakWithin(t *testing.T) {
	f := mat.NewF(10, 10)
	f.Set(1, 1, 100) // global max, outside the window
	f.Set(6, 6, 10)
	r, c, v := PeakWithin(f, 5, 5, 2)
	if r != 6 || c != 6 || v != 10 {
		t.Errorf("PeakWithin = (%d,%d,%v)", r, c, v)
	}
	// Window clipping at the border must not panic.
	r, c, v = PeakWithin(f, 0, 0, 3)
	if r != 1 || c != 1 || v != 100 {
		t.Errorf("clipped PeakWithin = (%d,%d,%v)", r, c, v)
	}
}

func TestPeakToBackground(t *testing.T) {
	f := mat.NewF(20, 20)
	for r := 0; r < 20; r++ {
		for c := 0; c < 20; c++ {
			f.Set(r, c, 0.01)
		}
	}
	f.Set(10, 10, 1)
	db := PeakToBackground(f, 10, 10, 2, [][2]int{{10, 10}})
	want := 20 * math.Log10(1/0.01)
	if math.Abs(db-want) > 0.5 {
		t.Errorf("PeakToBackground = %v, want ~%v", db, want)
	}
	// A brighter background lowers the ratio.
	for r := 0; r < 20; r++ {
		for c := 0; c < 20; c++ {
			if r != 10 || c != 10 {
				f.Set(r, c, 0.1)
			}
		}
	}
	db2 := PeakToBackground(f, 10, 10, 2, [][2]int{{10, 10}})
	if db2 >= db {
		t.Errorf("brighter background should lower ratio: %v vs %v", db2, db)
	}
}

func TestSharpnessExtremes(t *testing.T) {
	// Uniform image: sharpness 1.
	u := mat.NewF(8, 8)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			u.Set(r, c, 0.5)
		}
	}
	if s := Sharpness(u); math.Abs(s-1) > 1e-9 {
		t.Errorf("uniform sharpness = %v", s)
	}
	// Single bright pixel: sharpness N.
	d := mat.NewF(8, 8)
	d.Set(3, 3, 2)
	if s := Sharpness(d); math.Abs(s-64) > 1e-9 {
		t.Errorf("delta sharpness = %v, want 64", s)
	}
	// Empty image: 0.
	if s := Sharpness(mat.NewF(4, 4)); s != 0 {
		t.Errorf("zero-image sharpness = %v", s)
	}
}

func TestEntropyExtremes(t *testing.T) {
	// Single bright pixel: entropy 0 (all power in one cell).
	d := mat.NewF(8, 8)
	d.Set(3, 3, 5)
	if h := Entropy(d); math.Abs(h) > 1e-12 {
		t.Errorf("delta entropy %v", h)
	}
	// Uniform image: entropy ln(N).
	u := mat.NewF(8, 8)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			u.Set(r, c, 1)
		}
	}
	if h := Entropy(u); math.Abs(h-math.Log(64)) > 1e-9 {
		t.Errorf("uniform entropy %v, want %v", h, math.Log(64))
	}
	if h := Entropy(mat.NewF(4, 4)); h != 0 {
		t.Errorf("zero-image entropy %v", h)
	}
	// A more concentrated image has lower entropy.
	half := mat.NewF(8, 8)
	half.Set(0, 0, 1)
	half.Set(0, 1, 1)
	if !(Entropy(half) < Entropy(u)) {
		t.Error("concentration did not lower entropy")
	}
}

func TestNormCorr(t *testing.T) {
	a := mat.NewF(3, 3)
	b := mat.NewF(3, 3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			a.Set(r, c, float32(r*3+c+1))
			b.Set(r, c, 2*float32(r*3+c+1)) // proportional
		}
	}
	if v := NormCorr(a, b); math.Abs(v-1) > 1e-9 {
		t.Errorf("proportional NormCorr = %v", v)
	}
	// Orthogonal supports give low correlation.
	x := mat.NewF(2, 2)
	y := mat.NewF(2, 2)
	x.Set(0, 0, 1)
	y.Set(1, 1, 1)
	if v := NormCorr(x, y); v != 0 {
		t.Errorf("disjoint NormCorr = %v", v)
	}
	if v := NormCorr(mat.NewF(2, 2), mat.NewF(2, 2)); v != 0 {
		t.Errorf("zero NormCorr = %v", v)
	}
}

func TestNormCorrShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NormCorr(mat.NewF(2, 2), mat.NewF(2, 3))
}
