package ffbp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"sarmany/internal/interp"
	"sarmany/internal/mat"
	"sarmany/internal/quality"
	"sarmany/internal/sar"
)

func TestMergeKBase2MatchesMerge(t *testing.T) {
	p, box := testParams()
	p.NumPulses = 64
	data := sar.Simulate(p, []sar.Target{{U: 0, Y: 555, Amp: 1}}, nil)
	s, err := InitialStage(data, p, box)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Merge(s, box, Config{Interp: interp.Nearest, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MergeK(s, box, Config{Interp: interp.Nearest, Workers: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Images {
		if !a.Images[i].Equal(b.Images[i]) {
			t.Fatalf("base-2 MergeK differs from Merge at image %d", i)
		}
	}
}

func TestImageKBase4Focuses(t *testing.T) {
	p, box := testParams() // 256 = 4^4 pulses
	tg := sar.Target{U: 10, Y: 555, Amp: 1}
	data := sar.Simulate(p, []sar.Target{tg}, nil)
	img, g, err := ImageK(data, p, box, Config{Interp: interp.Linear}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if img.Rows != p.NumPulses || img.Cols != p.NumBins {
		t.Fatalf("image %dx%d", img.Rows, img.Cols)
	}
	m := quality.Mag(img)
	pr, pc, pv := quality.Peak(m)
	wr, wc := targetPixel(g, tg)
	if abs(pr-wr) > 6 || abs(pc-wc) > 2 {
		t.Errorf("peak at (%d,%d), want (%d,%d)", pr, pc, wr, wc)
	}
	if float64(pv) < 0.4*float64(p.NumPulses) {
		t.Errorf("peak %v too low", pv)
	}
}

func TestBase4FewerStagesBetterNearestQuality(t *testing.T) {
	// With nearest-neighbour interpolation the resampling noise
	// accumulates per merge level; base 4 does 4 levels where base 2 does
	// 8, so its coherent gain should be at least as high.
	p, box := testParams()
	tg := sar.Target{U: 0, Y: 555, Amp: 1}
	data := sar.Simulate(p, []sar.Target{tg}, nil)
	img2, g2, err := ImageK(data, p, box, Config{Interp: interp.Nearest}, 2)
	if err != nil {
		t.Fatal(err)
	}
	img4, g4, err := ImageK(data, p, box, Config{Interp: interp.Nearest}, 4)
	if err != nil {
		t.Fatal(err)
	}
	wr, wc := targetPixel(g2, tg)
	_, _, p2 := quality.PeakWithin(quality.Mag(img2), wr, wc, 6)
	wr, wc = targetPixel(g4, tg)
	_, _, p4 := quality.PeakWithin(quality.Mag(img4), wr, wc, 6)
	if float64(p4) < 0.9*float64(p2) {
		t.Errorf("base-4 gain %v well below base-2 %v", p4, p2)
	}
}

func TestMergeKParallelMatchesSequential(t *testing.T) {
	p, box := testParams()
	p.NumPulses = 64
	data := sar.Simulate(p, []sar.Target{{U: 5, Y: 540, Amp: 1}}, nil)
	seq, _, err := ImageK(data, p, box, Config{Interp: interp.Nearest, Workers: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := ImageK(data, p, box, Config{Interp: interp.Nearest, Workers: 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(par) {
		t.Errorf("parallel base-4 image differs (max diff %v)", seq.MaxAbsDiff(par))
	}
}

func TestImageKValidation(t *testing.T) {
	p, box := testParams()
	data := sar.Simulate(p, nil, nil)
	if _, _, err := ImageK(data, p, box, Config{}, 1); err == nil {
		t.Error("base 1 accepted")
	}
	// 256 is not a power of 3.
	if _, _, err := ImageK(data, p, box, Config{}, 3); err == nil {
		t.Error("non-power-of-3 pulse count accepted")
	}
	// 27 pulses with base 3 is fine structurally (validation only).
	p3 := p
	p3.NumPulses = 27
	d3 := sar.Simulate(p3, nil, nil)
	if _, _, err := ImageK(d3, p3, box, Config{Interp: interp.Nearest}, 3); err != nil {
		t.Errorf("base-3 on 27 pulses failed: %v", err)
	}
}

// imageHash is FNV-64a over the float32 bits of every pixel (real, then
// imaginary), row by row.
func imageHash(m *mat.C) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for r := 0; r < m.Rows; r++ {
		for _, v := range m.Row(r) {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(real(v)))
			binary.LittleEndian.PutUint32(b[4:], math.Float32bits(imag(v)))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestImageKGolden pins the base-k images bit for bit: the hashes were
// taken before the base-k merge was folded into the shared merge driver.
func TestImageKGolden(t *testing.T) {
	cases := []struct {
		k, pulses int
		kind      interp.Kind
		want      uint64
	}{
		{2, 64, interp.Nearest, 0x484d2f78c0118238},
		{2, 64, interp.Linear, 0x5cd3cb6be105248},
		{3, 81, interp.Nearest, 0xbd4906aa5b877b7},
		{3, 81, interp.Linear, 0x255b25433efefaaa},
		{4, 64, interp.Nearest, 0xaebe0d37b22ab45b},
		{4, 64, interp.Linear, 0xc6af6207d92331ba},
	}
	for _, c := range cases {
		p, box := testParams()
		p.NumPulses = c.pulses
		data := sar.Simulate(p, []sar.Target{{U: 3, Y: 550, Amp: 1}}, nil)
		sar.AddNoise(data, 0.05, 7)
		img, _, err := ImageK(data, p, box, Config{Interp: c.kind}, c.k)
		if err != nil {
			t.Fatalf("base %d %v: %v", c.k, c.kind, err)
		}
		if got := imageHash(img); got != c.want {
			t.Errorf("base %d %v on %d pulses: image hash %#x, want %#x", c.k, c.kind, c.pulses, got, c.want)
		}
	}
}

// TestIsPowerOf checks that Levels accepts exactly the aperture counts that
// are powers of the merge base.
func TestIsPowerOf(t *testing.T) {
	cases := []struct {
		n, k int
		want bool
	}{
		{1024, 2, true}, {1024, 4, true}, {1024, 3, false},
		{27, 3, true}, {1, 2, true}, {0, 2, false}, {-8, 2, false},
		{256, 4, true}, {512, 4, false},
	}
	for _, c := range cases {
		if _, got := Levels(c.n, c.k); got != c.want {
			t.Errorf("Levels(%d, %d) ok = %v", c.n, c.k, got)
		}
	}
}
