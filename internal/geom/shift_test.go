package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestShiftCoordsMatchesChildCoords(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		r := 100 + 5000*rng.Float64()
		theta := 0.1 + (math.Pi-0.2)*rng.Float64()
		l := 0.5 + 100*rng.Float64()
		r1, t1, r2, t2 := ChildCoords(r, theta, l)
		r1s, t1s := ShiftCoords(r, theta, -l/2)
		r2s, t2s := ShiftCoords(r, theta, l/2)
		if r1 != r1s || t1 != t1s || r2 != r2s || t2 != t2s {
			t.Fatalf("ShiftCoords disagrees with ChildCoords at r=%v theta=%v l=%v", r, theta, l)
		}
	}
}

func TestShiftCoordsZeroOffsetIdentity(t *testing.T) {
	r, th := ShiftCoords(1234, 1.3, 0)
	if math.Abs(r-1234) > 1e-9 || math.Abs(th-1.3) > 1e-12 {
		t.Errorf("identity shift: (%v, %v)", r, th)
	}
}

func TestShiftCoordsRoundTrip(t *testing.T) {
	// Shifting into a frame and back recovers the original coordinates:
	// going to a frame at +o and then to a frame at -o relative to that
	// frame is the identity.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		r := 200 + 3000*rng.Float64()
		th := 0.3 + 2.4*rng.Float64()
		o := 200 * (rng.Float64() - 0.5)
		r2, th2 := ShiftCoords(r, th, o)
		r3, th3 := ShiftCoords(r2, th2, -o)
		if math.Abs(r3-r) > 1e-6*r || math.Abs(th3-th) > 1e-9 {
			t.Fatalf("round trip failed: (%v,%v) -> (%v,%v)", r, th, r3, th3)
		}
	}
}

func TestMergeStageK(t *testing.T) {
	aps := Stage0(16, 0, 1)
	parents := MergeStageK(aps, 4)
	if len(parents) != 4 {
		t.Fatalf("%d parents", len(parents))
	}
	for j, p := range parents {
		if math.Abs(p.Length-4) > 1e-12 {
			t.Errorf("parent %d length %v", j, p.Length)
		}
		// Centre is the mean of the group's centres.
		var want float64
		for i := 0; i < 4; i++ {
			want += aps[4*j+i].Center
		}
		want /= 4
		if math.Abs(p.Center-want) > 1e-12 {
			t.Errorf("parent %d centre %v want %v", j, p.Center, want)
		}
	}
}

func TestMergeStageKInvalid(t *testing.T) {
	for _, c := range []struct {
		n, k int
	}{{6, 4}, {4, 1}, {4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d k=%d accepted", c.n, c.k)
				}
			}()
			MergeStageK(make([]Aperture, c.n), c.k)
		}()
	}
}

func TestMergeStageOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MergeStageK(make([]Aperture, 3), 2)
}

func TestChildOffsets(t *testing.T) {
	o := ChildOffsets(2, 10)
	if o[0] != -5 || o[1] != 5 {
		t.Errorf("base-2 offsets %v", o)
	}
	o = ChildOffsets(4, 8)
	want := []float64{-12, -4, 4, 12}
	for i := range want {
		if o[i] != want[i] {
			t.Errorf("base-4 offsets %v", o)
			break
		}
	}
	// Offsets are symmetric and k*lChild spans the parent.
	o = ChildOffsets(3, 6)
	if o[1] != 0 || o[0] != -o[2] {
		t.Errorf("base-3 offsets %v", o)
	}
}
