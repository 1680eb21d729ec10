package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestChildCoordsBroadside(t *testing.T) {
	// A broadside point (theta = pi/2) is symmetric between the children:
	// r1 == r2 and theta1 + theta2 == pi.
	r1, th1, r2, th2 := ChildCoords(1000, math.Pi/2, 10)
	if math.Abs(r1-r2) > 1e-9 {
		t.Errorf("broadside ranges differ: %v %v", r1, r2)
	}
	if math.Abs(th1+th2-math.Pi) > 1e-12 {
		t.Errorf("broadside angles not symmetric: %v %v", th1, th2)
	}
	want := math.Hypot(1000, 5)
	if math.Abs(r1-want) > 1e-9 {
		t.Errorf("r1 = %v, want %v", r1, want)
	}
}

func TestChildCoordsZeroLength(t *testing.T) {
	// With l = 0 the children coincide with the parent.
	r1, th1, r2, th2 := ChildCoords(500, 1.2, 0)
	if math.Abs(r1-500) > 1e-9 || math.Abs(r2-500) > 1e-9 {
		t.Errorf("ranges %v %v, want 500", r1, r2)
	}
	if math.Abs(th1-1.2) > 1e-12 || math.Abs(th2-1.2) > 1e-12 {
		t.Errorf("angles %v %v, want 1.2", th1, th2)
	}
}

func TestChildCoordsMatchesCosineForm(t *testing.T) {
	// The Cartesian and the published cosine-theorem forms must agree over
	// the whole operating region (far field, theta well inside (0, pi)).
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		r := 100 + 10000*rng.Float64()
		theta := 0.1 + (math.Pi-0.2)*rng.Float64()
		l := 0.1 + 100*rng.Float64()
		r1a, t1a, r2a, t2a := ChildCoords(r, theta, l)
		r1b, t1b, r2b, t2b := ChildCoordsCosine(r, theta, l)
		if math.Abs(r1a-r1b) > 1e-6*r || math.Abs(r2a-r2b) > 1e-6*r {
			t.Fatalf("range mismatch at r=%v theta=%v l=%v: (%v,%v) vs (%v,%v)", r, theta, l, r1a, r2a, r1b, r2b)
		}
		if math.Abs(t1a-t1b) > 1e-6 || math.Abs(t2a-t2b) > 1e-6 {
			t.Fatalf("angle mismatch at r=%v theta=%v l=%v: (%v,%v) vs (%v,%v)", r, theta, l, t1a, t2a, t1b, t2b)
		}
	}
}

func TestChildCoordsExactPointRecovery(t *testing.T) {
	// The distance from each child centre to the physical point must match
	// direct geometry: child centres at -/+ l/2 on the track (x axis).
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		r := 50 + 5000*rng.Float64()
		theta := 0.05 + (math.Pi-0.1)*rng.Float64()
		l := 50 * rng.Float64()
		x, y := r*math.Cos(theta), r*math.Sin(theta)
		r1, th1, r2, th2 := ChildCoords(r, theta, l)
		// Reconstruct the point from each child's polar coordinates.
		x1 := -l/2 + r1*math.Cos(th1)
		y1 := r1 * math.Sin(th1)
		x2 := l/2 + r2*math.Cos(th2)
		y2 := r2 * math.Sin(th2)
		if math.Hypot(x1-x, y1-y) > 1e-8*r || math.Hypot(x2-x, y2-y) > 1e-8*r {
			t.Fatalf("point not recovered: (%v,%v) vs (%v,%v) and (%v,%v)", x, y, x1, y1, x2, y2)
		}
	}
}

func TestPolarGridMapping(t *testing.T) {
	g := NewPolarGrid(1001, 1000, 1, 4, 0, math.Pi)
	if g.NR != 1001 || g.NTheta != 4 {
		t.Fatalf("grid dims %d %d", g.NR, g.NTheta)
	}
	if math.Abs(g.Range(0)-1000) > 1e-12 || math.Abs(g.Range(1000)-2000) > 1e-12 {
		t.Errorf("range mapping wrong: %v %v", g.Range(0), g.Range(1000))
	}
	// Bin centres of 4 bins over [0, pi]: pi/8, 3pi/8, 5pi/8, 7pi/8.
	for k := 0; k < 4; k++ {
		want := (2*float64(k) + 1) * math.Pi / 8
		if math.Abs(g.Theta(k)-want) > 1e-12 {
			t.Errorf("Theta(%d) = %v, want %v", k, g.Theta(k), want)
		}
	}
	// Index functions invert the coordinate functions.
	if math.Abs(g.RangeIndex(g.Range(500))-500) > 1e-9 {
		t.Error("RangeIndex does not invert Range")
	}
	if math.Abs(g.ThetaIndex(g.Theta(2))-2) > 1e-9 {
		t.Error("ThetaIndex does not invert Theta")
	}
}

// TestApertureChildren: the children of a merged aperture sit at
// ChildOffsets from its centre, and merging them gives the aperture back.
func TestApertureChildren(t *testing.T) {
	a := Aperture{Center: 100, Length: 8}
	off := ChildOffsets(2, a.Length/2)
	minus := Aperture{Center: a.Center + off[0], Length: a.Length / 2}
	plus := Aperture{Center: a.Center + off[1], Length: a.Length / 2}
	if minus.Center != 98 || plus.Center != 102 {
		t.Errorf("child centres %v %v", minus.Center, plus.Center)
	}
	if p := MergeStageK([]Aperture{minus, plus}, 2)[0]; p != a {
		t.Errorf("children merge to %+v, want %+v", p, a)
	}
}

func TestStage0AndMerge(t *testing.T) {
	aps := Stage0(8, 0, 2) // 8 pulses spaced 2 m starting at track position 0
	if len(aps) != 8 {
		t.Fatalf("stage0 count %d", len(aps))
	}
	if aps[0].Center != 1 || aps[7].Center != 15 {
		t.Errorf("stage0 centres %v %v", aps[0].Center, aps[7].Center)
	}
	stage := aps
	for len(stage) > 1 {
		next := MergeStageK(stage, 2)
		if len(next) != len(stage)/2 {
			t.Fatalf("merge count %d from %d", len(next), len(stage))
		}
		for j, p := range next {
			m, q := stage[2*j], stage[2*j+1]
			if math.Abs(p.Center-(m.Center+q.Center)/2) > 1e-12 {
				t.Fatalf("parent centre %v from %v %v", p.Center, m.Center, q.Center)
			}
			if math.Abs(p.Length-(m.Length+q.Length)) > 1e-12 {
				t.Fatalf("parent length %v", p.Length)
			}
		}
		stage = next
	}
	if stage[0].Length != 16 || stage[0].Center != 8 {
		t.Errorf("full aperture %+v", stage[0])
	}
}
