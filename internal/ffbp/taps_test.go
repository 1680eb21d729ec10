package ffbp_test

import (
	"math"
	"testing"

	"sarmany/internal/autofocus"
	"sarmany/internal/ffbp"
	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/report"
	"sarmany/internal/sar"
)

// refTap is the tap contract spelled out: geom.ChildCoords' coordinates,
// the grid's fractional index plus the compensation, math.Round and a
// bounds test; -1 when out of range, else the element offset ti*NR+ri.
func refTap(g geom.PolarGrid, r, th, dRange, dBeam float64) int32 {
	ti := int(math.Round(g.ThetaIndex(th) + dBeam))
	ri := int(math.Round(g.RangeIndex(r) + dRange))
	if ti < 0 || ti >= g.NTheta || ri < 0 || ri >= g.NR {
		return -1
	}
	return int32(ti*g.NR + ri)
}

// TestNearestTapsMatchReference checks every tap of every beam of every
// merge against refTap: at report.Small() (plain and with a flight-path
// compensation on the plus child) and for a 2-pulse aperture. Image
// equality cannot see a tap that lands on a zero-valued pixel, yet the
// simulated kernels charge a load for it, so the test also requires that
// both out-of-range taps and in-range taps on zero pixels occur.
func TestNearestTapsMatchReference(t *testing.T) {
	small := report.Small()
	two := small.Params
	two.NumPulses = 2
	cases := []struct {
		name string
		p    sar.Params
		box  geom.SceneBox
		tg   []sar.Target
		comp autofocus.Shift
	}{
		{"small", small.Params, small.Box, small.Targets, autofocus.Shift{}},
		{"small-compensated", small.Params, small.Box, small.Targets, autofocus.Shift{DRange: 0.4, DBeam: -0.3}},
		{"2-pulse", two, report.DefaultBox(two), small.Targets, autofocus.Shift{}},
	}
	var taps, outside, zeroHits int
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := sar.Simulate(tc.p, tc.tg, nil)
			s, err := ffbp.InitialStage(data, tc.p, tc.box)
			if err != nil {
				t.Fatal(err)
			}
			nr := tc.p.NumBins
			o0, o1 := make([]int32, nr), make([]int32, nr)
			for len(s.Images) > 1 {
				out, err := ffbp.Merge(s, tc.box, ffbp.Config{Interp: interp.Nearest})
				if err != nil {
					t.Fatal(err)
				}
				for j, pg := range out.Grids {
					g0, g1 := s.Grids[2*j], s.Grids[2*j+1]
					l := s.Apertures[2*j].Length
					for bt := 0; bt < pg.NTheta; bt++ {
						theta := pg.Theta(bt)
						ffbp.NearestTaps(pg, g0, g1, l, theta, tc.comp, o0, o1)
						for bi := 0; bi < nr; bi++ {
							r1, th1, r2, th2 := geom.ChildCoords(pg.Range(bi), theta, l)
							want0 := refTap(g0, r1, th1, 0, 0)
							want1 := refTap(g1, r2, th2, tc.comp.DRange, tc.comp.DBeam)
							if o0[bi] != want0 || o1[bi] != want1 {
								t.Fatalf("stage %d parent %d beam %d bin %d: taps (%d, %d), reference (%d, %d)",
									len(out.Images), j, bt, bi, o0[bi], o1[bi], want0, want1)
							}
							for child, o := range [2]int32{o0[bi], o1[bi]} {
								taps++
								switch {
								case o < 0:
									outside++
								case s.Images[2*j+child].Data[o] == 0:
									zeroHits++
								}
							}
						}
					}
				}
				s = out
			}
		})
	}
	if outside == 0 || zeroHits == 0 {
		t.Errorf("%d taps: %d out of range, %d in range on zero pixels; want both > 0",
			taps, outside, zeroHits)
	}
	t.Logf("%d taps: %d out of range, %d in range on zero pixels", taps, outside, zeroHits)
}
