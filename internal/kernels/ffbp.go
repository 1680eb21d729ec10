package kernels

import (
	"fmt"
	"math"

	"sarmany/internal/autofocus"
	"sarmany/internal/emu"
	"sarmany/internal/ffbp"
	"sarmany/internal/geom"
	"sarmany/internal/machine"
	"sarmany/internal/mat"
	"sarmany/internal/sar"
)

// ffbpPlan precomputes the factorization structure shared by the FFBP
// kernels: the aperture list and polar grid of every stage.
type ffbpPlan struct {
	p      sar.Params
	box    geom.SceneBox
	stages [][]geom.Aperture  // stages[s][i]
	grids  [][]geom.PolarGrid // grids[s][i]
	k      float64            // 4*pi/lambda
}

func newFFBPPlan(p sar.Params, box geom.SceneBox, data *mat.C) (*ffbpPlan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if data.Rows != p.NumPulses || data.Cols != p.NumBins {
		return nil, fmt.Errorf("kernels: data is %dx%d, params say %dx%d",
			data.Rows, data.Cols, p.NumPulses, p.NumBins)
	}
	if _, ok := ffbp.Levels(p.NumPulses, 2); !ok {
		return nil, fmt.Errorf("kernels: NumPulses %d is not a power of two", p.NumPulses)
	}
	pl := &ffbpPlan{p: p, box: box, k: 4 * math.Pi / p.Wavelength}
	aps := geom.Stage0(p.NumPulses, -p.ApertureLength()/2, p.PulseSpacing)
	ntheta := 1
	for {
		gs := make([]geom.PolarGrid, len(aps))
		for i, a := range aps {
			gs[i] = box.GridFor(a, ntheta, p.NumBins, p.R0, p.DR)
		}
		pl.stages = append(pl.stages, aps)
		pl.grids = append(pl.grids, gs)
		if len(aps) == 1 {
			break
		}
		aps = geom.MergeStageK(aps, 2)
		ntheta *= 2
	}
	return pl, nil
}

// numMerges returns the number of merge iterations (10 for 1024 pulses).
func (pl *ffbpPlan) numMerges() int { return len(pl.stages) - 1 }

// imageOff returns the element offset of subaperture i's image within a
// stage buffer at stage s (every stage packs NumPulses*NumBins elements).
func (pl *ffbpPlan) imageOff(s, i int) int {
	return i * pl.grids[s][0].NTheta * pl.p.NumBins
}

// stage0Pixel computes (and charges) one carrier-removal output of the
// initial stage: a_0(r_c) = d(r_c) * exp(+i*k*r_c). The arithmetic matches
// ffbp.InitialStage exactly.
func (pl *ffbpPlan) stage0Pixel(m machine.Machine, v complex64, c int) complex64 {
	m.FMA(1) // r = R0 + c*DR
	r := pl.p.R0 + float64(c)*pl.p.DR
	return cmul(m, v, expi(m, float32(pl.k*r)))
}

// beamTaps computes the nearest-neighbour child taps of beam bt of parent j
// in merge s (children at stage s) into o0 and o1, through the same
// ffbp.NearestTaps that ffbp.Merge gathers from.
func (pl *ffbpPlan) beamTaps(s, j, bt int, o0, o1 []int32) {
	pg := pl.grids[s+1][j]
	ffbp.NearestTaps(pg, pl.grids[s][2*j], pl.grids[s][2*j+1], pl.stages[s][2*j].Length,
		pg.Theta(bt), autofocus.Shift{}, o0, o1)
}

// tapPair is one merge beam's child taps, as written by beamTaps.
type tapPair struct{ o0, o1 []int32 }

// tapRing is the number of beams SeqFFBP's tap producer may run ahead of
// the loop that charges them.
const tapRing = 4

// produceTaps computes the taps of every merge beam in SeqFFBP's (stage,
// parent, beam) order: it takes an empty pair from free, fills it and
// passes it on through ready. It returns when every beam is done or once
// done is closed.
func (pl *ffbpPlan) produceTaps(free <-chan *tapPair, ready chan<- *tapPair, done <-chan struct{}) {
	for s := 0; s < pl.numMerges(); s++ {
		for j, pg := range pl.grids[s+1] {
			for bt := 0; bt < pg.NTheta; bt++ {
				var t *tapPair
				select {
				case t = <-free:
				case <-done:
					return
				}
				pl.beamTaps(s, j, bt, t.o0, t.o1)
				ready <- t // never blocks: ready holds the whole ring
			}
		}
	}
}

// mergeTaps charges and computes one element-combining output (paper eq.
// 5) from its child taps o0 and o1 (ffbp.NearestTaps; -1 when out of
// range), the minus child's image held at element base0 of img0 and the
// plus child's at base1 of img1. The charges are the paper's per-pixel
// index generation: the range bin, then the cosine-theorem geometry of
// eqs. 1-4 — two fused multiply-add chains and square roots for the
// ranges (with the paper's fast software square root) and a divide plus
// inverse-cosine each for the angles; chargeBeamSetup charges the hoisted
// per-beam trigonometry.
func mergeTaps(m machine.Machine, img0 *machine.BufC, base0 int, o0 int32,
	img1 *machine.BufC, base1 int, o1 int32) complex64 {
	m.FMA(1) // r = R0 + bi*DR
	m.FMA(10)
	m.Sqrt(2)
	m.Div(2)
	m.Trig(2)
	v1 := loadTap(m, img0, base0, o0)
	v2 := loadTap(m, img1, base1, o1)
	return cadd(m, v1, v2)
}

// loadTap performs the nearest-neighbour lookup of one child sample at tap
// o: index generation from the (range, angle) coordinates, the
// out-of-range test (the paper's "skip the additions with zero when the
// indices are out of range"), and the 64-bit load of an in-range pixel at
// element base+o of img.
func loadTap(m machine.Machine, img *machine.BufC, base int, o int32) complex64 {
	m.FMA(2)  // two fractional index computations
	m.Flop(2) // two rounds
	m.IOp(4)  // bounds tests and address arithmetic
	if o < 0 {
		return 0
	}
	return img.Load(m, base+int(o))
}

// bindData places the radar data at a fresh address range of mem. The
// buffer holds the caller's storage itself when data is compact, and a
// compact copy of a strided view otherwise; the kernels only read it.
func bindData(mem machine.Alloc, data *mat.C) (*machine.BufC, error) {
	n := data.Rows * data.Cols
	addr, err := mem.Alloc(8 * n)
	if err != nil {
		return nil, err
	}
	if data.Stride != data.Cols {
		data = data.Clone()
	}
	return &machine.BufC{Addr: addr, Data: data.Data[:n]}, nil
}

// extract returns a packed stage buffer's single remaining image as a
// mat.C (rows = beams) sharing the buffer's storage.
func (pl *ffbpPlan) extract(buf *machine.BufC) *mat.C {
	nb := pl.p.NumBins
	return &mat.C{Rows: pl.p.NumPulses, Cols: nb, Stride: nb, Data: buf.Data}
}

// SeqFFBP runs the complete fast factorized back-projection sequentially
// on machine m, with the radar data and all subaperture images placed in
// mem — the model's main memory: external SDRAM for a single Epiphany core
// (the paper's sequential Epiphany implementation keeps the image data
// off-chip) or cached DRAM for the Intel reference. It returns the final
// image, bit-identical to ffbp.Image with nearest-neighbour interpolation.
func SeqFFBP(m machine.Machine, mem machine.Alloc, data *mat.C, p sar.Params, box geom.SceneBox) (*mat.C, geom.PolarGrid, error) {
	pl, err := newFFBPPlan(p, box, data)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	total := p.NumPulses * p.NumBins
	dataBuf, err := bindData(mem, data)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	cur, err := machine.NewBufC(mem, total)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	next, err := machine.NewBufC(mem, total)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}

	// The merge taps depend only on the geometry, so a producer computes
	// them ahead of the charging loop, overlapping stage 0 too. It stops
	// with this call, even when m panics mid-merge.
	nb := p.NumBins
	free := make(chan *tapPair, tapRing)
	ready := make(chan *tapPair, tapRing)
	for i := 0; i < tapRing; i++ {
		free <- &tapPair{make([]int32, nb), make([]int32, nb)}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		pl.produceTaps(free, ready, done)
	}()
	defer func() {
		close(done)
		<-exited
	}()

	// Stage 0: carrier removal.
	for i := 0; i < p.NumPulses; i++ {
		for c := 0; c < nb; c++ {
			m.IOp(2)
			v := dataBuf.Load(m, i*nb+c)
			cur.Store(m, i*nb+c, pl.stage0Pixel(m, v, c))
		}
	}

	// Merge iterations.
	for s := 0; s < pl.numMerges(); s++ {
		for j, pg := range pl.grids[s+1] {
			base0, base1 := pl.imageOff(s, 2*j), pl.imageOff(s, 2*j+1)
			for bt := 0; bt < pg.NTheta; bt++ {
				chargeBeamSetup(m)
				t := <-ready
				outBase := pl.imageOff(s+1, j) + bt*nb
				for bi := 0; bi < nb; bi++ {
					next.Store(m, outBase+bi, mergeTaps(m, cur, base0, t.o0[bi], cur, base1, t.o1[bi]))
				}
				free <- t
			}
		}
		cur, next = next, cur
	}
	return pl.extract(cur), pl.grids[len(pl.grids)-1][0], nil
}

// ParFFBP runs the paper's parallel SPMD FFBP implementation on nCores
// cores of the simulated Epiphany chip (0 = all): the resulting image is
// partitioned into independent slices computed in parallel (paper Fig. 6).
// During the first merge iteration each core prefetches the two
// contributing pulses of each of its subaperture pairs into the two upper
// local-memory banks by DMA (paper: 16,016 bytes for two 1001-bin pulses);
// in later iterations the contributing data no longer fits locally and is
// read directly from external memory, while results are always written
// back to SDRAM with posted writes. Barriers separate merge iterations.
//
// Under a fault plan with halted cores the kernel degrades gracefully:
// work is assigned per logical slot (the fault-free partition is
// unchanged), and a halted core's slots move to its nearest live XY
// neighbor via Chip.Assignments — the run completes with quantified
// slowdown and a bit-identical image.
//
// The returned image is bit-identical to SeqFFBP on the same input.
func ParFFBP(ch *emu.Chip, nCores int, data *mat.C, p sar.Params, box geom.SceneBox) (*mat.C, geom.PolarGrid, error) {
	pl, err := newFFBPPlan(p, box, data)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	if nCores == 0 {
		nCores = len(ch.Cores)
	}
	assign, err := ch.Assignments(nCores)
	if err != nil {
		return nil, geom.PolarGrid{}, fmt.Errorf("kernels: ffbp cannot degrade: %w", err)
	}
	slotsByCore := make(map[int][]int, nCores)
	for slot, core := range assign {
		slotsByCore[core] = append(slotsByCore[core], slot)
	}
	if p.NumBins*8 > ch.P.BankBytes {
		return nil, geom.PolarGrid{}, fmt.Errorf("kernels: a %d-bin pulse does not fit one %d-byte local bank",
			p.NumBins, ch.P.BankBytes)
	}
	total := p.NumPulses * p.NumBins
	dataBuf, err := bindData(ch.Ext(), data)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	cur, err := machine.NewBufC(ch.Ext(), total)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	next, err := machine.NewBufC(ch.Ext(), total)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}

	nb := p.NumBins
	var kernelErr error
	ch.Run(nCores, func(c *emu.Core) {
		// The logical work slots this core executes: its own, plus any it
		// took over from a halted neighbor. Every phase loops over the
		// slots between the same barriers, so the barrier structure — and,
		// with the identity assignment, the whole run — is unchanged.
		slots := slotsByCore[c.ID]

		// Per-core local buffers: the two upper data banks (banks 2 and 3).
		bankA, errA := machine.NewBufC(c.Bank(2), nb)
		bankB, errB := machine.NewBufC(c.Bank(3), nb)
		if errA != nil || errB != nil {
			kernelErr = fmt.Errorf("kernels: local bank allocation failed")
			return
		}
		// Host scratch for one beam's child taps, computed inline.
		o0, o1 := make([]int32, nb), make([]int32, nb)

		// Stage 0: each slot carrier-removes its slice of pulses, double-
		// buffering the DMA prefetch across the two banks.
		for _, slot := range slots {
			rows := mat.Partition(p.NumPulses, nCores)[slot]
			banks := [2]*machine.BufC{bankA, bankB}
			var dmas [2]emu.DMA
			for i := rows.Lo; i < rows.Hi; i++ {
				b := (i - rows.Lo) % 2
				if i == rows.Lo {
					dmas[b] = c.DMACopyC(banks[b], 0, dataBuf, i*nb, nb)
				}
				c.DMAWait(dmas[b])
				if i+1 < rows.Hi {
					nb2 := (i + 1 - rows.Lo) % 2
					dmas[nb2] = c.DMACopyC(banks[nb2], 0, dataBuf, (i+1)*nb, nb)
				}
				for col := 0; col < nb; col++ {
					c.IOp(2)
					v := banks[b].Load(c, col)
					cur.Store(c, i*nb+col, pl.stage0Pixel(c, v, col))
				}
			}
		}
		c.Barrier()
		if pl.numMerges() == 0 {
			return
		}

		// Merge iteration 1: children are single-pulse images that fit the
		// two upper banks, so prefetch both by DMA and compute locally.
		for _, slot := range slots {
			s := 0
			parents := mat.Partition(len(pl.stages[1]), nCores)[slot]
			for j := parents.Lo; j < parents.Hi; j++ {
				d0 := c.DMACopyC(bankA, 0, cur, pl.imageOff(0, 2*j), nb)
				d1 := c.DMACopyC(bankB, 0, cur, pl.imageOff(0, 2*j+1), nb)
				c.DMAWait(d0)
				c.DMAWait(d1)
				for bt := 0; bt < 2; bt++ {
					chargeBeamSetup(c)
					pl.beamTaps(s, j, bt, o0, o1)
					outBase := pl.imageOff(1, j) + bt*nb
					for bi := 0; bi < nb; bi++ {
						next.Store(c, outBase+bi, mergeTaps(c, bankA, 0, o0[bi], bankB, 0, o1[bi]))
					}
				}
			}
		}
		c.Barrier()
		curL, nextL := next, cur

		// Later merge iterations: contributing data is read directly from
		// external memory (the paper's "in the later iterations it still
		// requires contributing data to be read from the external memory").
		for s := 1; s < pl.numMerges(); s++ {
			ntheta := pl.grids[s+1][0].NTheta
			for _, slot := range slots {
				units := mat.Partition(len(pl.stages[s+1])*ntheta, nCores)[slot]
				for u := units.Lo; u < units.Hi; u++ {
					j := u / ntheta
					bt := u % ntheta
					chargeBeamSetup(c)
					pl.beamTaps(s, j, bt, o0, o1)
					base0, base1 := pl.imageOff(s, 2*j), pl.imageOff(s, 2*j+1)
					outBase := pl.imageOff(s+1, j) + bt*nb
					for bi := 0; bi < nb; bi++ {
						nextL.Store(c, outBase+bi, mergeTaps(c, curL, base0, o0[bi], curL, base1, o1[bi]))
					}
				}
			}
			c.Barrier()
			curL, nextL = nextL, curL
		}
	})
	if kernelErr != nil {
		return nil, geom.PolarGrid{}, kernelErr
	}

	// Stage 0 wrote cur, merge 1 wrote next, and every later merge
	// alternates: after an odd number of merges the image is in next.
	final := cur
	if pl.numMerges()%2 == 1 {
		final = next
	}
	return pl.extract(final), pl.grids[len(pl.grids)-1][0], nil
}
