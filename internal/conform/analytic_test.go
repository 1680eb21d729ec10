package conform

import (
	"fmt"
	"math"
	"testing"

	"sarmany/internal/emu"
	"sarmany/internal/machine"
	"sarmany/internal/obs"
)

// analyticCase pairs a small microbenchmark program with a closed-form
// expected cycle count derived from the Params alone. The expectation is
// compared EXACTLY (==): with the dyadic-rational timing constants these
// cases use, every quantity the model accumulates is exactly
// representable, so any deviation — however small — is an accounting
// change, not float noise.
type analyticCase struct {
	name string
	p    emu.Params
	run  func(ch *emu.Chip)
	want func(p emu.Params) float64
}

// bufc allocates or dies — the analytic programs are sized to fit.
func bufc(a machine.Alloc, n int) *machine.BufC {
	b, err := machine.NewBufC(a, n)
	if err != nil {
		panic(err)
	}
	return b
}

// wordsOf mirrors the model's 64-bit transfer count for n bytes.
func wordsOf(n int) float64 { return float64((n + 7) / 8) }

func analyticCases() []analyticCase {
	var cases []analyticCase

	// Local load/store loop dual-issued against FMA work: the committed
	// window costs the maximum of the two pipes.
	const localK, localFMA = 100, 150
	localLoop := func(ch *emu.Chip) {
		c := ch.Cores[0]
		buf := bufc(c.Bank(2), 64)
		for i := 0; i < localK; i++ {
			buf.Store(c, i%64, complex(float32(i), 0))
			buf.Load(c, i%64)
		}
		c.FMA(localFMA)
	}
	localWant := func(p emu.Params) float64 {
		return math.Max(localFMA, 2*localK*p.LocalAccessCycles)
	}
	cases = append(cases,
		analyticCase{name: "local-loop", p: emu.E16G3(), run: localLoop, want: localWant},
		analyticCase{name: "local-loop-8x8", p: emu.E64(), run: localLoop, want: localWant},
		analyticCase{name: "local-loop-16x16", p: emu.E256(), run: localLoop, want: localWant})
	lac2 := emu.E16G3()
	lac2.LocalAccessCycles = 2
	cases = append(cases,
		analyticCase{name: "local-loop-lac2", p: lac2, run: localLoop, want: localWant})

	// Stalling remote reads, parameterized by the exact mesh distance on
	// any topology: round-trip base, two hop terms per mesh hop, two eLink
	// terms per chip boundary the XY route crosses, and the NoC streaming
	// time of the payload.
	remoteRead := func(name string, p emu.Params, row, col int) analyticCase {
		tp := p.Topology()
		hops, bridges := tp.Dist(0, tp.IDOf(emu.Coord{Row: row, Col: col}))
		const k, nb = 10, 16
		return analyticCase{
			name: name, p: p,
			run: func(ch *emu.Chip) {
				c := ch.Cores[0]
				buf := bufc(ch.Cores[row*ch.P.GridCols()+col].Bank(0), nb/8)
				for i := 0; i < k; i++ {
					c.Load(buf.ElemAddr(0), nb)
				}
			},
			want: func(p emu.Params) float64 {
				return k * (p.RemoteReadBase +
					2*float64(hops)*p.RemoteHopCycles +
					2*float64(bridges)*p.ELinkHopCycles +
					wordsOf(nb)*8/p.NoCBytesPerCycle)
			},
		}
	}
	// The 4x4 mesh at every hop count it offers from core (0,0)...
	for hops := 1; hops <= 6; hops++ {
		row := hops
		if row > 3 {
			row = 3
		}
		cases = append(cases,
			remoteRead(fmt.Sprintf("remote-read-%dhop", hops), emu.E16G3(), row, hops-row))
	}
	// ...and the scaled, rectangular and eLink-bridged topologies at their
	// characteristic distances. On the 1x2 chip array of 4x4 chips the grid
	// is 4x8 and any route past column 3 crosses the bridge.
	twoChip := emu.E16G3().WithChips(1, 2)
	cases = append(cases,
		remoteRead("remote-read-8x8-mid", emu.E64(), 3, 4),
		remoteRead("remote-read-8x8-corner", emu.E64(), 7, 7),
		remoteRead("remote-read-16x16-corner", emu.E256(), 15, 15),
		remoteRead("remote-read-2x8-corner", emu.E16G3().WithMesh(2, 8), 1, 7),
		remoteRead("remote-read-cross-chip", twoChip, 0, 4),
		remoteRead("remote-read-cross-chip-far", twoChip, 3, 7),
	)

	// Stalling off-chip reads: full eLink+SDRAM round trip per access.
	const extK, extNB = 5, 64
	cases = append(cases, analyticCase{
		name: "ext-read-chain", p: emu.E16G3(),
		run: func(ch *emu.Chip) {
			c := ch.Cores[0]
			buf := bufc(ch.Ext(), extNB/8)
			for i := 0; i < extK; i++ {
				c.Load(buf.ElemAddr(0), extNB)
			}
		},
		want: func(p emu.Params) float64 {
			return extK * (p.ExtReadLatency + extNB/p.ExtBytesPerCycle)
		},
	})

	// Posted external writes under and over the shared-channel ceiling:
	// the barrier completes at the slower of the core's own finish time
	// and the channel drain of the phase's offered traffic.
	extWrite := func(stores, fma int) (func(ch *emu.Chip), func(p emu.Params) float64) {
		run := func(ch *emu.Chip) {
			buf := bufc(ch.Ext(), stores)
			ch.Run(1, func(c *emu.Core) {
				for i := 0; i < stores; i++ {
					buf.Store(c, i, 1)
				}
				c.FMA(fma)
				c.Barrier()
			})
		}
		want := func(p emu.Params) float64 {
			issue := float64(stores) * wordsOf(8) * 8 / p.NoCBytesPerCycle
			finish := math.Max(float64(fma), issue)
			drain := float64(stores) * 8 / p.ExtBytesPerCycle
			return math.Max(finish, drain)
		}
		return run, want
	}
	underRun, underWant := extWrite(10, 1000) // drain 80 ≪ compute 1000
	overRun, overWant := extWrite(200, 10)    // drain 1600 ≫ issue 200
	cases = append(cases,
		analyticCase{name: "ext-write-under-ceiling", p: emu.E16G3(), run: underRun, want: underWant},
		analyticCase{name: "ext-write-over-ceiling", p: emu.E16G3(), run: overRun, want: overWant})

	// A chain of external-read DMA descriptors: one engine, so transfers
	// serialize back-to-back after the per-descriptor setup cycles.
	const dmaM, dmaElems = 4, 128
	cases = append(cases, analyticCase{
		name: "dma-ext-read-chain", p: emu.E16G3(),
		run: func(ch *emu.Chip) {
			c := ch.Cores[0]
			ext := bufc(ch.Ext(), dmaM*dmaElems)
			local := bufc(c.Bank(2), dmaElems)
			var ds []emu.DMA
			for i := 0; i < dmaM; i++ {
				ds = append(ds, c.DMACopyC(local, 0, ext, i*dmaElems, dmaElems))
			}
			for _, d := range ds {
				c.DMAWait(d)
			}
		},
		want: func(p emu.Params) float64 {
			dur := p.ExtReadLatency + 8*dmaElems/p.ExtBytesPerCycle
			return p.DMASetupCycles + dmaM*dur
		},
	})

	// A posted external-write DMA burst: the engine streams the bytes at
	// channel bandwidth with no read round-trip latency (the write half of
	// the asymmetry the paper highlights).
	cases = append(cases, analyticCase{
		name: "dma-ext-write-posted", p: emu.E16G3(),
		run: func(ch *emu.Chip) {
			c := ch.Cores[0]
			ext := bufc(ch.Ext(), dmaElems)
			local := bufc(c.Bank(2), dmaElems)
			c.DMAWait(c.DMACopyC(ext, 0, local, 0, dmaElems))
		},
		want: func(p emu.Params) float64 {
			return p.DMASetupCycles + 8*dmaElems/p.ExtBytesPerCycle
		},
	})

	// Inter-core DMA to the far corner: the XY route's hop term prices
	// distance, so (0,0)->(3,3) is not neighbour-priced.
	const icElems = 64
	cases = append(cases, analyticCase{
		name: "dma-intercore-6hop", p: emu.E16G3(),
		run: func(ch *emu.Chip) {
			c := ch.Cores[0]
			far := bufc(ch.Cores[15].Bank(0), icElems)
			local := bufc(c.Bank(2), icElems)
			c.DMAWait(c.DMACopyC(far, 0, local, 0, icElems))
		},
		want: func(p emu.Params) float64 {
			return p.DMASetupCycles + p.RemoteReadBase +
				2*6*p.RemoteHopCycles + 8*icElems/p.DMABytesPerCycle
		},
	})

	// DMA fully overlapped by compute: the wait costs nothing beyond the
	// longer of the transfer and the work issued meanwhile.
	const ovFMA = 5000
	cases = append(cases, analyticCase{
		name: "dma-overlap-compute", p: emu.E16G3(),
		run: func(ch *emu.Chip) {
			c := ch.Cores[0]
			ext := bufc(ch.Ext(), dmaElems)
			local := bufc(c.Bank(2), dmaElems)
			d := c.DMACopyC(local, 0, ext, 0, dmaElems)
			c.FMA(ovFMA)
			c.DMAWait(d)
		},
		want: func(p emu.Params) float64 {
			dur := p.ExtReadLatency + 8*dmaElems/p.ExtBytesPerCycle
			return p.DMASetupCycles + math.Max(ovFMA, dur)
		},
	})

	// Link ping-pong between mesh neighbours: each round costs two
	// transfers plus both sides' issue, flag-poll and local-read cycles —
	// the steady state is exactly periodic.
	const ppRounds, ppW = 20, 16
	cases = append(cases, analyticCase{
		name: "link-pingpong", p: emu.E16G3(),
		run: func(ch *emu.Chip) {
			ab := ch.Connect(0, 1, 1)
			ba := ch.Connect(1, 0, 1)
			ch.Run(2, func(c *emu.Core) {
				block := make([]complex64, ppW)
				switch c.ID {
				case 0:
					for i := 0; i < ppRounds; i++ {
						ab.Send(c, block)
						ba.Recv(c)
					}
				case 1:
					for i := 0; i < ppRounds; i++ {
						ba.Send(c, ab.Recv(c))
					}
				}
			})
		},
		want: func(p emu.Params) float64 {
			w := wordsOf(ppW * 8)
			transit := p.RemoteHopCycles + w*8/p.NoCBytesPerCycle
			round := 2*transit + 2*w*p.LocalAccessCycles + 2*(w+1)
			return ppRounds * round
		},
	})

	// Barrier skew: every phase ends when its slowest core arrives; two
	// phases with opposite skew keep every core's clock in lockstep.
	const skewN, skewA = 4, 250
	cases = append(cases, analyticCase{
		name: "barrier-skew", p: emu.E16G3(),
		run: func(ch *emu.Chip) {
			ch.Run(skewN, func(c *emu.Core) {
				c.FMA(skewA * (c.ID + 1))
				c.Barrier()
				c.FMA(skewA * (skewN - c.ID))
				c.Barrier()
			})
		},
		want: func(p emu.Params) float64 { return 2 * skewN * skewA },
	})

	// Posted remote-write stream to a neighbour: issue cycles only.
	const rwK = 50
	cases = append(cases, analyticCase{
		name: "remote-write-stream", p: emu.E16G3(),
		run: func(ch *emu.Chip) {
			c := ch.Cores[0]
			buf := bufc(ch.Cores[1].Bank(0), 64)
			for i := 0; i < rwK; i++ {
				buf.Store(c, i%64, 1)
			}
		},
		want: func(p emu.Params) float64 {
			return rwK * wordsOf(8) * 8 / p.NoCBytesPerCycle
		},
	})

	// Link ping-pong across the eLink bridge: the same periodic steady
	// state as the neighbour case, with each crossing additionally paying
	// the bridge term. Cores 0 and 4 sit in mirrored positions of the two
	// chips: 4 hops, 1 bridge.
	cases = append(cases, analyticCase{
		name: "link-pingpong-cross-chip", p: twoChip,
		run: func(ch *emu.Chip) {
			ab := ch.Connect(0, 4, 1)
			ba := ch.Connect(4, 0, 1)
			ch.Run(5, func(c *emu.Core) {
				block := make([]complex64, ppW)
				switch c.ID {
				case 0:
					for i := 0; i < ppRounds; i++ {
						ab.Send(c, block)
						ba.Recv(c)
					}
				case 4:
					for i := 0; i < ppRounds; i++ {
						ba.Send(c, ab.Recv(c))
					}
				}
			})
		},
		want: func(p emu.Params) float64 {
			w := wordsOf(ppW * 8)
			transit := 4*p.RemoteHopCycles + p.ELinkHopCycles + w*8/p.NoCBytesPerCycle
			round := 2*transit + 2*w*p.LocalAccessCycles + 2*(w+1)
			return ppRounds * round
		},
	})

	// Inter-core DMA across the bridge: the descriptor pays the eLink
	// round trip on top of the hop term. (0,0)->(0,7): 7 hops, 1 bridge.
	cases = append(cases, analyticCase{
		name: "dma-intercore-cross-chip", p: twoChip,
		run: func(ch *emu.Chip) {
			c := ch.Cores[0]
			far := bufc(ch.Cores[7].Bank(0), icElems)
			local := bufc(c.Bank(2), icElems)
			c.DMAWait(c.DMACopyC(far, 0, local, 0, icElems))
		},
		want: func(p emu.Params) float64 {
			return p.DMASetupCycles + p.RemoteReadBase + 2*7*p.RemoteHopCycles +
				2*p.ELinkHopCycles + 8*icElems/p.DMABytesPerCycle
		},
	})

	// Per-chip SDRAM channels: one writer per chip posts the same burst,
	// and chip 1's channel is configured at half rate (a dyadic override,
	// so the expectation stays exact). The barrier completes when the
	// slower channel drains — not when a single shared channel would have
	// drained the combined traffic.
	slowChip1 := twoChip
	slowChip1.ExtBytesPerCycleByChip = []float64{0, 0.5}
	const pcStores = 100
	cases = append(cases, analyticCase{
		name: "ext-write-per-chip-channels", p: slowChip1,
		run: func(ch *emu.Chip) {
			buf := bufc(ch.Ext(), 2*pcStores)
			ch.Run(8, func(c *emu.Core) {
				if c.ID == 0 || c.ID == 4 { // one writer on each chip
					off := 0
					if c.ID == 4 {
						off = pcStores
					}
					for i := 0; i < pcStores; i++ {
						buf.Store(c, off+i, 1)
					}
				}
				c.Barrier()
			})
		},
		want: func(p emu.Params) float64 {
			issue := pcStores * wordsOf(8) * 8 / p.NoCBytesPerCycle
			drain0 := pcStores * 8 / p.ExtBytesPerCycle
			drain1 := pcStores * 8 / p.ExtBytesPerCycleByChip[1]
			return math.Max(issue, math.Max(drain0, drain1))
		},
	})

	// A stalling ext read from a chip-1 core pays that chip's own channel
	// bandwidth, not the default.
	cases = append(cases, analyticCase{
		name: "ext-read-slow-chip", p: slowChip1,
		run: func(ch *emu.Chip) {
			c := ch.Cores[4]
			buf := bufc(ch.Ext(), extNB/8)
			for i := 0; i < extK; i++ {
				c.Load(buf.ElemAddr(0), extNB)
			}
		},
		want: func(p emu.Params) float64 {
			return extK * (p.ExtReadLatency + extNB/p.ExtBytesPerCycleByChip[1])
		},
	})

	// On a 2x2 chip array, chips are numbered row-major: the core at
	// global (4, 0) sits on chip 2 (second chip row, first column), so a
	// stalling ext read there pays chip 2's channel, the only slow one.
	quad := emu.E16G3().WithChips(2, 2)
	quad.ExtBytesPerCycleByChip = []float64{0, 0, 0.5, 0}
	cases = append(cases, analyticCase{
		name: "ext-read-slow-chip-2x2", p: quad,
		run: func(ch *emu.Chip) {
			c := ch.Cores[ch.Topology().IDOf(emu.Coord{Row: 4, Col: 0})]
			buf := bufc(ch.Ext(), extNB/8)
			for i := 0; i < extK; i++ {
				c.Load(buf.ElemAddr(0), extNB)
			}
		},
		want: func(p emu.Params) float64 {
			return extK * (p.ExtReadLatency + extNB/p.ExtBytesPerCycleByChip[2])
		},
	})

	// Inter-core DMA diagonally across a 2x2 chip array: (0,0)->(4,4) is
	// 8 hops and crosses both a chip-row and a chip-column boundary, so
	// the descriptor pays two eLink round trips.
	cases = append(cases, analyticCase{
		name: "dma-intercore-2x2-diagonal", p: quad,
		run: func(ch *emu.Chip) {
			c := ch.Cores[0]
			far := bufc(ch.Cores[ch.Topology().IDOf(emu.Coord{Row: 4, Col: 4})].Bank(0), icElems)
			local := bufc(c.Bank(2), icElems)
			c.DMAWait(c.DMACopyC(far, 0, local, 0, icElems))
		},
		want: func(p emu.Params) float64 {
			return p.DMASetupCycles + p.RemoteReadBase + 2*8*p.RemoteHopCycles +
				2*2*p.ELinkHopCycles + 8*icElems/p.DMABytesPerCycle
		},
	})

	// Barrier skew on the chip array: no off-chip traffic, so the phase
	// algebra is identical to the single-chip case at twice the width.
	cases = append(cases, analyticCase{
		name: "barrier-skew-2chip", p: twoChip,
		run: func(ch *emu.Chip) {
			ch.Run(2*skewN, func(c *emu.Core) {
				c.FMA(skewA * (c.ID + 1))
				c.Barrier()
				c.FMA(skewA * (2*skewN - c.ID))
				c.Barrier()
			})
		},
		want: func(p emu.Params) float64 { return 2 * 2 * skewN * skewA },
	})

	return cases
}

// TestAnalyticDifferential runs every microbenchmark, compares the
// modeled cycle count exactly against the closed form, and requires a
// clean conformance report (including the profile invariants — every
// case runs traced).
func TestAnalyticDifferential(t *testing.T) {
	cases := analyticCases()
	if len(cases) < 25 {
		t.Fatalf("only %d analytic cases; the harness promises at least 25", len(cases))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch := emu.New(tc.p)
			ch.SetTracer(obs.NewTracer(tc.p.Clock))
			tc.run(ch)
			if got, want := ch.MaxCycles(), tc.want(tc.p); got != want {
				t.Errorf("modeled %v cycles, closed form says %v (diff %v)",
					got, want, got-want)
			}
			if rep := CheckAll(ch); !rep.OK() {
				t.Errorf("invariants: %v", rep.Err())
			}
		})
	}
}
