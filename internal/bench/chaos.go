package bench

import (
	"context"
	"fmt"
	"io"

	"sarmany/internal/conform"
	"sarmany/internal/emu"
	"sarmany/internal/energy"
	"sarmany/internal/fault"
	"sarmany/internal/kernels"
	"sarmany/internal/report"
	"sarmany/internal/sar"
)

// ChaosPoint is one fault-severity measurement of the chaos sweep.
type ChaosPoint struct {
	// Severity is the sweep knob in [0, 1]: it scales the link and DMA
	// fault rates, the per-core derate, and the SDRAM bandwidth cut; at
	// severity 1 one core is additionally hard-halted.
	Severity    float64 `json:"severity"`
	HaltedCores int     `json:"halted_cores"`
	Seconds     float64 `json:"seconds"`
	// Slowdown and EnergyRatio are relative to the severity-0 run of the
	// same sweep.
	Slowdown       float64 `json:"slowdown"`
	EnergyJ        float64 `json:"energy_j"`
	EnergyRatio    float64 `json:"energy_ratio"`
	LinkRetries    uint64  `json:"link_retries"`
	DMARetries     uint64  `json:"dma_retries"`
	RemappedSlots  int     `json:"remapped_slots"`
	OverheadCycles float64 `json:"overhead_cycles"`
	// ConformOK records that the degraded run still passed every
	// conformance invariant — the point of graceful degradation.
	ConformOK bool `json:"conform_ok"`
}

// ChaosPlan builds the deterministic fault plan for one severity of the
// sweep: link and DMA faults on every target at severity-scaled rates, a
// derated core, a throttled SDRAM channel, and — at full severity — one
// hard-halted core whose tile work must remap. Severity 0 is the empty
// plan.
func ChaosPlan(severity float64, cores int) fault.Plan {
	if severity <= 0 {
		return fault.Plan{}
	}
	p := fault.Plan{
		Seed:     1234,
		Derates:  []fault.Derate{{Core: 1, Factor: 1 + 0.5*severity}},
		ExtScale: 1 - 0.4*severity,
		Links:    []fault.LinkFault{{From: -1, To: -1, Rate: 0.3 * severity, TimeoutCycles: 200, BackoffCycles: 25, MaxRetries: 4}},
		DMAs:     []fault.DMAFault{{Core: -1, Rate: 0.3 * severity, TimeoutCycles: 100, MaxRetries: 3}},
	}
	if severity >= 1 {
		p.Halts = []int{cores - 1}
	}
	return p
}

// RunChaos measures parallel FFBP under increasingly severe fault plans —
// the degradation curve: how much time and energy graceful completion
// costs as links flake, DMA engines time out, a core derates, the SDRAM
// channel throttles, and finally a core dies. Every point must still pass
// the conformance checker.
func RunChaos(ctx context.Context, cfg report.Config, severities []float64) ([]ChaosPoint, error) {
	data := sar.Simulate(cfg.Params, cfg.Targets, nil)
	out := make([]ChaosPoint, 0, len(severities))
	var baseSec, baseJ float64
	for _, s := range severities {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ch := emu.New(cfg.Epiphany)
		plan := ChaosPlan(s, cfg.FFBPCores)
		inj, err := plan.Compile()
		if err != nil {
			return nil, fmt.Errorf("chaos severity %g: %w", s, err)
		}
		ch.SetFaults(inj)
		if _, _, err := kernels.ParFFBP(ch, cfg.FFBPCores, data, cfg.Params, cfg.Box); err != nil {
			return nil, fmt.Errorf("chaos severity %g: %w", s, err)
		}
		tot := ch.TotalStats()
		sec := ch.Time()
		j := energy.EpiphanyBreakdown(tot, sec).Total()
		if len(out) == 0 {
			baseSec, baseJ = sec, j
		}
		out = append(out, ChaosPoint{
			Severity:       s,
			HaltedCores:    len(plan.Halts),
			Seconds:        sec,
			Slowdown:       sec / baseSec,
			EnergyJ:        j,
			EnergyRatio:    j / baseJ,
			LinkRetries:    tot.LinkRetries,
			DMARetries:     tot.DMARetries,
			RemappedSlots:  len(ch.Remaps()),
			OverheadCycles: tot.LinkRetryCycles + tot.DMARetryCycles + tot.DerateCycles,
			ConformOK:      conform.Check(ch).OK(),
		})
	}
	return out, nil
}

func printChaos(w io.Writer, points []ChaosPoint) {
	fmt.Fprintf(w, "%9s %6s %12s %9s %11s %8s %9s %7s %7s %8s\n",
		"severity", "halts", "time (ms)", "slowdown", "energy (J)", "ratio", "linkrtry", "dmartry", "remaps", "conform")
	for _, pt := range points {
		ok := "ok"
		if !pt.ConformOK {
			ok = "FAIL"
		}
		fmt.Fprintf(w, "%9.2f %6d %12.2f %9.3f %11.3e %8.3f %9d %7d %7d %8s\n",
			pt.Severity, pt.HaltedCores, pt.Seconds*1e3, pt.Slowdown, pt.EnergyJ, pt.EnergyRatio,
			pt.LinkRetries, pt.DMARetries, pt.RemappedSlots, ok)
	}
}
