package emu

import (
	"fmt"

	"sarmany/internal/fault"
	"sarmany/internal/obs"
)

// This file is the fault-injection surface of the chip model. The hook
// points (Core.commit derating, Core.extBW channel scaling, Link.Send
// retransmits, Core.dmaStart completion timeouts, Run's live-core
// filtering) consult the attached fault.Injector; with no injector — or a
// compiled empty plan — every hook reduces to the exact arithmetic of the
// fault-free path, so such runs are bit-identical to an uninstrumented
// chip (asserted by TestEmptyFaultPlanIsBitIdentical).

// SetFaults attaches (or with nil detaches) a compiled fault plan. Attach
// before Run: the injector seeds per-core derating factors and decides
// which cores are alive. A whole-chip derate multiplies onto the per-core
// factors of that chip's cores. Detaching restores every core to full
// speed.
func (ch *Chip) SetFaults(inj *fault.Injector) {
	ch.faults = inj
	for _, c := range ch.Cores {
		c.slow = 1
		if inj != nil {
			c.slow = inj.Slowdown(c.ID) * inj.ChipSlowdown(c.chipIdx)
		}
	}
	ch.makeFaultTracks()
}

// Faults returns the attached fault injector (nil when fault injection is
// disabled).
func (ch *Chip) Faults() *fault.Injector { return ch.faults }

// Alive reports whether core i participates in runs (true unless a fault
// plan hard-halts it, individually or by halting its whole chip).
func (ch *Chip) Alive(i int) bool {
	if ch.faults == nil {
		return true
	}
	return !ch.faults.Halted(i) && !ch.faults.ChipHalted(ch.Cores[i].chipIdx)
}

// makeFaultTracks creates one fault-event track per core when both a
// tracer and an injector are attached (called from SetFaults and
// SetTracer, so attachment order does not matter). Fault spans live on
// their own tracks because a DMA timeout manifests at engine completion
// time, which can overlap the core's own span stream.
func (ch *Chip) makeFaultTracks() {
	if ch.tracer == nil || ch.faults == nil || ch.faults.Empty() {
		return
	}
	for _, c := range ch.Cores {
		if c.ftr == nil {
			c.ftr = ch.tracer.NewTrack(0, 1000+c.ID, fmt.Sprintf("faults core %d", c.ID))
		}
	}
}

// Remap records one slot of work moved off a halted core: mapped kernels
// keep slot identities (so the tile partition is unchanged) and only move
// the executing core.
type Remap struct {
	Slot int `json:"slot"` // logical work slot (SPMD slice or MPMD node index)
	From int `json:"from"` // the halted core that owned the slot
	To   int `json:"to"`   // the live core that took it over
}

// Remaps returns every slot remap recorded by Assignments and
// RemapPlacement, in decision order.
func (ch *Chip) Remaps() []Remap { return ch.remaps }

// Assignments returns the SPMD slot-to-core assignment for a run on the
// first n cores (0 = all): slot i runs on core i unless core i is halted,
// in which case the slot moves to the nearest live core of the run by
// Manhattan (XY-route) distance, lowest core ID on ties. A live core can
// host several slots; the slots themselves still partition the original
// work exactly. Each remap is recorded for the conformance checker and
// the degradation report.
func (ch *Chip) Assignments(n int) ([]int, error) {
	if n == 0 {
		n = len(ch.Cores)
	}
	if n < 1 || n > len(ch.Cores) {
		return nil, fmt.Errorf("emu: cannot assign %d slots on %d cores", n, len(ch.Cores))
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	if ch.faults == nil {
		return out, nil
	}
	for i := 0; i < n; i++ {
		if ch.Alive(i) {
			continue
		}
		from := ch.Cores[i]
		best, bestD := -1, 1<<30
		for j := 0; j < n; j++ {
			if !ch.Alive(j) {
				continue
			}
			d := abs(from.Row-ch.Cores[j].Row) + abs(from.Col-ch.Cores[j].Col)
			if d < bestD {
				best, bestD = j, d
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("emu: no live core among the first %d to take over slot %d", n, i)
		}
		out[i] = best
		ch.remaps = append(ch.remaps, Remap{Slot: i, From: i, To: best})
	}
	return out, nil
}

// RemapPlacement returns a copy of an MPMD placement (slot index ->
// core ID) with every halted core replaced by the nearest unoccupied live
// core on the whole mesh (Manhattan distance from the halted core, lowest
// ID on ties). Unlike Assignments the result stays injective — each node
// needs its own core — so remapping fails when the mesh has no free live
// core left.
func (ch *Chip) RemapPlacement(placement []int) ([]int, error) {
	out := append([]int(nil), placement...)
	if ch.faults == nil {
		return out, nil
	}
	used := make(map[int]bool, len(out))
	for _, c := range out {
		used[c] = true
	}
	for slot, core := range out {
		if core < 0 || core >= len(ch.Cores) {
			return nil, fmt.Errorf("emu: slot %d placed on nonexistent core %d", slot, core)
		}
		if ch.Alive(core) {
			continue
		}
		from := ch.Cores[core]
		best, bestD := -1, 1<<30
		for j := range ch.Cores {
			if used[j] || !ch.Alive(j) {
				continue
			}
			d := abs(from.Row-ch.Cores[j].Row) + abs(from.Col-ch.Cores[j].Col)
			if d < bestD {
				best, bestD = j, d
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("emu: no free live core to take over slot %d (core %d halted)", slot, core)
		}
		out[slot] = best
		used[best] = true
		ch.remaps = append(ch.remaps, Remap{Slot: slot, From: core, To: best})
	}
	return out, nil
}

// extBW returns the effective off-chip channel bandwidth in bytes per
// cycle for this core's chip: the configured per-chip figure, scaled
// down when a fault plan degrades the SDRAM channel. It runs on every
// external access and reads both through the chip, Params by pointer, so
// nothing is cached: a plan SetFaults attaches or detaches after New
// applies from the next access. The fault-free path is untouched
// arithmetic — the scale is only applied when it differs from 1.
func (c *Core) extBW() float64 {
	bw := c.chip.P.ExtBWOfChip(c.chipIdx)
	if f := c.chip.faults; f != nil {
		if s := f.ExtScale(); s != 1 {
			bw *= s
		}
	}
	return bw
}

// linkFault prices the retransmissions of the link's next transfer (index
// idx = blocks already sent) and returns nothing on the healthy path. Per
// failed attempt the producer stalls for the timeout plus the exponential
// backoff, then re-issues the block into the mesh — re-paying the issue
// cycles and re-moving the bytes, which the energy model therefore prices
// automatically through NoCBytes.
func (l *Link) injectSendFaults(c *Core, n int) {
	f := c.chip.faults
	if f == nil {
		return
	}
	lf, ok := f.LinkFaultFor(l.from.ID, l.to.ID)
	if !ok || lf.Rate == 0 {
		return
	}
	retries := f.LinkRetries(l.from.ID, l.to.ID, l.sends)
	for k := 0; k < retries; k++ {
		wait := lf.TimeoutCycles + lf.BackoffCycles*float64(uint64(1)<<uint(k))
		c.stall(wait, obs.KindStallLink)
		c.ftr.Span(obs.KindFaultLink, c.now-wait, c.now)
		// Re-issue: the block crosses the producer's mesh interface again.
		c.ialu += words(n) + 1
		c.commit()
		reissue := words(n) + 1
		c.Stats.RemoteWrites++
		c.Stats.NoCBytes += uint64(n)
		c.Stats.LinkRetries++
		c.Stats.RetryBytes += uint64(n)
		c.Stats.LinkRetryCycles += wait + reissue
		l.retries++
		l.retryBytes += uint64(n)
		l.retryCycles += wait + reissue
	}
}

// injectDMAFaults returns the extra completion delay of the DMA
// descriptor the core is issuing (descriptor index = transfers already
// issued): each timeout adds the configured cycles before the engine
// notices and restarts completion detection.
func (c *Core) injectDMAFaults() float64 {
	f := c.chip.faults
	if f == nil {
		return 0
	}
	df, ok := f.DMAFaultFor(c.ID)
	if !ok || df.Rate == 0 {
		return 0
	}
	retries := f.DMARetries(c.ID, c.Stats.DMATransfers)
	if retries == 0 {
		return 0
	}
	extra := df.TimeoutCycles * float64(retries)
	c.Stats.DMARetries += uint64(retries)
	c.Stats.DMARetryCycles += extra
	return extra
}
