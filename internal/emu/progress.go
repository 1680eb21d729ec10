package emu

import (
	"math"
	"sync/atomic"
)

// Progress instrumentation: a race-free window into a chip while Run is
// executing. Core clocks (c.now) are plain float64s written lock-free by
// each core's goroutine, so an outside observer — the telemetry
// heartbeat sampling a live run — cannot read them directly. When
// enabled, every clock advance also publishes the new committed time
// into a per-core atomic cell, and each resolved barrier phase bumps an
// atomic counter; Progress() assembles a consistent-enough snapshot from
// those cells without touching the simulation's own state.
//
// The instrumentation is strictly opt-in: with EnableProgress never
// called, each hook is a nil-check and the model's hot paths are
// unchanged. It never alters simulated time — like the tracer, it only
// observes timestamps.

// progressState holds the atomic cells behind Progress(). One cell per
// core (including halted ones, which simply never write), plus the
// resolved-phase counter.
type progressState struct {
	cells  []atomic.Uint64 // Float64bits of each core's committed clock
	phases atomic.Uint64   // barrier phases resolved so far
}

// Progress is one snapshot of a running (or finished) chip.
type Progress struct {
	// Cores holds each core's most recently committed clock, in cycles.
	Cores []float64
	// Phases counts the barrier phases resolved so far.
	Phases uint64
}

// MaxCycles returns the furthest-ahead core clock in the snapshot.
func (p Progress) MaxCycles() float64 {
	var max float64
	for _, v := range p.Cores {
		if v > max {
			max = v
		}
	}
	return max
}

// TotalCycles returns the sum of all core clocks — a monotone scalar
// that stops moving exactly when the whole chip does, which is what a
// stall watchdog wants to watch.
func (p Progress) TotalCycles() float64 {
	var sum float64
	for _, v := range p.Cores {
		sum += v
	}
	return sum
}

// EnableProgress turns on progress publication. Call before Run; calling
// again is a no-op. The cost while enabled is one atomic store per clock
// advance.
func (ch *Chip) EnableProgress() {
	if ch.progress != nil {
		return
	}
	ps := &progressState{cells: make([]atomic.Uint64, len(ch.Cores))}
	for i, c := range ch.Cores {
		c.prog = &ps.cells[i]
	}
	ch.progress = ps
}

// Progress returns a snapshot of the per-core clocks and the resolved
// phase count. Safe to call from any goroutine while Run is executing.
// ok is false (with a zero snapshot) when EnableProgress was not called.
func (ch *Chip) Progress() (p Progress, ok bool) {
	ps := ch.progress
	if ps == nil {
		return Progress{}, false
	}
	p.Cores = make([]float64, len(ps.cells))
	for i := range ps.cells {
		p.Cores[i] = math.Float64frombits(ps.cells[i].Load())
	}
	p.Phases = ps.phases.Load()
	return p, true
}

// noteProgress publishes the core's committed clock. Called from every
// point that advances c.now; a nil cell (progress disabled) makes it a
// free no-op.
func (c *Core) noteProgress() {
	if c.prog != nil {
		c.prog.Store(math.Float64bits(c.now))
	}
}

// notePhase publishes one resolved barrier phase. Called from
// resolvePhase, inside the rendezvous resolution step.
func (ch *Chip) notePhase() {
	if ch.progress != nil {
		ch.progress.phases.Add(1)
	}
}
