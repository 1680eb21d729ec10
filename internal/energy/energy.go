// Package energy implements the paper's energy-efficiency accounting
// (Sec. VI-A). The paper estimates power from datasheet figures — 17.5 W
// for one active core of the Intel i7-M620 (half the 35 W package TDP) and
// 2 W for the Epiphany E16G3 at 1 GHz — and compares implementations by
// throughput per watt. This package reproduces that method.
package energy

import "fmt"

// Estimate describes one implementation's execution and energy figures.
type Estimate struct {
	// Seconds is the execution time of the workload.
	Seconds float64
	// Watts is the estimated power draw while executing.
	Watts float64
	// WorkUnits is the amount of work done (pixels for the paper's
	// throughput figures).
	WorkUnits float64
}

// Joules returns the energy consumed.
func (e Estimate) Joules() float64 { return e.Seconds * e.Watts }

// Throughput returns work units per second.
func (e Estimate) Throughput() float64 {
	if e.Seconds == 0 {
		return 0
	}
	return e.WorkUnits / e.Seconds
}

// PerWatt returns the paper's efficiency measure: throughput per watt
// (work units per second per watt).
func (e Estimate) PerWatt() float64 {
	if e.Watts == 0 {
		return 0
	}
	return e.Throughput() / e.Watts
}

// EfficiencyRatio returns how many times more energy-efficient a is than
// b, measured as throughput per watt (the paper's "78x" and "38x"
// figures). It returns 0 if b has no measurable efficiency.
func EfficiencyRatio(a, b Estimate) float64 {
	pb := b.PerWatt()
	if pb == 0 {
		return 0
	}
	return a.PerWatt() / pb
}

// String formats the estimate compactly.
func (e Estimate) String() string {
	return fmt.Sprintf("%.1f ms @ %.1f W = %.3f J (%.0f units/s, %.0f units/s/W)",
		e.Seconds*1e3, e.Watts, e.Joules(), e.Throughput(), e.PerWatt())
}
