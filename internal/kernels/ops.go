// Package kernels contains the paper's two case-study implementations
// mapped onto the simulated machines: the SPMD fast-factorized
// back-projection (Sec. V-B) and the MPMD streaming autofocus criterion
// calculation (Sec. V-C), each in a sequential variant (runs on any
// machine.Machine — the Intel reference model or a single Epiphany core)
// and a parallel variant (runs on an emu.Chip).
//
// Kernels perform the real arithmetic — producing images and criterion
// values bit-identical to the host implementations in packages ffbp and
// autofocus — while charging their machine for every modeled operation.
// The operation charges follow the paper's described implementation: the
// cosine-theorem index generation with fused multiply-adds and the
// simplified square root, nearest-neighbour interpolation for FFBP, and
// Neville cubic interpolation for autofocus.
package kernels

import (
	"math"

	"sarmany/internal/interp"
	"sarmany/internal/machine"
)

// chargeBeamSetup charges the per-beam hoisted work of the FFBP inner
// loops: the sincos of the output beam angle and the derived loop
// constants (paper: the optimization of using scalar variables to maximize
// register-file use hoists these out of the pixel loop).
func chargeBeamSetup(m machine.Machine) {
	m.Trig(2) // sin(theta), cos(theta)
	m.FMA(4)  // beam angle, x/y step constants
	m.IOp(4)  // row pointers
}

// neville4 evaluates the four-tap Neville cubic interpolation kernel on
// values already held in registers, charging its FPU work: six first-order
// combinations, each a complex scale-and-accumulate (paper ref. [16]; the
// autofocus interpolators run this in both the range and beam stages).
func neville4(m machine.Machine, s [4]complex64, t float32) complex64 {
	m.FMA(24) // 6 nev steps x 4 scalar FMAs (complex lerp)
	m.Flop(6) // 6 coefficient computations u*invW
	return interp.Neville4(s, t)
}

// expi charges and evaluates exp(i*phi) — one software sincos.
func expi(m machine.Machine, phi float32) complex64 {
	m.Trig(1)
	s, c := math.Sincos(float64(phi))
	return complex(float32(c), float32(s))
}

// cmul charges and evaluates a complex multiply (four scalar FMAs on the
// Epiphany; two multiplies and two multiply-adds elsewhere).
func cmul(m machine.Machine, a, b complex64) complex64 {
	m.FMA(4)
	return a * b
}

// cadd charges and evaluates a complex add — the element combining of
// paper eq. 5.
func cadd(m machine.Machine, a, b complex64) complex64 {
	m.Flop(2)
	return a + b
}

// abs2 charges and evaluates |z|^2 (a multiply and a fused multiply-add).
func abs2(m machine.Machine, z complex64) float32 {
	m.FMA(2)
	re, im := real(z), imag(z)
	return re*re + im*im
}
