package kernels

import (
	"runtime"
	"testing"
	"time"

	"sarmany/internal/emu"
	"sarmany/internal/machine"
	"sarmany/internal/mat"
	"sarmany/internal/refcpu"
)

// panicMachine is a Machine that charges nothing and panics on its
// panicAt-th Load.
type panicMachine struct{ loads, panicAt int }

func (m *panicMachine) FMA(int)  {}
func (m *panicMachine) Flop(int) {}
func (m *panicMachine) IOp(int)  {}
func (m *panicMachine) Div(int)  {}
func (m *panicMachine) Sqrt(int) {}
func (m *panicMachine) Trig(int) {}
func (m *panicMachine) Load(uint32, int) {
	m.loads++
	if m.loads == m.panicAt {
		panic("panicMachine: load limit")
	}
}
func (m *panicMachine) Store(uint32, int) {}
func (m *panicMachine) Cycles() float64   { return 0 }
func (m *panicMachine) ClockHz() float64  { return 1e9 }

// waitGoroutines waits up to a second for runtime.NumGoroutine to fall
// back to at most want: a goroutine that has signalled its exit may still
// be counted for a moment, and one left over from an earlier test may
// exit meanwhile.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Errorf("%d goroutines after SeqFFBP, %d before", got, want)
	}
}

// TestSeqFFBPTapProducerLifetime: SeqFFBP's tap producer never outlives
// the call — neither on a normal return nor when the machine panics,
// during stage 0 (producer blocked on a full ring) or mid-merge.
func TestSeqFFBPTapProducerLifetime(t *testing.T) {
	p, box, data := testSetup()
	stage0 := p.NumPulses * p.NumBins
	for _, tc := range []struct {
		name    string
		panicAt int
	}{
		{"normal", 0},
		{"panic-in-stage0", 10},
		{"panic-mid-merge", stage0 + 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m := &panicMachine{panicAt: tc.panicAt}
			panicked := func() (v any) {
				defer func() { v = recover() }()
				if _, _, err := SeqFFBP(m, machine.NewBump(0, 1<<28), data, p, box); err != nil {
					t.Fatal(err)
				}
				return nil
			}()
			if (panicked != nil) != (tc.panicAt > 0) {
				t.Fatalf("panic = %v after %d loads, panicAt %d", panicked, m.loads, tc.panicAt)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestFFBPLeavesDataUnchanged: both kernels read the caller's compact data
// in place and must not write it; a strided view of the same data gives
// the same image.
func TestFFBPLeavesDataUnchanged(t *testing.T) {
	p, box, data := testSetup()
	orig := data.Clone()
	cpu := refcpu.New(refcpu.I7M620())
	seqImg, _, err := SeqFFBP(cpu, cpu.Mem(), data, p, box)
	if err != nil {
		t.Fatal(err)
	}
	if !data.Equal(orig) {
		t.Fatal("SeqFFBP modified its input data")
	}
	parImg, _, err := ParFFBP(emu.New(emu.E16G3()), 16, data, p, box)
	if err != nil {
		t.Fatal(err)
	}
	if !data.Equal(orig) {
		t.Fatal("ParFFBP modified its input data")
	}
	if !parImg.Equal(seqImg) {
		t.Error("ParFFBP image differs from SeqFFBP")
	}

	wide := mat.NewC(p.NumPulses, p.NumBins+3)
	view := wide.View(0, 1, p.NumPulses, p.NumBins)
	for i := 0; i < p.NumPulses; i++ {
		copy(view.Row(i), data.Row(i))
	}
	cpu = refcpu.New(refcpu.I7M620())
	viewImg, _, err := SeqFFBP(cpu, cpu.Mem(), view, p, box)
	if err != nil {
		t.Fatal(err)
	}
	if !viewImg.Equal(seqImg) {
		t.Error("SeqFFBP on a strided view differs from the compact input")
	}
	viewImg, _, err = ParFFBP(emu.New(emu.E16G3()), 16, view, p, box)
	if err != nil {
		t.Fatal(err)
	}
	if !viewImg.Equal(seqImg) {
		t.Error("ParFFBP on a strided view differs from the compact input")
	}
}
