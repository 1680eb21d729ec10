package emu

import (
	"reflect"
	"testing"

	"sarmany/internal/fault"
	"sarmany/internal/machine"
)

// faultTestWorkload exercises every fault hook point: dual-issue compute,
// direct ext loads/stores, an ext DMA burst, a streaming link, and
// barriers. It runs on the first two cores of the chip.
func faultTestWorkload(t *testing.T, ch *Chip) {
	t.Helper()
	ext, err := machine.NewBufC(ch.Ext(), 256)
	if err != nil {
		t.Fatal(err)
	}
	link := ch.Connect(0, 1, 2)
	ch.Run(2, func(c *Core) {
		local, err := machine.NewBufC(c.Bank(2), 256)
		if err != nil {
			panic(err)
		}
		if c.ID == 0 {
			c.FMA(300)
			d := c.DMACopyC(local, 0, ext, 0, 128) // ext read burst
			c.DMAWait(d)
			for b := 0; b < 4; b++ {
				link.Send(c, local.Data[b*16:(b+1)*16])
			}
		} else {
			c.IOp(50)
			// Core 0's DMA burst reads ext[0:128] concurrently in host
			// time, so core 1 touches a disjoint region.
			ext.Store(c, 200, complex(1, 2)) // posted ext write
			_ = ext.Load(c, 200)             // stalling ext read
			for b := 0; b < 4; b++ {
				copy(local.Data[b*16:], link.Recv(c))
			}
		}
		c.Barrier()
		c.FMA(100)
		c.Barrier()
	})
}

// TestEmptyFaultPlanIsBitIdentical asserts the fault subsystem's core
// contract: attaching a compiled empty plan changes nothing at all —
// cycle counts, statistics, and link occupancy are exactly equal to a run
// with no injector attached.
func TestEmptyFaultPlanIsBitIdentical(t *testing.T) {
	run := func(inj *fault.Injector) (*Chip, float64, CoreStats, []LinkStat) {
		ch := New(E16G3())
		if inj != nil {
			ch.SetFaults(inj)
		}
		faultTestWorkload(t, ch)
		return ch, ch.MaxCycles(), ch.TotalStats(), ch.LinkStats()
	}
	_, cyc0, tot0, links0 := run(nil)
	_, cyc1, tot1, links1 := run(fault.MustCompile(fault.Plan{Seed: 12345}))
	if cyc0 != cyc1 {
		t.Errorf("MaxCycles: no-injector %v != empty-plan %v", cyc0, cyc1)
	}
	if tot0 != tot1 {
		t.Errorf("TotalStats differ:\n no-injector %+v\n empty-plan  %+v", tot0, tot1)
	}
	if !reflect.DeepEqual(links0, links1) {
		t.Errorf("LinkStats differ:\n no-injector %+v\n empty-plan  %+v", links0, links1)
	}
	// Reruns of the same faulty plan are bit-identical too.
	plan := fault.Plan{
		Seed:    7,
		Derates: []fault.Derate{{Core: 1, Factor: 1.5}},
		Links:   []fault.LinkFault{{From: -1, To: -1, Rate: 0.5, TimeoutCycles: 100, BackoffCycles: 10, MaxRetries: 4}},
		DMAs:    []fault.DMAFault{{Core: -1, Rate: 0.5, TimeoutCycles: 50, MaxRetries: 2}},
	}
	_, cycA, totA, linksA := run(fault.MustCompile(plan))
	_, cycB, totB, linksB := run(fault.MustCompile(plan))
	if cycA != cycB || totA != totB || !reflect.DeepEqual(linksA, linksB) {
		t.Error("two runs of the same fault plan are not bit-identical")
	}
	if cycA == cyc0 {
		t.Error("faulty plan did not slow the run down at all")
	}
}

func TestDerateStretchesCommitWindows(t *testing.T) {
	ch := New(E16G3())
	ch.SetFaults(fault.MustCompile(fault.Plan{Derates: []fault.Derate{{Core: 0, Factor: 2}}}))
	c := ch.Cores[0]
	c.FMA(100)
	if got := c.Cycles(); got != 200 {
		t.Errorf("pending derated window: Cycles() = %v, want 200", got)
	}
	ch.Settle()
	if c.Stats.ComputeCycles != 200 {
		t.Errorf("ComputeCycles = %v, want 200 (derated)", c.Stats.ComputeCycles)
	}
	if c.Stats.DerateCycles != 100 {
		t.Errorf("DerateCycles = %v, want the extra 100", c.Stats.DerateCycles)
	}
	// The compute+stall cycle identity holds under derating.
	if got := c.Stats.ComputeCycles + c.Stats.StallCycles; got != c.Cycles() {
		t.Errorf("cycle identity broken: compute+stall = %v, Cycles() = %v", got, c.Cycles())
	}
	// An underated core on the same chip is untouched.
	c1 := ch.Cores[1]
	c1.FMA(100)
	ch.Settle()
	if c1.Stats.ComputeCycles != 100 || c1.Stats.DerateCycles != 0 {
		t.Errorf("underated core charged %v compute / %v derate", c1.Stats.ComputeCycles, c1.Stats.DerateCycles)
	}
}

func TestExtDerateScalesChannel(t *testing.T) {
	cycles := func(scale float64) float64 {
		ch := New(E16G3())
		if scale != 0 {
			ch.SetFaults(fault.MustCompile(fault.Plan{ExtScale: scale}))
		}
		c := ch.Cores[0]
		ext, err := machine.NewBufC(ch.Ext(), 8)
		if err != nil {
			t.Fatal(err)
		}
		_ = ext.Load(c, 0)
		ch.Settle()
		return c.Cycles()
	}
	healthy, derated := cycles(0), cycles(0.5)
	// One 8-byte ext load: latency + 8/bw; halving bw doubles the service
	// term (8 cycles -> 16 at 1 B/cycle).
	if want := healthy + 8; derated != want {
		t.Errorf("derated ext read = %v cycles, want %v (healthy %v + 8)", derated, want, healthy)
	}
}

func TestLinkRetryAccounting(t *testing.T) {
	const timeout, backoff = 100.0, 10.0
	ch := New(E16G3())
	ch.SetFaults(fault.MustCompile(fault.Plan{
		Links: []fault.LinkFault{{From: 0, To: 1, Rate: 1, TimeoutCycles: timeout, BackoffCycles: backoff, MaxRetries: 2}},
	}))
	link := ch.Connect(0, 1, 1)
	payload := make([]complex64, 16) // 128 bytes -> 16 double words
	ch.Run(2, func(c *Core) {
		if c.ID == 0 {
			link.Send(c, payload)
		} else {
			link.Recv(c)
		}
	})
	p := ch.Cores[0]
	if p.Stats.LinkRetries != 2 {
		t.Fatalf("LinkRetries = %d, want exactly MaxRetries 2 at rate 1", p.Stats.LinkRetries)
	}
	if p.Stats.RetryBytes != 256 {
		t.Errorf("RetryBytes = %d, want 2*128", p.Stats.RetryBytes)
	}
	// Each retry: timeout + backoff*2^k stall, plus the 16+1 re-issue
	// cycles.
	wantCycles := (timeout + backoff*1 + 17) + (timeout + backoff*2 + 17)
	if p.Stats.LinkRetryCycles != wantCycles {
		t.Errorf("LinkRetryCycles = %v, want %v", p.Stats.LinkRetryCycles, wantCycles)
	}
	if p.Stats.LinkStallCycles < timeout*2+backoff*3 {
		t.Errorf("LinkStallCycles = %v does not cover the injected waits", p.Stats.LinkStallCycles)
	}
	// NoCBytes prices the retransmitted payload: 3 crossings of 128 bytes.
	if p.Stats.NoCBytes != 384 {
		t.Errorf("NoCBytes = %d, want 3*128", p.Stats.NoCBytes)
	}
	if got := p.Stats.ComputeCycles + p.Stats.StallCycles; got != p.Cycles() {
		t.Errorf("cycle identity broken under link faults: %v != %v", got, p.Cycles())
	}
	ls := ch.LinkStats()[0]
	if ls.Retries != 2 || ls.RetryBytes != 256 {
		t.Errorf("link stat retries = %d/%d bytes, want 2/256", ls.Retries, ls.RetryBytes)
	}
	if ls.WireBlocks != ls.Blocks+2 || ls.WireBytes != ls.Bytes+256 {
		t.Errorf("wire totals %d blocks/%d bytes do not add retries to %d/%d", ls.WireBlocks, ls.WireBytes, ls.Blocks, ls.Bytes)
	}
	if ls.WireBytes < ls.RecvBytes {
		t.Errorf("wire bytes %d < delivered bytes %d", ls.WireBytes, ls.RecvBytes)
	}
}

func TestDMAFaultDelaysCompletion(t *testing.T) {
	const timeout = 75.0
	run := func(faulty bool) (*Core, float64) {
		ch := New(E16G3())
		if faulty {
			ch.SetFaults(fault.MustCompile(fault.Plan{
				DMAs: []fault.DMAFault{{Core: 0, Rate: 1, TimeoutCycles: timeout, MaxRetries: 1}},
			}))
		}
		c := ch.Cores[0]
		ext, err := machine.NewBufC(ch.Ext(), 64)
		if err != nil {
			t.Fatal(err)
		}
		local, err := machine.NewBufC(c.Bank(2), 64)
		if err != nil {
			t.Fatal(err)
		}
		d := c.DMACopyC(local, 0, ext, 0, 64)
		c.DMAWait(d)
		ch.Settle()
		return c, c.Cycles()
	}
	_, healthy := run(false)
	c, faulty := run(true)
	if faulty != healthy+timeout {
		t.Errorf("faulted DMA run = %v cycles, want %v (healthy %v + one timeout)", faulty, healthy, healthy)
	}
	if c.Stats.DMARetries != 1 || c.Stats.DMARetryCycles != timeout {
		t.Errorf("DMA retry accounting = %d retries / %v cycles, want 1 / %v",
			c.Stats.DMARetries, c.Stats.DMARetryCycles, timeout)
	}
	if got := c.Stats.ComputeCycles + c.Stats.StallCycles; got != c.Cycles() {
		t.Errorf("cycle identity broken under DMA faults: %v != %v", got, c.Cycles())
	}
}

func TestRunSkipsHaltedCores(t *testing.T) {
	ch := New(E16G3())
	ch.SetFaults(fault.MustCompile(fault.Plan{Halts: []int{1}}))
	ch.Run(4, func(c *Core) {
		c.FMA(100)
		c.Barrier()
		c.FMA(50)
		c.Barrier()
	})
	if got := ch.Cores[1].Cycles(); got != 0 {
		t.Errorf("halted core advanced to %v cycles", got)
	}
	if ch.Cores[1].Stats != (CoreStats{}) {
		t.Errorf("halted core accumulated stats: %+v", ch.Cores[1].Stats)
	}
	for _, id := range []int{0, 2, 3} {
		if got := ch.Cores[id].Stats.ComputeCycles; got != 150 {
			t.Errorf("live core %d computed %v cycles, want 150", id, got)
		}
		if got := ch.Cores[id].Stats.BarrierWaits; got != 2 {
			t.Errorf("live core %d waited at %v barriers, want 2", id, got)
		}
	}
	if !ch.Alive(0) || ch.Alive(1) {
		t.Error("Alive() disagrees with the plan")
	}
}

func TestAssignmentsRemapToNearestNeighbor(t *testing.T) {
	// E16G3 is 4x4 row-major: core 1 sits at (0,1). Its nearest live
	// neighbors at distance 1 are cores 0, 2 and 5; the lowest ID wins.
	ch := New(E16G3())
	ch.SetFaults(fault.MustCompile(fault.Plan{Halts: []int{1}}))
	assign, err := ch.Assignments(16)
	if err != nil {
		t.Fatal(err)
	}
	if assign[1] != 0 {
		t.Errorf("slot 1 assigned to core %d, want nearest live neighbor 0", assign[1])
	}
	for i, a := range assign {
		if i != 1 && a != i {
			t.Errorf("healthy slot %d moved to core %d", i, a)
		}
	}
	remaps := ch.Remaps()
	if len(remaps) != 1 || remaps[0] != (Remap{Slot: 1, From: 1, To: 0}) {
		t.Errorf("Remaps() = %+v, want [{1 1 0}]", remaps)
	}

	// Without faults the assignment is the identity and nothing is
	// recorded.
	ch2 := New(E16G3())
	assign2, err := ch2.Assignments(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range assign2 {
		if a != i {
			t.Errorf("fault-free slot %d moved to %d", i, a)
		}
	}
	if len(ch2.Remaps()) != 0 {
		t.Error("fault-free Assignments recorded remaps")
	}

	// All cores of the run halted: no taker.
	ch3 := New(E16G3())
	ch3.SetFaults(fault.MustCompile(fault.Plan{Halts: []int{0, 1}}))
	if _, err := ch3.Assignments(2); err == nil {
		t.Error("expected error when every core of the run is halted")
	}
}

func TestRemapPlacementStaysInjective(t *testing.T) {
	ch := New(E16G3())
	ch.SetFaults(fault.MustCompile(fault.Plan{Halts: []int{5}}))
	// Core 5 is at (1,1); its distance-1 neighbors 1, 4, 6, 9 are all
	// occupied by the placement, so the remap must pick a free live core
	// at distance 2 — the lowest ID among {0, 2, 8, 10, 13}.
	place := []int{1, 4, 5, 6, 9}
	got, err := ch.RemapPlacement(place)
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != 0 {
		t.Errorf("halted slot moved to core %d, want 0 (nearest free live core)", got[2])
	}
	seen := map[int]bool{}
	for _, c := range got {
		if seen[c] {
			t.Fatalf("placement %v is not injective", got)
		}
		seen[c] = true
	}
	// The original placement slice is untouched.
	if place[2] != 5 {
		t.Error("RemapPlacement mutated its argument")
	}
	if n := len(ch.Remaps()); n != 1 {
		t.Errorf("%d remaps recorded, want 1", n)
	}
}

// TestExtScaleFollowsSetFaults attaches and detaches an SDRAM derate on a
// chip whose core has already used the channel: every external read is
// priced at the plan attached when it issues, never at one seen earlier.
func TestExtScaleFollowsSetFaults(t *testing.T) {
	ch := New(E16G3())
	c := ch.Cores[0]
	ext, err := machine.NewBufC(ch.Ext(), 8)
	if err != nil {
		t.Fatal(err)
	}
	read := func() float64 {
		before := c.Cycles()
		_ = ext.Load(c, 0)
		ch.Settle()
		return c.Cycles() - before
	}
	healthy := read()
	ch.SetFaults(fault.MustCompile(fault.Plan{ExtScale: 0.5}))
	// One 8-byte read at half the 1 B/cycle channel: 8 more service cycles.
	if got, want := read(), healthy+8; got != want {
		t.Errorf("read after attaching the derate = %v cycles, want %v", got, want)
	}
	ch.SetFaults(nil)
	if got := read(); got != healthy {
		t.Errorf("read after detaching the derate = %v cycles, want %v", got, healthy)
	}
}
