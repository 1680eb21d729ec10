package profile

import (
	"sort"

	"sarmany/internal/emu"
	"sarmany/internal/obs"
)

// PathSegment is one link of the critical path: on track Track, the
// interval (Start, End] was consumed by Cause. Causes are the span-kind
// names ("compute", "stall.ext", ...) plus two synthetic ones: "ext.drain"
// for the off-chip channel drain that resolves a bandwidth-bound barrier,
// and "idle" for untraced gaps (including trace-ring truncation).
type PathSegment struct {
	Track string  `json:"track"`
	Cause string  `json:"cause"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// CriticalPath is the longest dependency chain through a run: a
// chronological sequence of segments whose durations partition
// [0, RunCycles] exactly, so the per-cause totals answer "what would I
// have to speed up to make the whole run faster" — time off the path is
// hidden by overlap and speeding it up changes nothing.
type CriticalPath struct {
	Segments []PathSegment `json:"segments"`
	// ByCause sums segment durations per cause; the values add up to the
	// run length by construction.
	ByCause map[string]float64 `json:"by_cause"`
}

// Cycles returns the summed segment durations (the run length).
func (cp CriticalPath) Cycles() float64 {
	var t float64
	for _, v := range cp.ByCause {
		t += v
	}
	return t
}

// Causes returns the cause names sorted by descending total.
func (cp CriticalPath) Causes() []string {
	out := make([]string, 0, len(cp.ByCause))
	for k := range cp.ByCause {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if cp.ByCause[out[i]] != cp.ByCause[out[j]] {
			return cp.ByCause[out[i]] > cp.ByCause[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// eps absorbs float rounding when matching span ends against phase ends
// and edge arrival times (all are sums of the same cycle quantities, so
// real mismatches are whole cycles, not ulps).
const eps = 1e-6

// maxPathSteps bounds the backward walk; a run long enough to hit it
// would have overflowed every span ring long before.
const maxPathSteps = 1 << 22

// criticalPath walks backward from the end of the run, at every step
// asking "what was the last thing that had to finish for time t to be
// reached on this track" and crossing to another track when a recorded
// dependency edge (link handoff, back-pressure release) or a barrier
// resolution says the wait ended elsewhere.
func criticalPath(ch *emu.Chip) CriticalPath {
	tracks := coreTracks(ch)
	phases := ch.Phases()
	end := ch.MaxCycles()

	cp := CriticalPath{ByCause: map[string]float64{}}
	if end <= 0 || len(tracks) == 0 {
		return cp
	}

	// Start on the core that finished last.
	cur := 0
	for i := range tracks {
		if c := ch.Cores[i].Cycles(); c > ch.Cores[cur].Cycles() {
			cur = i
		}
	}

	push := func(track string, cause string, from, to float64) {
		if to-from <= eps {
			return
		}
		n := len(cp.Segments)
		// Merge with the previous (chronologically later) segment when
		// cause and track repeat — keeps barrier-heavy paths compact.
		if n > 0 && cp.Segments[n-1].Track == track && cp.Segments[n-1].Cause == cause &&
			cp.Segments[n-1].Start-to <= eps {
			cp.Segments[n-1].Start = from
		} else {
			cp.Segments = append(cp.Segments, PathSegment{Track: track, Cause: cause, Start: from, End: to})
		}
		cp.ByCause[cause] += to - from
	}

	t := end
	for steps := 0; t > eps && steps < maxPathSteps; steps++ {
		tk := &tracks[cur]
		name := tk.track.Name()
		s, ok := lastSpanBefore(tk.spans, t)
		if !ok {
			// Nothing traced before t on this track (trace truncated or
			// the core simply had not started): idle to time zero.
			push(name, "idle", 0, t)
			t = 0
			break
		}
		if s.End < t-eps {
			// Untraced gap between the span's end and t.
			push(name, "idle", s.End, t)
			t = s.End
			continue
		}

		switch s.Kind {
		case obs.KindStallBarrier:
			p, ok := phaseEndingAt(phases, s.End)
			if !ok {
				push(name, s.Kind.String(), s.Start, t)
				t = s.Start
				continue
			}
			bind := bindingCore(tracks, p)
			if p.BandwidthBound && p.SlowestCore < t-eps {
				// The barrier resolved when the off-chip channel finished
				// draining the phase's traffic, after every core was parked.
				push(name, "ext.drain", p.SlowestCore, t)
				t = p.SlowestCore
				cur = bind
				continue
			}
			if bind != cur {
				// Continue on the core whose work determined the
				// last-arrival time; its final pre-barrier span ends at t
				// so the next step attributes real work, not this barrier.
				cur = bind
				continue
			}
			// Already on the binding core yet looking at its own barrier
			// span (possible only when its pre-barrier spans were dropped
			// from the ring): attribute the wait directly instead of
			// cycling through bindingCore again.
			push(name, s.Kind.String(), s.Start, t)
			t = s.Start
		case obs.KindStallLink:
			if e, ok := edgeAt(tk.track.Deps(), s.End); ok && e.SrcTime < t-eps {
				// The wait ended because the peer (producer of the block,
				// or consumer freeing a back-pressured slot) reached
				// e.SrcTime: charge the wait plus transit here, then
				// follow the chain onto the peer's track.
				push(name, s.Kind.String(), e.SrcTime, t)
				t = e.SrcTime
				cur = coreIndexOf(tracks, e.Src)
				continue
			}
			push(name, s.Kind.String(), s.Start, t)
			t = s.Start
		default:
			push(name, s.Kind.String(), s.Start, t)
			t = s.Start
		}
	}
	if t > eps {
		// Walk exhausted its step budget: account the remainder so the
		// totals still partition the run.
		push("(truncated)", "idle", 0, t)
	}
	reverse(cp.Segments)
	return cp
}

// lastSpanBefore returns the latest span starting strictly before t.
// Spans are in chronological order, so binary-search the start times.
func lastSpanBefore(spans []obs.Span, t float64) (obs.Span, bool) {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Start >= t-eps })
	if i == 0 {
		return obs.Span{}, false
	}
	return spans[i-1], true
}

// phaseEndingAt finds the phase whose resolution time matches a barrier
// stall's end. Later phases win when zero-duration phases share an end.
func phaseEndingAt(phases []emu.PhaseRecord, end float64) (emu.PhaseRecord, bool) {
	for i := len(phases) - 1; i >= 0; i-- {
		if d := phases[i].End - end; d < eps && d > -eps {
			return phases[i], true
		}
	}
	return emu.PhaseRecord{}, false
}

// bindingCore picks the core whose compute determined a phase's
// last-arrival time: the one whose latest non-barrier span inside the
// phase ends last. Ties go to the lower core ID (deterministic).
func bindingCore(tracks []trackSpans, p emu.PhaseRecord) int {
	best, bestEnd := 0, -1.0
	for i := range tracks {
		for j := len(tracks[i].spans) - 1; j >= 0; j-- {
			s := tracks[i].spans[j]
			if s.End > p.SlowestCore+eps || s.Kind == obs.KindStallBarrier {
				continue
			}
			if s.End <= p.Start+eps {
				break
			}
			if s.End > bestEnd+eps {
				best, bestEnd = i, s.End
			}
			break // only the latest qualifying span per track matters
		}
	}
	return best
}

// edgeAt finds the dependency edge whose unblock time matches a link
// stall's end.
func edgeAt(deps []obs.Edge, at float64) (obs.Edge, bool) {
	for i := len(deps) - 1; i >= 0; i-- {
		if d := deps[i].At - at; d < eps && d > -eps {
			return deps[i], true
		}
	}
	return obs.Edge{}, false
}

// coreIndexOf maps an edge's source track back to its core index; a track
// that is not an active core's (cannot happen for edges the emulator
// records) falls back to core 0.
func coreIndexOf(tracks []trackSpans, t *obs.Track) int {
	for i := range tracks {
		if tracks[i].track == t {
			return i
		}
	}
	return 0
}

func reverse(s []PathSegment) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
