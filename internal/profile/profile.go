// Package profile is the post-hoc trace analyzer: it consumes the span
// tracks, dependency edges, phase records and per-core statistics a traced
// emu.Chip run leaves behind and answers the questions the paper's
// Sec. VI analysis asks by hand — what chain of work and waiting actually
// determined the execution time (critical path), where on the mesh the
// cycles and bytes went (heatmap), what each barrier phase cost in joules
// (per-phase energy attribution), and whether each phase was compute- or
// bandwidth-bound in the roofline sense (operational intensity against
// the machine's peak FLOP rate and off-chip bandwidth).
//
// The analyzer is strictly read-only: it runs after Run has returned and
// never changes modeled timing. Reports are exported as plain text
// (WriteText) or a self-contained HTML page (WriteHTML); epirun -profile
// and -html run the analyzer on the run epirun reports.
package profile

import (
	"fmt"

	"sarmany/internal/emu"
	"sarmany/internal/energy"
	"sarmany/internal/obs"
)

// Profile is the complete analysis of one traced chip run.
type Profile struct {
	// Rows, Cols, Cores identify the machine: the global core-grid shape
	// (across every chip of a multi-chip array) and how many cores the
	// run used. ChipRows/ChipCols give the chip-array arrangement and are
	// omitted for a single chip.
	Rows     int     `json:"rows"`
	Cols     int     `json:"cols"`
	ChipRows int     `json:"chip_rows,omitempty"`
	ChipCols int     `json:"chip_cols,omitempty"`
	Cores    int     `json:"cores"`
	ClockHz  float64 `json:"clock_hz"`

	// RunCycles is the modeled execution time in cycles; Seconds the same
	// in wall time.
	RunCycles float64 `json:"run_cycles"`
	Seconds   float64 `json:"seconds"`

	// Total is the summed statistics of the cores that ran, and
	// TotalEnergy the whole-run energy estimate. The per-phase energy
	// rows in Phases sum to TotalEnergy exactly (the power model is
	// linear in both statistics and time).
	Total       emu.CoreStats    `json:"total_stats"`
	TotalEnergy energy.Breakdown `json:"total_energy"`

	// Phases holds one row per barrier phase plus, when the run did work
	// after (or without) the final barrier, a synthetic tail row, so the
	// rows partition [0, RunCycles].
	Phases []PhaseEnergy `json:"phases"`

	// Critical is the longest dependency chain through the run.
	Critical CriticalPath `json:"critical"`

	// Heatmap locates utilization and traffic on the mesh.
	Heatmap Heatmap `json:"heatmap"`

	// Faults is the degradation report of a run executed under a
	// non-empty fault plan: per-target cost rows for link retransmission,
	// DMA timeouts, frequency derating and slot remapping, with
	// whole-run overhead totals the rows sum to. Nil for fault-free runs.
	Faults *Degradation `json:"faults,omitempty"`

	// DroppedSpans counts trace-ring overflow across all tracks. When
	// nonzero the early part of the trace is missing and the critical
	// path may start from a truncated picture; reports carry a warning.
	DroppedSpans uint64 `json:"dropped_spans"`
}

// AnalyzeChip profiles a completed traced run. The chip must have had an
// obs.Tracer attached before Run: the critical path walks the recorded
// spans and dependency edges, which do not exist otherwise.
func AnalyzeChip(ch *emu.Chip) (*Profile, error) {
	tr := ch.Tracer()
	if tr == nil {
		return nil, fmt.Errorf("profile: chip was not traced; attach an obs.Tracer before Run")
	}
	p := &Profile{
		Rows: ch.P.GridRows(), Cols: ch.P.GridCols(), Cores: ch.ActiveCount(),
		ClockHz:      ch.P.Clock,
		RunCycles:    ch.MaxCycles(),
		Seconds:      ch.Time(),
		Total:        ch.TotalStats(),
		DroppedSpans: tr.Dropped(),
	}
	if ch.P.NumChips() > 1 {
		t := ch.Topology()
		p.ChipRows, p.ChipCols = t.ChipRows(), t.ChipCols()
	}
	p.TotalEnergy = energy.EpiphanyBreakdown(p.Total, p.Seconds)
	p.Phases = attributePhases(ch)
	p.Critical = criticalPath(ch)
	p.Heatmap = buildHeatmap(ch)
	p.Faults = buildDegradation(ch)
	return p, nil
}

// trackSpans caches one track's spans in chronological order (Track.Spans
// copies out of the ring on every call).
type trackSpans struct {
	track *obs.Track
	core  int // core ID, or -1 for synthetic tracks
	spans []obs.Span
}

// coreTracks snapshots the span streams of the active cores.
func coreTracks(ch *emu.Chip) []trackSpans {
	out := make([]trackSpans, ch.ActiveCount())
	for i := range out {
		t := ch.CoreTrack(i)
		out[i] = trackSpans{track: t, core: i, spans: t.Spans()}
	}
	return out
}
