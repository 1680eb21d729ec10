package emu

import "fmt"

// Topology is the array-level view of a Params configuration: the global
// core grid a multi-chip array exposes, the chip each core belongs to,
// and the XY-route cost structure (mesh hops and eLink bridge crossings)
// between any two cores. Chip.Assignments, the fault remapper, and the
// profiler's mesh heatmaps all reason in these terms, so a kernel written
// against core IDs runs unchanged on any topology.
type Topology struct {
	p Params
}

// Topology returns the array-level view of the configuration.
func (p Params) Topology() Topology { return Topology{p: p} }

// Topology returns the chip's array-level view.
func (ch *Chip) Topology() Topology { return ch.P.Topology() }

// Coord is a position on the global core grid (row-major, row 0 at the
// top-left chip).
type Coord struct {
	Row, Col int
}

// GridRows and GridCols give the global grid dimensions.
func (t Topology) GridRows() int { return t.p.GridRows() }
func (t Topology) GridCols() int { return t.p.GridCols() }

// NumCores returns the total core count of the array.
func (t Topology) NumCores() int { return t.p.NumCores() }

// NumChips returns the chip count of the array.
func (t Topology) NumChips() int { return t.p.NumChips() }

// ChipRows and ChipCols give the chip-array dimensions (1x1 for a single
// chip).
func (t Topology) ChipRows() int { return t.p.chipRows() }
func (t Topology) ChipCols() int { return t.p.chipCols() }

// CoordOf returns the global grid position of a core ID.
func (t Topology) CoordOf(id int) Coord {
	if id < 0 || id >= t.NumCores() {
		panic(fmt.Sprintf("emu: core %d outside the %dx%d grid", id, t.GridRows(), t.GridCols()))
	}
	return Coord{Row: id / t.GridCols(), Col: id % t.GridCols()}
}

// IDOf returns the core ID at a global grid position.
func (t Topology) IDOf(c Coord) int {
	if c.Row < 0 || c.Row >= t.GridRows() || c.Col < 0 || c.Col >= t.GridCols() {
		panic(fmt.Sprintf("emu: coordinate (%d,%d) outside the %dx%d grid",
			c.Row, c.Col, t.GridRows(), t.GridCols()))
	}
	return c.Row*t.GridCols() + c.Col
}

// Dist returns the XY-route cost components between two cores: the
// Manhattan hop count on the global grid and the number of chip
// boundaries (eLink bridges) the dimension-ordered route crosses.
func (t Topology) Dist(a, b int) (hops, bridges int) {
	ca, cb := t.CoordOf(a), t.CoordOf(b)
	hops = abs(ca.Row-cb.Row) + abs(ca.Col-cb.Col)
	return hops, t.p.bridgesBetween(ca.Row, ca.Col, cb.Row, cb.Col)
}
