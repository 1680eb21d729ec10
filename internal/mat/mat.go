// Package mat provides dense 2-D matrices of complex64 and float32 values
// backed by a single contiguous slice, together with the slicing and tiling
// operations the SAR chain uses to partition images across processing cores.
//
// The storage convention is row-major with the row index conventionally
// holding the pulse/azimuth/beam dimension and the column index the
// range-bin dimension, matching the paper's 1024 pulses x 1001 range bins
// data layout (each pixel is two 32-bit floats, so one pulse of 1001 bins
// occupies 8008 bytes — two pulses are the 16,016 bytes the paper stores in
// the two upper local-memory banks of each Epiphany core).
package mat

import "fmt"

// C is a dense row-major matrix of complex64 values.
type C struct {
	Rows, Cols int
	// Stride is the number of elements between vertically adjacent
	// elements. For a freshly allocated matrix Stride == Cols; views into
	// a larger matrix keep the parent's stride.
	Stride int
	Data   []complex64
}

// NewC allocates a zeroed rows x cols complex matrix.
func NewC(rows, cols int) *C {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &C{Rows: rows, Cols: cols, Stride: cols, Data: make([]complex64, rows*cols)}
}

// At returns the element at (r, c).
func (m *C) At(r, c int) complex64 {
	m.check(r, c)
	return m.Data[r*m.Stride+c]
}

// Set assigns the element at (r, c).
func (m *C) Set(r, c int, v complex64) {
	m.check(r, c)
	m.Data[r*m.Stride+c] = v
}

func (m *C) check(r, c int) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", r, c, m.Rows, m.Cols))
	}
}

// Row returns the r-th row as a slice sharing the matrix storage.
func (m *C) Row(r int) []complex64 {
	if r < 0 || r >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", r, m.Rows))
	}
	return m.Data[r*m.Stride : r*m.Stride+m.Cols]
}

// View returns a sub-matrix sharing storage with m, starting at (r, c) and
// extending rows x cols.
func (m *C) View(r, c, rows, cols int) *C {
	if r < 0 || c < 0 || rows < 0 || cols < 0 || r+rows > m.Rows || c+cols > m.Cols {
		panic(fmt.Sprintf("mat: view (%d,%d,%d,%d) out of range %dx%d", r, c, rows, cols, m.Rows, m.Cols))
	}
	return &C{
		Rows:   rows,
		Cols:   cols,
		Stride: m.Stride,
		Data:   m.Data[r*m.Stride+c : (r+rows-1)*m.Stride+c+cols],
	}
}

// Clone returns a compact deep copy of m (Stride == Cols).
func (m *C) Clone() *C {
	out := NewC(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r), m.Row(r))
	}
	return out
}

// Fill sets every element of m to v.
func (m *C) Fill(v complex64) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := range row {
			row[i] = v
		}
	}
}

// Equal reports whether m and n have the same shape and identical elements.
func (m *C) Equal(n *C) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for r := 0; r < m.Rows; r++ {
		a, b := m.Row(r), n.Row(r)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the maximum over all elements of |m[i]-n[i]| measured
// as the max of the real and imaginary component differences. It panics if
// the shapes differ.
func (m *C) MaxAbsDiff(n *C) float64 {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	var max float64
	for r := 0; r < m.Rows; r++ {
		a, b := m.Row(r), n.Row(r)
		for i := range a {
			dr := abs64(float64(real(a[i]) - real(b[i])))
			di := abs64(float64(imag(a[i]) - imag(b[i])))
			if dr > max {
				max = dr
			}
			if di > max {
				max = di
			}
		}
	}
	return max
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// F is a dense row-major matrix of float32 values.
type F struct {
	Rows, Cols int
	Stride     int
	Data       []float32
}

// NewF allocates a zeroed rows x cols float matrix.
func NewF(rows, cols int) *F {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &F{Rows: rows, Cols: cols, Stride: cols, Data: make([]float32, rows*cols)}
}

// At returns the element at (r, c).
func (m *F) At(r, c int) float32 {
	m.check(r, c)
	return m.Data[r*m.Stride+c]
}

// Set assigns the element at (r, c).
func (m *F) Set(r, c int, v float32) {
	m.check(r, c)
	m.Data[r*m.Stride+c] = v
}

func (m *F) check(r, c int) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", r, c, m.Rows, m.Cols))
	}
}

// Row returns the r-th row as a slice sharing the matrix storage.
func (m *F) Row(r int) []float32 {
	if r < 0 || r >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", r, m.Rows))
	}
	return m.Data[r*m.Stride : r*m.Stride+m.Cols]
}

// Slice describes a contiguous band of rows [Lo, Hi) assigned to one
// processing core by coarse-grained data partitioning (paper Fig. 6).
type Slice struct {
	Lo, Hi int
}

// Len returns the number of rows in the slice.
func (s Slice) Len() int { return s.Hi - s.Lo }

// Partition splits n rows into p near-equal contiguous slices, the
// coarse-grained data partitioning of the parallel FFBP implementation.
// Earlier slices receive the remainder rows, so sizes differ by at most 1.
// It panics unless 0 < p and 0 <= n.
func Partition(n, p int) []Slice {
	if p <= 0 || n < 0 {
		panic(fmt.Sprintf("mat: invalid partition n=%d p=%d", n, p))
	}
	out := make([]Slice, p)
	base := n / p
	rem := n % p
	lo := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = Slice{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}
