// Package gbt implements gradient boosted decision trees from scratch in
// the style of XGBoost [Chen & Guestrin, KDD'16], the learner the paper uses
// for file-access prediction (Section 4.3): second-order (Newton) boosting
// under a differentiable loss, exact greedy split finding, learned default
// directions for missing values, L2-regularised leaf weights, and shrinkage.
//
// The implementation supports the paper's usage pattern: an initial Train
// followed by periodic incremental Update calls that continue boosting on
// newly collected batches, letting the model adapt to workload changes
// (Figures 16 and 17).
package gbt

import (
	"fmt"
	"math"
	"slices"
)

// Missing is the feature value that marks an absent measurement. Feature
// vectors in this package use NaN, matching the paper's encoding of the
// "remaining k-n access-based features" (Section 4.1).
var Missing = math.NaN()

// IsMissing reports whether v encodes a missing feature value.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Matrix is a dense row-major feature matrix that tolerates missing values.
type Matrix struct {
	cols int
	data []float64
}

// NewMatrix returns an empty matrix with the given number of feature
// columns.
func NewMatrix(cols int) *Matrix {
	if cols <= 0 {
		panic(fmt.Sprintf("gbt: matrix needs at least one column, got %d", cols))
	}
	return &Matrix{cols: cols}
}

// Rows returns the number of rows appended so far.
func (m *Matrix) Rows() int { return len(m.data) / m.cols }

// Cols returns the number of feature columns.
func (m *Matrix) Cols() int { return m.cols }

// AppendRow adds one feature vector; its length must equal Cols.
func (m *Matrix) AppendRow(row []float64) {
	if len(row) != m.cols {
		panic(fmt.Sprintf("gbt: row has %d features, matrix has %d columns", len(row), m.cols))
	}
	m.data = append(m.data, row...)
}

// Grow makes room for rows more rows, so appending them does not reallocate.
func (m *Matrix) Grow(rows int) { m.data = slices.Grow(m.data, rows*m.cols) }

// Reset empties the matrix, keeping its storage for the rows appended next.
// Row views handed out before the call are invalid after it.
func (m *Matrix) Reset() { m.data = m.data[:0] }

// Row returns the i-th feature vector as a read-only slice view.
func (m *Matrix) Row(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// At returns the value at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }
