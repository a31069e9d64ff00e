package gbt

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Train fits a new model on the given matrix and 0/1 (or regression)
// labels.
func Train(x *Matrix, y []float64, p Params) (*Model, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if x.Rows() == 0 {
		return nil, errors.New("gbt: empty training set")
	}
	m := &Model{params: p}
	if p.Objective == LogisticBinary {
		m.baseMargin = logit(p.BaseScore)
	} else {
		m.baseMargin = p.BaseScore
	}
	if err := m.boost(x, y, m.margins(x), p.Rounds); err != nil {
		return nil, err
	}
	m.index.advance(m, 0)
	return m, nil
}

// Update continues boosting the existing ensemble for `rounds` rounds using
// a new batch, implementing the paper's incremental learning: the model is
// refined with data points as they become available, adapting to workload
// change without a fixed training window (Section 4.2).
func (m *Model) Update(x *Matrix, y []float64, rounds int) error {
	return m.UpdateFrom(x, y, m.margins(x), rounds)
}

// margins returns the model's PredictMargin of every row of x.
func (m *Model) margins(x *Matrix) []float64 {
	out := make([]float64, x.Rows())
	m.PredictMarginBatch(x, out)
	return out
}

// UpdateFrom is Update for a caller that already holds the model's current
// PredictMargin of every row of x, which spares the pass over the forest
// that computes them. margins is overwritten.
func (m *Model) UpdateFrom(x *Matrix, y, margins []float64, rounds int) error {
	if rounds <= 0 {
		rounds = m.params.Rounds
	}
	if x.Rows() == 0 {
		return errors.New("gbt: empty update batch")
	}
	if err := m.boost(x, y, margins, rounds); err != nil {
		return err
	}
	drop := 0
	if m.params.MaxTrees > 0 && m.NumTrees() > m.params.MaxTrees {
		// Retire the oldest trees. This is an approximation (later trees
		// were fit against their residuals) but gives the ensemble a
		// bounded size and a forgetting horizon for workload shifts.
		drop = m.NumTrees() - m.params.MaxTrees
		m.retire(drop)
	}
	m.index.advance(m, drop)
	return nil
}

// boost adds `rounds` trees fit to the current ensemble's gradient on
// (x, y), to the forest only. margins holds the ensemble's margin of every
// row and is updated as trees are added.
func (m *Model) boost(x *Matrix, y, margins []float64, rounds int) error {
	n := x.Rows()
	if n != len(y) || n != len(margins) {
		return fmt.Errorf("gbt: %d rows but %d labels and %d margins", n, len(y), len(margins))
	}
	buf := make([]float64, 2*n)
	grad, hess := buf[:n], buf[n:]
	b := newBuilder(x, m.params)
	for r := 0; r < rounds; r++ {
		m.computeGradients(margins, y, grad, hess)
		root := int32(len(m.nodes))
		m.nodes, m.gains = b.build(m.nodes, m.gains, grad, hess)
		m.roots = append(m.roots, root)
		for i := range margins {
			margins[i] += walk(m.nodes, root, x.Row(i))
		}
	}
	return nil
}

// computeGradients fills first and second order gradients of the loss at
// the current margins.
func (m *Model) computeGradients(margins, y, grad, hess []float64) {
	switch m.params.Objective {
	case LogisticBinary:
		for i, mg := range margins {
			p := sigmoid(mg)
			grad[i] = p - y[i]
			h := p * (1 - p)
			if h < 1e-16 {
				h = 1e-16
			}
			hess[i] = h
		}
	case SquaredError:
		for i, mg := range margins {
			grad[i] = mg - y[i]
			hess[i] = 1
		}
	}
}

// builder holds per-training-set state reused across rounds. For every
// feature it keeps one ordering of all rows — those with a present value
// ascending by value (ties in row order), then those where it is missing in
// row order — plus, as list number cols, the rows in row order. A tree node
// owns the same span [lo, hi) of every list: splitting a node partitions
// its span of each list stably, so the children's spans hold exactly their
// rows in the parent's relative order, and the split search below a node
// reads only that node's rows while summing gradients in the order a scan
// of the whole batch would.
type builder struct {
	x      *Matrix
	params Params
	n      int
	sorted []int32 // cols+1 lists of n rows each, as ordered at the root
	lists  []int32 // the copy the tree being grown partitions
	goLeft []bool  // per row: the side the split being applied sends it to
	spill  []int32 // partition scratch for the rows going right

	searchAll bool // tests only: search for a split even where none can pass

	// the tree being grown
	nodes      []fnode
	gains      []float64
	grad, hess []float64
}

// valueRow pairs a present feature value with its row for sorting.
type valueRow struct {
	v   float64
	row int32
}

func newBuilder(x *Matrix, p Params) *builder {
	cols, n := x.Cols(), x.Rows()
	b := &builder{
		x:      x,
		params: p,
		n:      n,
		sorted: make([]int32, 2*(cols+1)*n),
		goLeft: make([]bool, n),
		spill:  make([]int32, n),
	}
	b.sorted, b.lists = b.sorted[:(cols+1)*n], b.sorted[(cols+1)*n:]
	present := make([]valueRow, 0, n)
	for j := 0; j < cols; j++ {
		list := b.sorted[j*n : j*n : (j+1)*n]
		present = present[:0]
		for i := 0; i < n; i++ {
			if v := x.At(i, j); !IsMissing(v) {
				present = append(present, valueRow{v, int32(i)})
			}
		}
		// Rows were appended in ascending order, so ordering equal values
		// by row is the stable sort by value.
		slices.SortFunc(present, func(a, c valueRow) int {
			switch {
			case a.v < c.v:
				return -1
			case a.v > c.v:
				return 1
			}
			return int(a.row - c.row)
		})
		for _, vr := range present {
			list = append(list, vr.row)
		}
		for i := 0; i < n; i++ {
			if IsMissing(x.At(i, j)) {
				list = append(list, int32(i))
			}
		}
	}
	for i, rows := 0, b.sorted[cols*n:]; i < n; i++ {
		rows[i] = int32(i)
	}
	return b
}

// list returns the node span [lo, hi) of feature j's ordering (j == cols:
// the rows in row order).
func (b *builder) list(j, lo, hi int) []int32 { return b.lists[j*b.n+lo : j*b.n+hi] }

// split is a candidate split of one tree node.
type split struct {
	feature     int
	threshold   float64
	defaultLeft bool
	gain        float64
	valid       bool
}

// build grows one tree for the given gradient/hessian vectors at the end of
// the forest and returns the extended slices.
func (b *builder) build(nodes []fnode, gains, grad, hess []float64) ([]fnode, []float64) {
	copy(b.lists, b.sorted)
	b.nodes, b.gains, b.grad, b.hess = nodes, gains, grad, hess
	b.grow(0, b.n, 0)
	return b.nodes, b.gains
}

// grow recursively expands the node owning span [lo, hi), returning its
// index in the forest.
func (b *builder) grow(lo, hi, depth int) int {
	var gSum, hSum float64
	for _, i := range b.list(b.x.Cols(), lo, hi) {
		gSum += b.grad[i]
		hSum += b.hess[i]
	}
	idx := len(b.nodes)
	leafWeight := -gSum / (hSum + b.params.Lambda) * b.params.LearningRate
	b.nodes = append(b.nodes, fnode{value: leafWeight})
	b.gains = append(b.gains, 0)
	if depth >= b.params.MaxDepth || hi-lo < 2 {
		return idx
	}
	// Every candidate split needs hl >= MinChildWeight and hSum-hl >=
	// MinChildWeight. Below twice that, once hl passes, hSum/2 < hl, so the
	// subtraction is exact (Sterbenz) and less than MinChildWeight (and
	// negative should rounding put hl above hSum): no candidate can pass, and
	// the search is skipped.
	if hSum < 2*b.params.MinChildWeight && !b.searchAll {
		return idx
	}
	best := b.findBestSplit(lo, hi, gSum, hSum)
	if !best.valid {
		return idx
	}
	mid := lo + b.partition(lo, hi, best)
	if mid == lo || mid == hi {
		return idx
	}
	b.grow(lo, mid, depth+1)
	right := b.grow(mid, hi, depth+1)
	b.nodes[idx] = splitNode(best.threshold, int32(best.feature), best.defaultLeft, int32(right-idx))
	b.gains[idx] = best.gain
	return idx
}

// findBestSplit runs the exact greedy algorithm with sparsity-aware default
// directions: for every feature it scans the node's present values in
// ascending order once, trying both missing-direction choices at every
// boundary, and keeps the split with the highest gain.
func (b *builder) findBestSplit(lo, hi int, gTotal, hTotal float64) split {
	grad, hess := b.grad, b.hess
	lambda := b.params.Lambda
	parentScore := gTotal * gTotal / (hTotal + lambda)
	var best split

	for j := 0; j < b.x.Cols(); j++ {
		list := b.list(j, lo, hi)
		// The node's rows with a missing value for j end the list.
		present := len(list)
		for present > 0 && IsMissing(b.x.At(int(list[present-1]), j)) {
			present--
		}
		var gMiss, hMiss float64
		for _, i := range list[present:] {
			gMiss += grad[i]
			hMiss += hess[i]
		}
		// Walk present values in ascending order accumulating left sums.
		var gLeft, hLeft float64
		var prevVal float64
		for k, i := range list[:present] {
			v := b.x.At(int(i), j)
			if k > 0 && v > prevVal {
				threshold := (prevVal + v) / 2
				b.tryThreshold(&best, j, threshold, gLeft, hLeft, gMiss, hMiss, gTotal, hTotal, parentScore)
			}
			gLeft += grad[i]
			hLeft += hess[i]
			prevVal = v
		}
		// A final "everything present goes left, missing decides side"
		// split is only meaningful when missing rows exist.
		if present > 0 && (gMiss != 0 || hMiss != 0) {
			b.tryThreshold(&best, j, math.Nextafter(prevVal, math.Inf(1)), gLeft, hLeft, gMiss, hMiss, gTotal, hTotal, parentScore)
		}
	}
	return best
}

// tryThreshold evaluates a candidate threshold with both missing-value
// directions and updates best in place.
func (b *builder) tryThreshold(best *split, feature int, threshold, gLeft, hLeft, gMiss, hMiss, gTotal, hTotal, parentScore float64) {
	lambda := b.params.Lambda
	minChild := b.params.MinChildWeight
	for _, missLeft := range [2]bool{true, false} {
		gl, hl := gLeft, hLeft
		if missLeft {
			gl += gMiss
			hl += hMiss
		}
		gr := gTotal - gl
		hr := hTotal - hl
		if hl < minChild || hr < minChild {
			continue
		}
		gain := 0.5*(gl*gl/(hl+lambda)+gr*gr/(hr+lambda)-parentScore) - b.params.Gamma
		if gain <= 0 {
			continue
		}
		if !best.valid || gain > best.gain {
			*best = split{
				feature:     feature,
				threshold:   threshold,
				defaultLeft: missLeft,
				gain:        gain,
				valid:       true,
			}
		}
	}
}

// partition applies the split to the node owning span [lo, hi): every list
// is reordered so the rows going left come first, both halves in their
// previous relative order. It returns how many rows went left.
func (b *builder) partition(lo, hi int, s split) int {
	cols := b.x.Cols()
	left := 0
	for _, i := range b.list(cols, lo, hi) {
		v := b.x.At(int(i), s.feature)
		l := v < s.threshold || (s.defaultLeft && IsMissing(v))
		b.goLeft[i] = l
		if l {
			left++
		}
	}
	if left == 0 || left == hi-lo {
		return left
	}
	for j := 0; j <= cols; j++ {
		list := b.list(j, lo, hi)
		l, r := 0, 0
		for _, i := range list {
			if b.goLeft[i] {
				list[l] = i
				l++
			} else {
				b.spill[r] = i
				r++
			}
		}
		copy(list[l:], b.spill[:r])
	}
	return left
}
