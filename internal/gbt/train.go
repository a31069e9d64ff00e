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
	// The delta is not kept: a model trained once on a large set would
	// carry that set's scratch for good.
	d := new(Delta)
	if err := m.grow(d, x, y, m.margins(x), p.Rounds); err != nil {
		return nil, err
	}
	m.appendTrees(d)
	m.index.advance(m, 0)
	return m, nil
}

// Update continues boosting the existing ensemble for `rounds` rounds using
// a new batch, implementing the paper's incremental learning: the model is
// refined with data points as they become available, adapting to workload
// change without a fixed training window (Section 4.2).
func (m *Model) Update(x *Matrix, y []float64, rounds int) error {
	d := m.updates()
	d.margins = resize(d.margins, x.Rows())
	m.PredictMarginBatch(x, d.margins)
	return m.UpdateFrom(x, y, d.margins, rounds)
}

// margins returns the model's PredictMargin of every row of x.
func (m *Model) margins(x *Matrix) []float64 {
	out := make([]float64, x.Rows())
	m.PredictMarginBatch(x, out)
	return out
}

// updates returns the delta the model's own updates share. It is scratch,
// not part of the model: ApproxMemoryBytes and JSON leave it out.
func (m *Model) updates() *Delta {
	if m.delta == nil {
		m.delta = new(Delta)
	}
	return m.delta
}

// UpdateFrom is Update for a caller that already holds the model's current
// PredictMargin of every row of x, which spares the pass over the forest
// that computes them: Grow into the model's own delta, then Commit. margins
// is overwritten. Once the model has seen a few batches of a size, an update
// allocates nothing.
func (m *Model) UpdateFrom(x *Matrix, y, margins []float64, rounds int) error {
	d := m.updates()
	if err := m.Grow(d, x, y, margins, rounds); err != nil {
		return err
	}
	m.Commit(d)
	return nil
}

// Delta is the trees one update adds to a model, held apart from it: Grow
// fills it and only reads the model, so the model keeps serving predictions
// while an update grows, and Commit appends it. A Delta keeps its storage and
// the tree builder's scratch from one update to the next.
type Delta struct {
	b       builder
	nodes   []fnode   // the trees back to back, children as relative distances
	gains   []float64 // per node, as Model.gains
	roots   []int32   // tree k's root in nodes
	margins []float64 // Update's starting margins
}

// clear drops the trees, keeping their storage.
func (d *Delta) clear() { d.nodes, d.gains, d.roots = d.nodes[:0], d.gains[:0], d.roots[:0] }

// Grow boosts `rounds` trees (the model's Rounds when not positive) on
// (x, y) from the model's current PredictMargin of every row, given in
// margins, and leaves them in d in place of whatever it held. margins is
// overwritten. Grow only reads the model: any number of goroutines may
// predict on it meanwhile, but nothing may change it until d is committed
// or dropped.
func (m *Model) Grow(d *Delta, x *Matrix, y, margins []float64, rounds int) error {
	d.clear()
	if rounds <= 0 {
		rounds = m.params.Rounds
	}
	if x.Rows() == 0 {
		return errors.New("gbt: empty update batch")
	}
	return m.grow(d, x, y, margins, rounds)
}

// Commit appends the trees Grow left in d to the model, retires the oldest
// past MaxTrees and brings the scoring index up to the forest. The model must
// not have changed since Grow read it. d is left empty, so a second Commit
// adds nothing.
func (m *Model) Commit(d *Delta) {
	if len(d.roots) == 0 {
		return
	}
	m.appendTrees(d)
	d.clear()
	drop := 0
	if m.params.MaxTrees > 0 && m.NumTrees() > m.params.MaxTrees {
		// Retire the oldest trees. This is an approximation (later trees
		// were fit against their residuals) but gives the ensemble a
		// bounded size and a forgetting horizon for workload shifts.
		drop = m.NumTrees() - m.params.MaxTrees
		m.retire(drop)
	}
	m.index.advance(m, drop)
}

// appendTrees lays d's trees out at the end of the forest. Children are
// relative, so the nodes go over as they are and only the roots move.
func (m *Model) appendTrees(d *Delta) {
	base := int32(len(m.nodes))
	m.nodes = append(m.nodes, d.nodes...)
	m.gains = append(m.gains, d.gains...)
	for _, r := range d.roots {
		m.roots = append(m.roots, base+r)
	}
}

// grow adds `rounds` trees fit to the ensemble's gradient on (x, y) to d,
// the ensemble being the model followed by the trees d already holds.
// margins holds that ensemble's margin of every row and is updated as trees
// are added.
func (m *Model) grow(d *Delta, x *Matrix, y, margins []float64, rounds int) error {
	n := x.Rows()
	if n != len(y) || n != len(margins) {
		return fmt.Errorf("gbt: %d rows but %d labels and %d margins", n, len(y), len(margins))
	}
	b := &d.b
	b.reset(x, m.params)
	defer b.release()
	b.gradBuf = resize(b.gradBuf, 2*n)
	grad, hess := b.gradBuf[:n], b.gradBuf[n:]
	for r := 0; r < rounds; r++ {
		m.computeGradients(margins, y, grad, hess)
		root := int32(len(d.nodes))
		d.nodes, d.gains = b.build(d.nodes, d.gains, grad, hess)
		d.roots = append(d.roots, root)
		for i := range margins {
			margins[i] += walk(d.nodes, root, x.Row(i))
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

// builder grows the trees of one boosting call. For every feature it keeps
// one ordering of the rows where that feature is present, ascending by value
// (ties in row order), and, as list number cols, every row in row order. A
// tree node owns one span of each list: splitting a node partitions each of
// its spans stably, so the children's spans hold exactly their rows in the
// parent's relative order, and the split search below a node reads only that
// node's rows while summing gradients in the order a scan of the whole batch
// would. A row is in no list of a feature it lacks, so a node's rows missing
// a feature are summed in one pass over its row-order span, and a feature
// with no present value in the node is neither searched nor partitioned
// there: on trace_xgb's batches that is most features of most nodes.
//
// A builder is reused from call to call; reset keeps its storage.
type builder struct {
	x      *Matrix
	params Params
	start  []int   // list L is [start[L], start[L+1]) of sorted and of lists
	sorted []int32 // the lists as ordered at the root
	lists  []int32 // the copy the tree being grown partitions
	spans  []int32 // per depth, the span [lo, hi) of every list of the node grown at that depth
	goLeft []bool  // per row: the side the split being applied sends it to
	spill  []int32 // partition scratch for the rows going right

	gMiss, hMiss []float64  // per feature: the sums over the searched node's rows missing it
	present      []valueRow // reset's sort scratch
	gradBuf      []float64  // grow's gradients and hessians

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

// resize returns s with length n, reusing its storage when it is large
// enough; the contents are not kept.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

func newBuilder(x *Matrix, p Params) *builder {
	b := new(builder)
	b.reset(x, p)
	return b
}

// reset prepares the builder for the rows of x.
func (b *builder) reset(x *Matrix, p Params) {
	cols, n := x.Cols(), x.Rows()
	b.x, b.params = x, p
	b.sorted, b.start = b.sorted[:0], append(b.start[:0], 0)
	for j := 0; j < cols; j++ {
		present := b.present[:0]
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
			b.sorted = append(b.sorted, vr.row)
		}
		b.present = present
		b.start = append(b.start, len(b.sorted))
	}
	for i := 0; i < n; i++ {
		b.sorted = append(b.sorted, int32(i))
	}
	b.start = append(b.start, len(b.sorted))
	b.lists = resize(b.lists, len(b.sorted))
	// A split leaves rows on both sides, so no node lies deeper than n-1.
	b.spans = resize(b.spans, (min(p.MaxDepth, n)+1)*2*(cols+1))
	b.goLeft = resize(b.goLeft, n)
	b.spill = resize(b.spill, n)
	b.gMiss, b.hMiss = resize(b.gMiss, cols), resize(b.hMiss, cols)
}

// release drops the builder's references to the batch and the forest, so a
// kept builder holds neither alive.
func (b *builder) release() { b.x, b.nodes, b.gains = nil, nil, nil }

// frame returns the spans of the node being grown at the given depth: list
// L's is [frame[2L], frame[2L+1]), relative to the list's start.
func (b *builder) frame(depth int) []int32 {
	w := 2 * (b.x.Cols() + 1)
	return b.spans[depth*w : (depth+1)*w]
}

// list returns list L's part of a node's frame.
func (b *builder) list(frame []int32, l int) []int32 {
	at := b.start[l]
	return b.lists[at+int(frame[2*l]) : at+int(frame[2*l+1])]
}

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
	root := b.frame(0)
	for l := 0; l+1 < len(b.start); l++ {
		root[2*l], root[2*l+1] = 0, int32(b.start[l+1]-b.start[l])
	}
	b.nodes, b.gains, b.grad, b.hess = nodes, gains, grad, hess
	b.grow(0)
	return b.nodes, b.gains
}

// grow recursively expands the node whose spans are frame(depth), returning
// its index in the forest.
func (b *builder) grow(depth int) int {
	cols := b.x.Cols()
	f := b.frame(depth)
	rows := b.list(f, cols)
	var gSum, hSum float64
	for _, i := range rows {
		gSum += b.grad[i]
		hSum += b.hess[i]
	}
	idx := len(b.nodes)
	leafWeight := -gSum / (hSum + b.params.Lambda) * b.params.LearningRate
	b.nodes = append(b.nodes, fnode{value: leafWeight})
	b.gains = append(b.gains, 0)
	if depth >= b.params.MaxDepth || len(rows) < 2 {
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
	best := b.findBestSplit(f, gSum, hSum)
	if !best.valid {
		return idx
	}
	child := b.frame(depth + 1)
	if left := b.partition(f, child, best); left == 0 || left == len(rows) {
		return idx
	}
	b.grow(depth + 1)
	// The left child's spans end where the right child's begin.
	for l := 0; l < len(f); l += 2 {
		child[l], child[l+1] = child[l+1], f[l+1]
	}
	right := b.grow(depth + 1)
	b.nodes[idx] = splitNode(best.threshold, int32(best.feature), best.defaultLeft, int32(right-idx))
	b.gains[idx] = best.gain
	return idx
}

// findBestSplit runs the exact greedy algorithm with sparsity-aware default
// directions on the node whose spans are f: for every feature it scans the
// node's present values in ascending order once, trying both
// missing-direction choices at every boundary, and keeps the split with the
// highest gain.
func (b *builder) findBestSplit(f []int32, gTotal, hTotal float64) split {
	grad, hess := b.grad, b.hess
	lambda := b.params.Lambda
	parentScore := gTotal * gTotal / (hTotal + lambda)
	var best split

	// The node's rows missing a feature, summed in row order, which is the
	// order they would follow its present rows in a list of all rows.
	gMiss, hMiss := b.gMiss, b.hMiss
	clear(gMiss)
	clear(hMiss)
	for _, i := range b.list(f, b.x.Cols()) {
		g, h := grad[i], hess[i]
		for j, v := range b.x.Row(int(i)) {
			if IsMissing(v) {
				gMiss[j] += g
				hMiss[j] += h
			}
		}
	}
	for j := range gMiss {
		// Walk present values in ascending order accumulating left sums. A
		// feature with none offers no threshold.
		var gLeft, hLeft float64
		var prevVal float64
		list := b.list(f, j)
		for k, i := range list {
			v := b.x.At(int(i), j)
			if k > 0 && v > prevVal {
				threshold := (prevVal + v) / 2
				b.tryThreshold(&best, j, threshold, gLeft, hLeft, gMiss[j], hMiss[j], gTotal, hTotal, parentScore)
			}
			gLeft += grad[i]
			hLeft += hess[i]
			prevVal = v
		}
		// A final "everything present goes left, missing decides side"
		// split is only meaningful when missing rows exist.
		if len(list) > 0 && (gMiss[j] != 0 || hMiss[j] != 0) {
			b.tryThreshold(&best, j, math.Nextafter(prevVal, math.Inf(1)), gLeft, hLeft, gMiss[j], hMiss[j], gTotal, hTotal, parentScore)
		}
	}
	return best
}

// tryThreshold evaluates a candidate threshold with both missing-value
// directions and updates best in place. With nothing missing the two give one
// gain and the strict comparison keeps the first, so only that one is tried.
func (b *builder) tryThreshold(best *split, feature int, threshold, gLeft, hLeft, gMiss, hMiss, gTotal, hTotal, parentScore float64) {
	lambda := b.params.Lambda
	minChild := b.params.MinChildWeight
	dirs := []bool{true, false}
	if gMiss == 0 && hMiss == 0 {
		dirs = dirs[:1]
	}
	for _, missLeft := range dirs {
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

// partition applies the split to the node whose spans are f: every list's
// span is reordered so the rows going left come first, both halves in their
// previous relative order, and child receives the left halves. It returns how
// many rows went left; when that is none or all, nothing is reordered.
func (b *builder) partition(f, child []int32, s split) int {
	cols := b.x.Cols()
	rows := b.list(f, cols)
	left := 0
	for _, i := range rows {
		v := b.x.At(int(i), s.feature)
		l := v < s.threshold || (s.defaultLeft && IsMissing(v))
		b.goLeft[i] = l
		if l {
			left++
		}
	}
	if left == 0 || left == len(rows) {
		return left
	}
	for j := 0; j <= cols; j++ {
		list := b.list(f, j)
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
		child[2*j], child[2*j+1] = f[2*j], f[2*j]+int32(l)
	}
	return left
}
