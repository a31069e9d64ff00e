package gbt

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Objective selects the loss minimised by boosting.
type Objective int

const (
	// LogisticBinary is log-loss for binary classification; Predict returns
	// probabilities. This is the paper's "logistic regression for binary
	// classification" learning objective.
	LogisticBinary Objective = iota
	// SquaredError is plain regression; Predict returns raw scores.
	SquaredError
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case LogisticBinary:
		return "binary:logistic"
	case SquaredError:
		return "reg:squarederror"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Params are the boosting hyperparameters. The zero value is unusable; use
// DefaultParams or PaperParams as a starting point.
type Params struct {
	// MaxDepth bounds tree depth (the paper tunes d=20).
	MaxDepth int
	// Rounds is the number of boosting rounds per Train call (paper: r=10).
	Rounds int
	// LearningRate is the shrinkage eta applied to each tree.
	LearningRate float64
	// Lambda is the L2 regulariser on leaf weights.
	Lambda float64
	// Gamma is the minimum loss reduction required to make a split.
	Gamma float64
	// MinChildWeight is the minimum hessian sum in a child.
	MinChildWeight float64
	// Objective selects the loss.
	Objective Objective
	// BaseScore is the global prediction bias in probability space for
	// LogisticBinary (default 0.5) or output space for SquaredError.
	BaseScore float64
	// MaxTrees, when positive, caps the ensemble size under incremental
	// Update calls; the oldest trees are retired first, which bounds
	// prediction cost and gives the model a forgetting horizon.
	MaxTrees int
}

// DefaultParams returns XGBoost-like defaults.
func DefaultParams() Params {
	return Params{
		MaxDepth:       6,
		Rounds:         10,
		LearningRate:   0.3,
		Lambda:         1.0,
		Gamma:          0.0,
		MinChildWeight: 1.0,
		Objective:      LogisticBinary,
		BaseScore:      0.5,
	}
}

// PaperParams returns the hyperparameters found by the paper's grid search
// (Section 4.3): max depth 20, 10 boosting rounds, logistic objective,
// defaults elsewhere.
func PaperParams() Params {
	p := DefaultParams()
	p.MaxDepth = 20
	p.Rounds = 10
	return p
}

func (p *Params) validate() error {
	if p.MaxDepth <= 0 {
		return errors.New("gbt: MaxDepth must be positive")
	}
	if p.Rounds <= 0 {
		return errors.New("gbt: Rounds must be positive")
	}
	if p.LearningRate <= 0 || p.LearningRate > 1 {
		return errors.New("gbt: LearningRate must be in (0, 1]")
	}
	if p.Lambda < 0 || p.Gamma < 0 || p.MinChildWeight < 0 {
		return errors.New("gbt: Lambda, Gamma, MinChildWeight must be non-negative")
	}
	if p.Objective == LogisticBinary && (p.BaseScore <= 0 || p.BaseScore >= 1) {
		return errors.New("gbt: BaseScore must be in (0, 1) for the logistic objective")
	}
	return nil
}

// node is the serialised form of one tree node: children are indices into
// the tree's own node array. The model does not store trees this way (see
// fnode); this is the JSON schema and the shape the test oracle walks.
type node struct {
	Feature     int     `json:"f"`
	Threshold   float64 `json:"t"`
	DefaultLeft bool    `json:"d"`
	Left        int32   `json:"l"`
	Right       int32   `json:"r"`
	Leaf        float64 `json:"w"`
	IsLeaf      bool    `json:"leaf"`
	Gain        float64 `json:"g"`
}

// Tree is a single regression tree in serialised form, decoded from the
// model's forest by Model.tree. Leaf values already include shrinkage.
type Tree struct {
	nodes []node
}

// NumNodes returns the node count (internal + leaves).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// predict routes x down the tree; missing features follow the learned
// default direction. It is the oracle the forest walk is tested against
// and serves no prediction itself.
func (t *Tree) predict(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.IsLeaf {
			return n.Leaf
		}
		v := x[n.Feature]
		switch {
		case IsMissing(v):
			if n.DefaultLeft {
				i = n.Left
			} else {
				i = n.Right
			}
		case v < n.Threshold:
			i = n.Left
		default:
			i = n.Right
		}
	}
}

// fnode is one node of the forest, 24 bytes. Every tree is laid out in
// preorder, so a node's left child is the next node; child positions are
// stored as distances from the node itself, which lets retired trees be cut
// off the front of the forest without rewriting the rest. The distances are
// indexed by the outcome of comparing the feature value with the threshold,
// so a step is two comparisons and a table load, with no branch on the data
// to mispredict. At a leaf all three are zero and a step stays put.
type fnode struct {
	value   float64  // split threshold, or the leaf weight
	next    [3]int32 // distance to the next node, by outcome (goRight, goLeft, goMissing)
	feature int32
}

// The outcomes of comparing a feature value with a threshold.
const (
	goRight   = iota // present and not below the threshold
	goLeft           // below the threshold
	goMissing        // missing: the learned default side
)

// splitNode returns an internal node whose right child is `right` nodes
// further on.
func splitNode(threshold float64, feature int32, defaultLeft bool, right int32) fnode {
	n := fnode{value: threshold, feature: feature, next: [3]int32{goRight: right, goLeft: 1, goMissing: right}}
	if defaultLeft {
		n.next[goMissing] = 1
	}
	return n
}

// isLeaf reports whether the node is a leaf.
func (n *fnode) isLeaf() bool { return n.next[goLeft] == 0 }

// Model is a trained gradient-boosted tree ensemble, stored as one
// contiguous forest: the trees' nodes back to back in boosting order.
type Model struct {
	params     Params
	baseMargin float64
	nodes      []fnode
	gains      []float64 // split gain per node (0 at leaves); read by FeatureImportance and JSON only
	roots      []int32   // roots[k] is the index in nodes of tree k's root
	index      scorer    // the same trees by feature; what PredictMargin reads
	delta      *Delta    // Update's trees and scratch, kept between updates
}

// NumTrees returns the current ensemble size.
func (m *Model) NumTrees() int { return len(m.roots) }

// sigmoid is the logistic link.
func sigmoid(z float64) float64 { return 1.0 / (1.0 + math.Exp(-z)) }

// logit is the inverse link, clamped away from the poles.
func logit(p float64) float64 {
	const eps = 1e-9
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return math.Log(p / (1 - p))
}

// walk routes x down the tree rooted at nodes[i] and returns its leaf
// weight. A value below the threshold goes left, a missing one the learned
// default way, anything else right.
func walk(nodes []fnode, i int32, x []float64) float64 {
	for {
		n := &nodes[i]
		if n.isLeaf() {
			return n.value
		}
		i += n.step(x)
	}
}

// walk4 is walk for four trees at once. One walk is a chain of dependent
// loads (node, feature value, next node), so the four are descended in
// lockstep to keep four chains in flight; a walk that reaches its leaf early
// stays there until the others have. On wide trees that takes half the time
// of four walks (BenchmarkPredictMargin/deep).
func walk4(nodes []fnode, i0, i1, i2, i3 int32, x []float64) (v0, v1, v2, v3 float64) {
	for {
		n0, n1, n2, n3 := &nodes[i0], &nodes[i1], &nodes[i2], &nodes[i3]
		if n0.next[goLeft]|n1.next[goLeft]|n2.next[goLeft]|n3.next[goLeft] == 0 {
			return n0.value, n1.value, n2.value, n3.value
		}
		i0 += n0.step(x)
		i1 += n1.step(x)
		i2 += n2.step(x)
		i3 += n3.step(x)
	}
}

// step returns the distance from the node to the child x goes to, 0 at a
// leaf. A missing value is NaN and below nothing, so the two tests never
// both hold.
func (n *fnode) step(x []float64) int32 {
	v := x[n.feature]
	return n.next[goLeft*b2i(v < n.value)+goMissing*b2i(v != v)]
}

// b2i is 1 for true; the compiler turns it into a flag read, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// PredictMargin returns the raw additive score for a feature vector: the
// base margin plus every tree's leaf, added one tree after the other in
// boosting order. It only reads the model, so any number of goroutines may
// predict on one model at once, and it allocates nothing up to 256 trees.
func (m *Model) PredictMargin(x []float64) float64 {
	if ix := &m.index; ix.walked < len(m.roots) && len(x) >= ix.width {
		return ix.score(m, x)
	}
	// No tree is indexed (the offline experiments' deep models), or the row
	// lacks a feature the index would read on a branch x may never take (a
	// loaded model can name any): every tree is walked.
	margin := m.baseMargin
	nodes, roots := m.nodes, m.roots
	for ; len(roots) >= 4; roots = roots[4:] {
		v0, v1, v2, v3 := walk4(nodes, roots[0], roots[1], roots[2], roots[3], x)
		margin += v0
		margin += v1
		margin += v2
		margin += v3
	}
	for _, root := range roots {
		margin += walk(nodes, root, x)
	}
	return margin
}

// PredictMarginBatch writes PredictMargin of every row of x into out, which
// must hold x.Rows() values. The bits are PredictMargin's; from
// minBatchRows rows on, the index is read once per block of rows instead of
// once per row (scorer.scoreBatch). Like PredictMargin it only reads the
// model.
func (m *Model) PredictMarginBatch(x *Matrix, out []float64) {
	out = out[:x.Rows()]
	if ix := &m.index; ix.walked < len(m.roots) && x.Cols() >= ix.width && len(out) >= minBatchRows {
		ix.scoreBatch(m, x, out)
		return
	}
	for i := range out {
		out[i] = m.PredictMargin(x.Row(i))
	}
}

// Link maps a margin to the model's output space: Predict(x) is
// Link(PredictMargin(x)).
func (m *Model) Link(margin float64) float64 {
	if m.params.Objective == LogisticBinary {
		return sigmoid(margin)
	}
	return margin
}

// Predict returns the probability (LogisticBinary) or score (SquaredError)
// for a feature vector.
func (m *Model) Predict(x []float64) float64 { return m.Link(m.PredictMargin(x)) }

// PredictBatch writes Predict of every row of x into out, which must hold
// x.Rows() values.
func (m *Model) PredictBatch(x *Matrix, out []float64) {
	out = out[:x.Rows()]
	m.PredictMarginBatch(x, out)
	for i, margin := range out {
		out[i] = m.Link(margin)
	}
}

// FeatureImportance returns total split gain per feature, normalised to sum
// to 1 (all zeros when the ensemble has no splits).
func (m *Model) FeatureImportance(numFeatures int) []float64 {
	imp := make([]float64, numFeatures)
	var total float64
	for i := range m.nodes {
		n := &m.nodes[i]
		if !n.isLeaf() && int(n.feature) < numFeatures {
			imp[n.feature] += m.gains[i]
			total += m.gains[i]
		}
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// ApproxMemoryBytes returns the in-memory size of the stored ensemble, the
// forest and the scoring index resident beside it (Section 7.7 reports
// ~200 KB for the paper's models).
func (m *Model) ApproxMemoryBytes() int {
	return len(m.nodes)*int(unsafe.Sizeof(fnode{})+unsafe.Sizeof(float64(0))) +
		len(m.roots)*int(unsafe.Sizeof(int32(0))) + m.index.memoryBytes()
}

// retire drops the `drop` oldest trees from the forest, sliding the rest down
// in place. The index follows in Commit.
func (m *Model) retire(drop int) {
	cut := m.roots[drop]
	m.nodes = m.nodes[:copy(m.nodes, m.nodes[cut:])]
	m.gains = m.gains[:copy(m.gains, m.gains[cut:])]
	m.roots = m.roots[:copy(m.roots, m.roots[drop:])]
	for k := range m.roots {
		m.roots[k] -= cut
	}
}

// treeNodes returns tree k's nodes, in preorder.
func (m *Model) treeNodes(k int) []fnode {
	if k+1 < len(m.roots) {
		return m.nodes[m.roots[k]:m.roots[k+1]]
	}
	return m.nodes[m.roots[k]:]
}

// tree decodes tree k into its serialised form.
func (m *Model) tree(k int) *Tree {
	lo, src := int(m.roots[k]), m.treeNodes(k)
	nodes := make([]node, len(src))
	for i := range nodes {
		n := &src[i]
		if n.isLeaf() {
			nodes[i] = node{IsLeaf: true, Leaf: n.value, Left: -1, Right: -1}
			continue
		}
		nodes[i] = node{
			Feature:     int(n.feature),
			Threshold:   n.value,
			DefaultLeft: n.next[goMissing] == n.next[goLeft],
			Left:        int32(i) + n.next[goLeft],
			Right:       int32(i) + n.next[goRight],
			Gain:        m.gains[lo+i],
		}
	}
	return &Tree{nodes: nodes}
}

// appendTree lays a serialised tree out in preorder at the end of the
// forest. The input comes from outside the program: child indices out of
// range, a feature index the forest cannot hold, and node graphs that are
// not trees are errors. Nodes the root does not reach are dropped.
func (m *Model) appendTree(src []node) error {
	if len(src) == 0 {
		return errors.New("gbt: tree without nodes")
	}
	root := len(m.nodes)
	var emit func(i int32) error
	emit = func(i int32) error {
		if i < 0 || int(i) >= len(src) {
			return fmt.Errorf("gbt: child index %d outside a tree of %d nodes", i, len(src))
		}
		if len(m.nodes)-root >= len(src) {
			return errors.New("gbt: tree nodes form a cycle or share a child")
		}
		s := &src[i]
		at := len(m.nodes)
		if s.IsLeaf {
			m.nodes = append(m.nodes, fnode{value: s.Leaf})
			m.gains = append(m.gains, 0)
			return nil
		}
		if s.Feature < 0 || s.Feature > math.MaxInt32 {
			return fmt.Errorf("gbt: feature index %d outside [0, %d]", s.Feature, math.MaxInt32)
		}
		m.nodes = append(m.nodes, fnode{})
		m.gains = append(m.gains, s.Gain)
		if err := emit(s.Left); err != nil {
			return err
		}
		m.nodes[at] = splitNode(s.Threshold, int32(s.Feature), s.DefaultLeft, int32(len(m.nodes)-at))
		return emit(s.Right)
	}
	if err := emit(0); err != nil {
		return err
	}
	m.roots = append(m.roots, int32(root))
	return nil
}

// modelJSON is the serialised form of a Model.
type modelJSON struct {
	Params     Params   `json:"params"`
	BaseMargin float64  `json:"base_margin"`
	Trees      [][]node `json:"trees"`
}

// MarshalJSON implements json.Marshaler.
func (m *Model) MarshalJSON() ([]byte, error) {
	mj := modelJSON{Params: m.params, BaseMargin: m.baseMargin}
	for k := range m.roots {
		mj.Trees = append(mj.Trees, m.tree(k).nodes)
	}
	return json.Marshal(mj)
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Model) UnmarshalJSON(data []byte) error {
	var mj modelJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		return err
	}
	loaded := Model{params: mj.Params, baseMargin: mj.BaseMargin}
	for _, nodes := range mj.Trees {
		if err := loaded.appendTree(nodes); err != nil {
			return err
		}
	}
	loaded.index.advance(&loaded, 0)
	*m = loaded
	return nil
}
