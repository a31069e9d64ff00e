package gbt

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// treeWithLeaves draws a serialised tree with exactly the given number of
// leaves, right subtrees written first so the layout is not preorder.
// Thresholds come from the awkward set so rows hit them exactly; unless
// finite is set that includes the infinities and NaN, which the builder can
// produce (the midpoint of two infinities) and JSON cannot carry.
func treeWithLeaves(rng *rand.Rand, cols, leaves int, finite bool) []node {
	var nodes []node
	var grow func(leaves int) int32
	grow = func(leaves int) int32 {
		at := int32(len(nodes))
		if leaves == 1 {
			nodes = append(nodes, node{IsLeaf: true, Leaf: rng.NormFloat64(), Left: -1, Right: -1})
			return at
		}
		thr := awkward[rng.Intn(len(awkward))]
		for finite && (math.IsNaN(thr) || math.IsInf(thr, 0)) {
			thr = awkward[rng.Intn(len(awkward))]
		}
		nodes = append(nodes, node{})
		n := node{Feature: rng.Intn(cols), Threshold: thr, DefaultLeft: rng.Intn(2) == 0, Gain: rng.Float64()}
		left := 1 + rng.Intn(leaves-1)
		n.Right = grow(leaves - left)
		n.Left = grow(left)
		nodes[at] = n
		return at
	}
	grow(leaves)
	return nodes
}

// forestOf loads the given trees into a model the way UnmarshalJSON does,
// without the trip through JSON.
func forestOf(t *testing.T, base float64, trees [][]node) *Model {
	t.Helper()
	m := &Model{params: DefaultParams(), baseMargin: base}
	for _, nodes := range trees {
		if err := m.appendTree(nodes); err != nil {
			t.Fatal(err)
		}
	}
	m.index.advance(m, 0)
	return m
}

func oracleOf(trees [][]node) []*Tree {
	out := make([]*Tree, len(trees))
	for k, nodes := range trees {
		out[k] = &Tree{nodes: nodes}
	}
	return out
}

// requireIndexed checks which trees of the model the index took.
func requireIndexed(t *testing.T, m *Model, leaves []int) {
	t.Helper()
	walked := 0
	for k, n := range leaves {
		if got, want := m.index.off[k] >= 0, n <= maxIndexedLeaves; got != want {
			t.Fatalf("tree %d with %d leaves: indexed = %v", k, n, got)
		}
		if n > maxIndexedLeaves {
			walked++
		}
	}
	if m.index.walked != walked {
		t.Fatalf("index counts %d walked trees, forest has %d", m.index.walked, walked)
	}
}

// TestScorerAtTheWordBoundary: a tree of exactly 64 leaves is scored through
// the index, one of 65 is walked, and either way every row gets the oracle's
// bits, in forests of one such tree and in forests that mix indexed and
// walked trees in every grouping the lockstep walk can meet. The forests
// are checked again after their oldest trees are retired.
func TestScorerAtTheWordBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const cols = 5
	shapes := [][]int{
		{64}, {65}, {1}, {2}, {63, 64, 65, 66},
		{65, 3, 65, 65, 64, 65, 65, 65, 65, 65, 1, 130, 65},
		{65, 65, 65, 65, 65, 65, 65, 65, 65},
	}
	for trial := 0; trial < 40; trial++ {
		var leaves []int
		for n := 1 + rng.Intn(14); n > 0; n-- {
			leaves = append(leaves, []int{1, 2, 7, 40, 64, 65, 90}[rng.Intn(7)])
		}
		shapes = append(shapes, leaves)
	}
	for _, leaves := range shapes {
		var trees [][]node
		for _, n := range leaves {
			trees = append(trees, treeWithLeaves(rng, cols, n, false))
		}
		m := forestOf(t, rng.NormFloat64(), trees)
		requireIndexed(t, m, leaves)
		checkForest(t, rng, m, oracleOf(trees), cols)
		for len(trees) > 1 {
			drop := 1 + rng.Intn(len(trees)-1)
			m.retire(drop)
			m.index.advance(m, drop)
			trees, leaves = trees[drop:], leaves[drop:]
			requireIndexed(t, m, leaves)
			checkForest(t, rng, m, oracleOf(trees), cols)
		}
	}
}

// TestScorerSurvivesJSON: a mixed forest written out and read back scores
// the bits the trees as first written do.
func TestScorerSurvivesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	const cols = 4
	leaves := []int{64, 65, 12, 100, 65, 65, 65, 1, 64}
	var trees [][]node
	for _, n := range leaves {
		trees = append(trees, treeWithLeaves(rng, cols, n, true))
	}
	blob, err := json.Marshal(forestOf(t, 0.25, trees))
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	requireIndexed(t, &back, leaves)
	checkForest(t, rng, &back, oracleOf(trees), cols)
}

// sameBits is equality of representation: a NaN equals itself, the two zeros
// differ.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameIndex compares two indexes field by field; thresholds and leaf
// weights by their bits, so a NaN equals itself.
func requireSameIndex(t *testing.T, when string, got, want *scorer) {
	t.Helper()
	sameNode := func(a, b qnode) bool {
		return sameBits(a.thr, b.thr) && a.mask == b.mask && a.tree == b.tree && a.key == b.key
	}
	switch {
	case !slices.EqualFunc(got.nodes, want.nodes, sameNode):
		t.Fatalf("%s: maintained index nodes differ from a rebuild (%d vs %d)", when, len(got.nodes), len(want.nodes))
	case !slices.Equal(got.spans, want.spans):
		t.Fatalf("%s: spans %v, rebuild %v", when, got.spans, want.spans)
	case !slices.EqualFunc(got.leaves, want.leaves, sameBits):
		t.Fatalf("%s: leaf tables differ (%d vs %d leaves)", when, len(got.leaves), len(want.leaves))
	case !slices.Equal(got.off, want.off):
		t.Fatalf("%s: leaf offsets %v, rebuild %v", when, got.off, want.off)
	case got.walked != want.walked:
		t.Fatalf("%s: %d walked trees, rebuild %d", when, got.walked, want.walked)
	}
}

// TestIndexMaintainedAcrossUpdates: after each of 100 updates of a bounded
// ensemble, the index Update kept by dropping, renumbering and merging equals
// one built from the forest from scratch. The batches are large enough that
// some trees are too wide to index, and the rounds sometimes exceed MaxTrees,
// so an update can retire trees it has just added.
func TestIndexMaintainedAcrossUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	p := PaperParams()
	p.MaxTrees = 24
	p.MinChildWeight = 0.2
	x, y := goldenBatch(rng, 600)
	m, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	sawWalked, sawIndexed, sawMerge := false, false, false
	for u := 0; u < 100; u++ {
		rows, rounds := 60+rng.Intn(700), 1+rng.Intn(5)
		if u%25 == 24 {
			rounds = p.MaxTrees + 3
		}
		x, y = goldenBatch(rng, rows)
		before := len(m.index.nodes)
		if err := m.Update(x, y, rounds); err != nil {
			t.Fatal(err)
		}
		var rebuilt scorer
		rebuilt.advance(m, 0)
		requireSameIndex(t, fmt.Sprint("update ", u), &m.index, &rebuilt)
		sawWalked = sawWalked || m.index.walked > 0
		sawIndexed = sawIndexed || m.index.walked < m.NumTrees()
		sawMerge = sawMerge || (before > 0 && rounds < p.MaxTrees && len(m.index.nodes) > 0)
		if len(m.index.off) != m.NumTrees() || m.NumTrees() > p.MaxTrees {
			t.Fatalf("update %d: index knows %d trees, model has %d (bound %d)", u, len(m.index.off), m.NumTrees(), p.MaxTrees)
		}
	}
	if !sawWalked || !sawIndexed || !sawMerge {
		t.Fatalf("the stream never produced a walked tree (%v), an indexed one (%v) or a merge (%v)", sawWalked, sawIndexed, sawMerge)
	}
	checkForest(t, rng, m, oracleTrees(m), 15)
}

// manyStumps is a forest of n trees of one to three leaves.
func manyStumps(t *testing.T, rng *rand.Rand, cols, n int) (*Model, []*Tree) {
	var trees [][]node
	for k := 0; k < n; k++ {
		trees = append(trees, treeWithLeaves(rng, cols, 1+rng.Intn(3), false))
	}
	return forestOf(t, 0, trees), oracleOf(trees)
}

// TestPredictMarginAllocatesNothing: up to 256 trees the per-tree words are
// on the stack, on the indexed forest and on the walked one; beyond that the
// prediction allocates them and is still the oracle's.
func TestPredictMarginAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const cols = 6
	row := make([]float64, cols)
	randomRow(rng, row)
	at256, trees256 := manyStumps(t, rng, cols, 256)
	deep, _ := deepModel(t)
	for name, m := range map[string]*Model{"256 trees": at256, "walked trees": deep} {
		x := row
		if m == deep {
			x = make([]float64, benchCols)
		}
		if allocs := testing.AllocsPerRun(100, func() { benchSink += m.PredictMargin(x) }); allocs != 0 {
			t.Errorf("%s: PredictMargin makes %v allocations", name, allocs)
		}
	}
	checkForest(t, rng, at256, trees256, cols)
	past, treesPast := manyStumps(t, rng, cols, 300)
	checkForest(t, rng, past, treesPast, cols)
}

// TestPredictMarginConcurrently has eight goroutines predict on one model;
// PredictMargin only reads it, which the race detector checks.
func TestPredictMarginConcurrently(t *testing.T) {
	m, x, _ := benchModel(t)
	want := make([]float64, x.Rows())
	m.PredictMarginBatch(x, want)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*x.Rows(); i++ {
				r := (i + g*25) % x.Rows()
				if got := m.PredictMargin(x.Row(r)); math.Float64bits(got) != math.Float64bits(want[r]) {
					t.Errorf("goroutine %d row %d: %v, want %v", g, r, got, want[r])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// requireBatchBits scores x through PredictMarginBatch and, when the forest
// has an indexed tree, through the batch kernel itself, which
// PredictMarginBatch leaves to PredictMargin below minBatchRows, and requires
// every row to get PredictMargin's bits.
func requireBatchBits(t *testing.T, when string, m *Model, x *Matrix) {
	t.Helper()
	out := make([]float64, x.Rows())
	ways := map[string]func(){"PredictMarginBatch": func() { m.PredictMarginBatch(x, out) }}
	if m.index.walked < m.NumTrees() {
		ways["scoreBatch"] = func() { m.index.scoreBatch(m, x, out) }
	}
	for name, score := range ways {
		clear(out)
		score()
		for i := range out {
			if want := m.PredictMargin(x.Row(i)); !sameBits(out[i], want) {
				t.Fatalf("%s: %s row %d of %d (%v) = %v, PredictMargin %v", when, name, i, x.Rows(), x.Row(i), out[i], want)
			}
		}
	}
}

// batchOf draws n rows from pool, every seventh with every feature missing.
func batchOf(rng *rand.Rand, pool *Matrix, n int) *Matrix {
	x := NewMatrix(pool.Cols())
	missing := make([]float64, pool.Cols())
	for j := range missing {
		missing[j] = Missing
	}
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			x.AppendRow(missing)
		} else {
			x.AppendRow(pool.Row(rng.Intn(pool.Rows())))
		}
	}
	return x
}

// TestPredictMarginBatchMatchesPredictMargin: a batch gives every row the
// bits PredictMargin does, on the trace_xgb forest, the deep one and the
// mixed one, at batch sizes on both sides of a row word and of a pass, on rows
// with every feature missing, and on the trace_xgb forest after each of 50
// updates that retire its oldest trees.
func TestPredictMarginBatchMatchesPredictMargin(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	trace, traceRows, _ := benchModel(t)
	deep, deepRows := deepModel(t)
	blob, err := json.Marshal(deep)
	if err != nil {
		t.Fatal(err)
	}
	mixed, mixedRows := new(Model), deepRows
	if err := json.Unmarshal(blob, mixed); err != nil {
		t.Fatal(err)
	}
	mixOn(t, mixed, mixedRows)
	sizes := []int{1, 63, 64, 65, 200, 300}
	for _, c := range []struct {
		name string
		m    *Model
		pool *Matrix
	}{{"trace", trace, traceRows}, {"deep", deep, deepRows}, {"mixed", mixed, mixedRows}} {
		for _, n := range sizes {
			requireBatchBits(t, fmt.Sprintf("%s, %d rows", c.name, n), c.m, batchOf(rng, c.pool, n))
		}
	}
	for u := 0; u < 50; u++ {
		x, y := sparseBatch(rng, benchBatch)
		if err := trace.Update(x, y, 3); err != nil {
			t.Fatal(err)
		}
		if trace.NumTrees() != benchTrees {
			t.Fatalf("update %d: %d trees, want the bound %d", u, trace.NumTrees(), benchTrees)
		}
		requireBatchBits(t, fmt.Sprintf("update %d, %d rows", u, sizes[u%len(sizes)]), trace, batchOf(rng, x, sizes[u%len(sizes)]))
	}
}

// TestPredictMarginBatchAllocatesNothing: the batch kernel's scratch is
// recycled, so a steady stream of batches allocates nothing.
func TestPredictMarginBatchAllocatesNothing(t *testing.T) {
	m, x, _ := benchModel(t)
	out := make([]float64, x.Rows())
	if allocs := testing.AllocsPerRun(50, func() { m.PredictMarginBatch(x, out) }); allocs != 0 {
		t.Errorf("PredictMarginBatch of %d rows makes %v allocations", x.Rows(), allocs)
	}
}

// TestPredictMarginBatchConcurrently has eight goroutines score batches on one
// model; each gets the bits PredictMargin does, and the race detector checks
// that the kernel's scratch is not shared.
func TestPredictMarginBatchConcurrently(t *testing.T) {
	m, x, _ := benchModel(t)
	want := make([]float64, x.Rows())
	for i := range want {
		want[i] = m.PredictMargin(x.Row(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]float64, x.Rows())
			for round := 0; round < 20; round++ {
				m.PredictMarginBatch(x, out)
				for i := range out {
					if !sameBits(out[i], want[i]) {
						t.Errorf("goroutine %d round %d row %d: %v, want %v", g, round, i, out[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
