package gbt

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// predictMarginLinear is the prediction as it was before the forest: the
// base margin plus every tree's leaf in boosting order, each tree a node
// array of its own walked by Tree.predict. The forest walk must return the
// same bits.
func predictMarginLinear(base float64, trees []*Tree, x []float64) float64 {
	margin := base
	for _, t := range trees {
		margin += t.predict(x)
	}
	return margin
}

// oracleTrees decodes the model's trees for predictMarginLinear.
func oracleTrees(m *Model) []*Tree {
	trees := make([]*Tree, m.NumTrees())
	for k := range trees {
		trees[k] = m.tree(k)
	}
	return trees
}

// awkward are the feature and threshold values where a comparison can go
// wrong: missing, the infinities, zeros of both signs, neighbours of a
// value.
var awkward = []float64{
	Missing, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	0.5, math.Nextafter(0.5, 1), math.Nextafter(0.5, 0), -1, 1, math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// randomTree draws a tree of serialised nodes the way a foreign writer
// might lay it out: children anywhere in the array, not in preorder, with
// unreachable filler nodes in between. Thresholds are finite (JSON cannot
// carry the others) and drawn from a small set so rows hit them exactly.
func randomTree(rng *rand.Rand, cols, maxDepth int) []node {
	var nodes []node
	finite := func() float64 {
		for {
			if v := awkward[rng.Intn(len(awkward))]; !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	}
	var grow func(depth int) int32
	grow = func(depth int) int32 {
		for rng.Intn(4) == 0 {
			nodes = append(nodes, node{IsLeaf: true, Leaf: 99, Left: -1, Right: -1}) // unreachable
		}
		at := int32(len(nodes))
		nodes = append(nodes, node{})
		if depth >= maxDepth || rng.Intn(3) == 0 {
			nodes[at] = node{IsLeaf: true, Leaf: rng.NormFloat64(), Left: -1, Right: -1}
			return at
		}
		n := node{Feature: rng.Intn(cols), Threshold: finite(), DefaultLeft: rng.Intn(2) == 0, Gain: rng.Float64()}
		if rng.Intn(2) == 0 { // right subtree first: the layout is not preorder
			n.Right = grow(depth + 1)
			n.Left = grow(depth + 1)
		} else {
			n.Left = grow(depth + 1)
			n.Right = grow(depth + 1)
		}
		nodes[at] = n
		return at
	}
	// The root must be node 0.
	nodes = append(nodes, node{})
	n := node{Feature: rng.Intn(cols), Threshold: finite(), DefaultLeft: rng.Intn(2) == 0, Gain: rng.Float64()}
	n.Left = grow(1)
	n.Right = grow(1)
	nodes[0] = n
	return nodes
}

// randomRow draws a feature vector: awkward values, ordinary ones, and now
// and then a row with every feature missing.
func randomRow(rng *rand.Rand, row []float64) {
	allMissing := rng.Intn(10) == 0
	for j := range row {
		switch {
		case allMissing:
			row[j] = Missing
		case rng.Intn(2) == 0:
			row[j] = awkward[rng.Intn(len(awkward))]
		default:
			row[j] = rng.NormFloat64()
		}
	}
}

// checkForest requires PredictMargin, and PredictMarginBatch at a few batch
// sizes, to return the oracle's bits on random rows.
func checkForest(t *testing.T, rng *rand.Rand, m *Model, trees []*Tree, cols int) {
	t.Helper()
	for _, rows := range []int{1, 3, 4, 5, 200} {
		x := NewMatrix(cols)
		row := make([]float64, cols)
		for i := 0; i < rows; i++ {
			randomRow(rng, row)
			x.AppendRow(row)
		}
		out := make([]float64, rows)
		m.PredictMarginBatch(x, out)
		for i := 0; i < rows; i++ {
			want := math.Float64bits(predictMarginLinear(m.baseMargin, trees, x.Row(i)))
			if got := math.Float64bits(m.PredictMargin(x.Row(i))); got != want {
				t.Fatalf("PredictMargin(%v) = %x, oracle %x", x.Row(i), got, want)
			}
			if got := math.Float64bits(out[i]); got != want {
				t.Fatalf("PredictMarginBatch row %d of %d (%v) = %x, oracle %x", i, rows, x.Row(i), got, want)
			}
		}
	}
}

// TestForestMatchesOracleOnRandomModels loads random foreign-layout models
// through UnmarshalJSON and compares the forest against Tree.predict on the
// nodes as they were written, which never passed through the forest.
func TestForestMatchesOracleOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		cols := 1 + rng.Intn(16)
		mj := modelJSON{Params: DefaultParams(), BaseMargin: rng.NormFloat64()}
		var trees []*Tree
		for k := rng.Intn(12); k >= 0; k-- {
			nodes := randomTree(rng, cols, 1+rng.Intn(6))
			mj.Trees = append(mj.Trees, nodes)
			trees = append(trees, &Tree{nodes: nodes})
		}
		blob, err := json.Marshal(mj)
		if err != nil {
			t.Fatal(err)
		}
		var m Model
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		checkForest(t, rng, &m, trees, cols)
		// The model's own serialisation is preorder; it must survive a
		// second trip unchanged and still agree.
		blob2, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		var m2 Model
		if err := json.Unmarshal(blob2, &m2); err != nil {
			t.Fatal(err)
		}
		blob3, err := json.Marshal(&m2)
		if err != nil {
			t.Fatal(err)
		}
		if string(blob2) != string(blob3) {
			t.Fatal("preorder model changed on a JSON round trip")
		}
		checkForest(t, rng, &m2, trees, cols)
	}
}

// TestForestMatchesOracleOnTrainedModels covers the thresholds the builder
// itself produces — midpoints with an infinity on one side, Nextafter of the
// largest present value — and the forest after MaxTrees retirement and
// after a JSON round trip.
func TestForestMatchesOracleOnTrainedModels(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const cols = 6
	batch := func(rows int) (*Matrix, []float64) {
		x := NewMatrix(cols)
		y := make([]float64, rows)
		row := make([]float64, cols)
		for i := range y {
			randomRow(rng, row)
			x.AppendRow(row)
			if v := row[1]; v > 0 || (IsMissing(v) && rng.Intn(2) == 0) {
				y[i] = 1
			}
		}
		return x, y
	}
	p := DefaultParams()
	p.MaxTrees = 25
	x, y := batch(300)
	m, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	checkForest(t, rng, m, oracleTrees(m), cols)
	for u := 0; u < 12; u++ {
		x, y = batch(150)
		if err := m.Update(x, y, 4); err != nil {
			t.Fatal(err)
		}
		if u >= 4 && m.NumTrees() != p.MaxTrees {
			t.Fatalf("update %d left %d trees, want %d", u, m.NumTrees(), p.MaxTrees)
		}
		checkForest(t, rng, m, oracleTrees(m), cols)
	}
	// Finite-threshold model for the JSON leg.
	fx, fy := synthBinary(rng, 400)
	fm, err := Train(fx, fy, p)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(fm)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	checkForest(t, rng, &back, oracleTrees(fm), 3)
}

// malformedTrees are node graphs that are not trees, as JSON.
var malformedTrees = func() map[string]string {
	leaf := `{"leaf":true,"w":1,"l":-1,"r":-1}`
	return map[string]string{
		"empty tree":         `[]`,
		"child out of range": `[{"f":0,"t":1,"l":1,"r":7},` + leaf + `]`,
		"negative child":     `[{"f":0,"t":1,"l":-1,"r":1},` + leaf + `]`,
		"self loop":          `[{"f":0,"t":1,"l":0,"r":1},` + leaf + `]`,
		"two-node cycle":     `[{"f":0,"t":1,"l":1,"r":2},{"f":0,"t":1,"l":0,"r":2},` + leaf + `]`,
		"negative feature":   `[{"f":-1,"t":1,"l":1,"r":2},` + leaf + `,` + leaf + `]`,
		"feature too large":  `[{"f":2147483648,"t":1,"l":1,"r":2},` + leaf + `,` + leaf + `]`,
	}
}()

// malformedModel wraps one tree's JSON in a model's.
func malformedModel(tree string) string {
	return `{"params":{},"base_margin":0,"trees":[` + tree + `]}`
}

// TestUnmarshalRejectsMalformedTrees feeds UnmarshalJSON node graphs that
// are not trees; each must be an error, not a hang or an out-of-range walk,
// and must leave the receiver as it was.
func TestUnmarshalRejectsMalformedTrees(t *testing.T) {
	for name, tree := range malformedTrees {
		x, y := synthBinary(rand.New(rand.NewSource(3)), 200)
		m, err := Train(x, y, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		before := m.Predict(x.Row(0))
		if err := json.Unmarshal([]byte(malformedModel(tree)), m); err == nil || !strings.HasPrefix(err.Error(), "gbt: ") {
			t.Errorf("%s: UnmarshalJSON error = %v, want a gbt error", name, err)
		}
		if m.Predict(x.Row(0)) != before {
			t.Errorf("%s: a rejected load changed the model", name)
		}
	}
}

// storedBytes is what the model holds, slice by slice: the forest's nodes,
// their gains and the root table, and the scoring index resident beside
// them, whose merge scratch stays allocated between updates.
func storedBytes(m *Model) int {
	ix := &m.index
	return len(m.nodes)*int(unsafe.Sizeof(m.nodes[0])) + len(m.gains)*int(unsafe.Sizeof(m.gains[0])) + len(m.roots)*int(unsafe.Sizeof(m.roots[0])) +
		(len(ix.nodes)+cap(ix.fresh))*int(unsafe.Sizeof(qnode{})) + len(ix.spans)*int(unsafe.Sizeof(span{})) +
		len(ix.leaves)*int(unsafe.Sizeof(float64(0))) + len(ix.off)*int(unsafe.Sizeof(int32(0)))
}

// TestApproxMemoryBytesIsTheStoredLayout pins the Section 7.7 model-size
// figure to what the model holds, at one 24-byte index entry per internal
// node of an indexed tree, after training and after updates, whose merge
// scratch stays with the model and is counted; the third update retires
// every tree the index knew.
func TestApproxMemoryBytesIsTheStoredLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x, y := synthBinary(rng, 500)
	p := PaperParams()
	p.MaxDepth, p.MaxTrees = 5, 12
	m, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.Sizeof(fnode{}) != 24 {
		t.Errorf("forest node is %d bytes, want 24", unsafe.Sizeof(fnode{}))
	}
	if unsafe.Sizeof(qnode{}) != 24 {
		t.Errorf("index node is %d bytes, want 24", unsafe.Sizeof(qnode{}))
	}
	check := func(when string, scratch bool) {
		t.Helper()
		ix := &m.index
		if got, want := m.ApproxMemoryBytes(), storedBytes(m); got != want {
			t.Fatalf("%s: ApproxMemoryBytes = %d, stored layout is %d", when, got, want)
		}
		total := 0
		for _, tree := range oracleTrees(m) {
			total += tree.NumNodes()
		}
		internal, leaves := 0, 0
		for k, off := range ix.off {
			if off >= 0 {
				leaves += (len(m.treeNodes(k)) + 1) / 2
				internal += len(m.treeNodes(k)) / 2
			}
		}
		if internal == 0 || len(ix.nodes) != internal || len(ix.leaves) != leaves || len(ix.off) != m.NumTrees() || (cap(ix.fresh) > 0) != scratch {
			t.Fatalf("%s: index holds %d nodes, %d leaves, %d trees, scratch for %d; the indexed trees hold %d internal nodes and %d leaves in %d trees",
				when, len(ix.nodes), len(ix.leaves), len(ix.off), cap(ix.fresh), internal, leaves, m.NumTrees())
		}
		if total != len(m.nodes) || len(m.gains) != len(m.nodes) || len(m.roots) != m.NumTrees() {
			t.Fatalf("%s: forest holds %d nodes, %d gains, %d roots; trees hold %d nodes in %d trees",
				when, len(m.nodes), len(m.gains), len(m.roots), total, m.NumTrees())
		}
	}
	// A build from scratch leaves no second copy behind.
	check("after Train", false)
	for _, rounds := range []int{2, 3, p.MaxTrees, 1} {
		x, y = synthBinary(rng, 300)
		if err := m.Update(x, y, rounds); err != nil {
			t.Fatal(err)
		}
		check("after an Update", true)
	}
}
