package gbt

import (
	"math/rand"
	"testing"
)

// The microbenchmarks run on the trace_xgb learner's shape: a bounded
// ensemble of 200 small trees grown by incremental updates of 200 rows x 15
// features, 3 rounds each, a third of the feature cells missing.

const (
	benchCols  = 15
	benchBatch = 200
	benchTrees = 200
)

// benchRows draws rows whose label leans on three of the features.
func benchRows(rng *rand.Rand, rows int) (*Matrix, []float64) {
	x := NewMatrix(benchCols)
	y := make([]float64, rows)
	row := make([]float64, benchCols)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = rng.Float64()
			if rng.Intn(3) == 0 {
				row[j] = Missing
			}
		}
		score := rng.Float64()
		for _, j := range [...]int{1, 2, 5} {
			if !IsMissing(row[j]) {
				score += row[j] - 0.5
			}
		}
		if score > 0.5 {
			y[i] = 1
		}
		x.AppendRow(row)
	}
	return x, y
}

// benchModel grows the ensemble past its MaxTrees bound, so the model has
// been through retirement, and returns it with one more batch.
func benchModel(tb testing.TB) (*Model, *Matrix, []float64) {
	rng := rand.New(rand.NewSource(1))
	p := PaperParams()
	p.MaxDepth = 2 // trace_xgb's trees average about five nodes
	p.MaxTrees = benchTrees
	x, y := benchRows(rng, 300)
	m, err := Train(x, y, p)
	if err != nil {
		tb.Fatal(err)
	}
	for u := 0; u < 70; u++ {
		x, y = benchRows(rng, benchBatch)
		if err := m.Update(x, y, 3); err != nil {
			tb.Fatal(err)
		}
	}
	if m.NumTrees() != benchTrees {
		tb.Fatalf("bench model has %d trees, want %d", m.NumTrees(), benchTrees)
	}
	x, y = benchRows(rng, benchBatch)
	return m, x, y
}

var benchSink float64

// BenchmarkPredictMargin is one prediction: 200 tree walks over the forest,
// a different row each time.
func BenchmarkPredictMargin(b *testing.B) {
	m, x, _ := benchModel(b)
	b.ReportMetric(float64(len(m.nodes))/float64(m.NumTrees()), "nodes/tree")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += m.PredictMargin(x.Row(i % benchBatch))
	}
}

// BenchmarkPredictMarginLinear is the same prediction the way the model
// made it before the forest: one separately allocated node array per tree,
// walked by the oracle.
func BenchmarkPredictMarginLinear(b *testing.B) {
	m, x, _ := benchModel(b)
	trees := make([]*Tree, m.NumTrees())
	for k := range trees {
		trees[k] = m.tree(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += predictMarginLinear(m.baseMargin, trees, x.Row(i%benchBatch))
	}
}

// BenchmarkPredictMarginBatch reports the cost per row of scoring a batch
// (the k=200 candidates of a tick, an update's starting margins) and of a
// batch of one. 200/rows4 is the inner loop PredictMarginBatch does not use,
// kept here so the choice stays measurable.
func BenchmarkPredictMarginBatch(b *testing.B) {
	m, x, _ := benchModel(b)
	out := make([]float64, benchBatch)
	one := NewMatrix(benchCols)
	one.AppendRow(x.Row(0))
	for _, c := range []struct {
		name  string
		x     *Matrix
		batch func(*Matrix, []float64)
	}{
		{"1", one, m.PredictMarginBatch},
		{"200", x, m.PredictMarginBatch},
		{"200/rows4", x, m.predictMarginBatchRows4},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += c.x.Rows() {
				c.batch(c.x, out)
			}
			benchSink += out[0]
		})
	}
}

// predictMarginBatchRows4 is the batch loop that descends each tree with
// four rows in lockstep, where PredictMargin descends four trees with one
// row. Same bits; measured on the 200-row batch it is no faster.
func (m *Model) predictMarginBatchRows4(x *Matrix, out []float64) {
	rows := x.Rows()
	nodes := m.nodes
	r := 0
	for ; r+4 <= rows; r += 4 {
		x0, x1, x2, x3 := x.Row(r), x.Row(r+1), x.Row(r+2), x.Row(r+3)
		m0, m1, m2, m3 := m.baseMargin, m.baseMargin, m.baseMargin, m.baseMargin
		for _, root := range m.roots {
			i0, i1, i2, i3 := root, root, root, root
			for {
				n0, n1, n2, n3 := &nodes[i0], &nodes[i1], &nodes[i2], &nodes[i3]
				if n0.next[goLeft]|n1.next[goLeft]|n2.next[goLeft]|n3.next[goLeft] == 0 {
					m0 += n0.value
					m1 += n1.value
					m2 += n2.value
					m3 += n3.value
					break
				}
				i0 += n0.step(x0)
				i1 += n1.step(x1)
				i2 += n2.step(x2)
				i3 += n3.step(x3)
			}
		}
		out[r], out[r+1], out[r+2], out[r+3] = m0, m1, m2, m3
	}
	for ; r < rows; r++ {
		out[r] = m.PredictMargin(x.Row(r))
	}
}

// BenchmarkUpdate is one incremental update of a full ensemble: starting
// margins of the batch, three trees built, the three oldest retired. It
// cycles through a pool of batches so the model keeps something to learn.
func BenchmarkUpdate(b *testing.B) {
	m, _, _ := benchModel(b)
	rng := rand.New(rand.NewSource(2))
	var xs [16]*Matrix
	var ys [16][]float64
	for k := range xs {
		xs[k], ys[k] = benchRows(rng, benchBatch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Update(xs[i%len(xs)], ys[i%len(xs)], 3); err != nil {
			b.Fatal(err)
		}
	}
}
