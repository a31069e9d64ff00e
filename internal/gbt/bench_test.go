package gbt

import (
	"math/rand"
	"testing"
)

// The microbenchmarks run on the trace_xgb learner's shape: a bounded
// ensemble of 200 small trees grown under PaperParams by incremental updates
// of 200 rows x 15 features, 3 rounds each, on rows of trace_xgb's sparsity
// and label rate (sparseBatch).

const (
	benchCols  = 15
	benchBatch = 200
	benchTrees = 200
)

// denseRows draws rows with a third of the cells missing whose label leans on
// three of the features: deep trees grow wide on them.
func denseRows(rng *rand.Rand, rows int) (*Matrix, []float64) {
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
	p.MaxTrees = benchTrees
	x, y := sparseBatch(rng, 300)
	m, err := Train(x, y, p)
	if err != nil {
		tb.Fatal(err)
	}
	for u := 0; u < 70; u++ {
		x, y = sparseBatch(rng, benchBatch)
		if err := m.Update(x, y, 3); err != nil {
			tb.Fatal(err)
		}
	}
	if m.NumTrees() != benchTrees {
		tb.Fatalf("bench model has %d trees, want %d", m.NumTrees(), benchTrees)
	}
	x, y = sparseBatch(rng, benchBatch)
	return m, x, y
}

var benchSink float64

// deepModel is the offline experiments' and the benchmark probe's shape:
// PaperParams at full depth on 5 000 rows, every tree wider than the index
// takes, so each prediction walks all of them.
func deepModel(tb testing.TB) (*Model, *Matrix) {
	x, y := denseRows(rand.New(rand.NewSource(3)), 5000)
	m, err := Train(x, y, PaperParams())
	if err != nil {
		tb.Fatal(err)
	}
	for k, off := range m.index.off {
		if off >= 0 {
			tb.Fatalf("deep model: tree %d of %d nodes is indexed", k, len(m.treeNodes(k)))
		}
	}
	return m, x
}

// mixedModel is deepModel after one update with 200 of its rows, which adds
// three trees small enough to index behind the ten wide ones: the shape of
// the benchmark probe's model from its second update on, and of the models
// Figure 17 updates with an hour's samples at a time.
func mixedModel(tb testing.TB) (*Model, *Matrix) {
	m, x := deepModel(tb)
	mixOn(tb, m, x)
	return m, x
}

// mixOn makes mixedModel of the deep model m, which was grown on x.
func mixOn(tb testing.TB, m *Model, x *Matrix) {
	batch, y := NewMatrix(benchCols), make([]float64, benchBatch)
	for i := range y {
		batch.AppendRow(x.Row(i))
		y[i] = float64(i % 2)
	}
	if err := m.Update(batch, y, 3); err != nil {
		tb.Fatal(err)
	}
	if w := m.index.walked; w == 0 || w == m.NumTrees() {
		tb.Fatalf("mixed model: %d of %d trees are walked", w, m.NumTrees())
	}
}

// BenchmarkPredictMargin is one prediction, a different row each time. trace
// is the trace_xgb forest, 200 small trees scored through the index; deep is
// ten wide trees, each walked; mixed is those ten with three indexed ones
// behind them, where the wide trees are walked four at a time from inside
// the scorer.
func BenchmarkPredictMargin(b *testing.B) {
	trace, traceRows, _ := benchModel(b)
	deep, deepRows := deepModel(b)
	mixed, mixedRows := mixedModel(b)
	for _, c := range []struct {
		name string
		m    *Model
		x    *Matrix
	}{{"trace", trace, traceRows}, {"deep", deep, deepRows}, {"mixed", mixed, mixedRows}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportMetric(float64(len(c.m.nodes))/float64(c.m.NumTrees()), "nodes/tree")
			b.ReportAllocs()
			rows := c.x.Rows()
			for i := 0; i < b.N; i++ {
				benchSink += c.m.PredictMargin(c.x.Row(i % rows))
			}
		})
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
// (the k=200 candidates of a tick) and of a batch of one.
func BenchmarkPredictMarginBatch(b *testing.B) {
	m, x, _ := benchModel(b)
	out := make([]float64, benchBatch)
	one := NewMatrix(benchCols)
	one.AppendRow(x.Row(0))
	for _, c := range []struct {
		name string
		x    *Matrix
	}{{"1", one}, {"200", x}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += c.x.Rows() {
				m.PredictMarginBatch(c.x, out)
			}
			benchSink += out[0]
		})
	}
}

// BenchmarkUpdate is one incremental update of a full ensemble: starting
// margins of the batch, three trees built, the three oldest retired, the
// index brought up to date. It cycles through a pool of batches so the model
// keeps something to learn.
func BenchmarkUpdate(b *testing.B) {
	m, _, _ := benchModel(b)
	rng := rand.New(rand.NewSource(2))
	var xs [16]*Matrix
	var ys [16][]float64
	for k := range xs {
		xs[k], ys[k] = sparseBatch(rng, benchBatch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Update(xs[i%len(xs)], ys[i%len(xs)], 3); err != nil {
			b.Fatal(err)
		}
	}
}
