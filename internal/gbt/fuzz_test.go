package gbt

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// fuzzCols is the width of the rows FuzzModelJSON predicts on. A loaded
// model may name a feature beyond it; such a row is walked, and fails only
// where the oracle does, at a node it reaches.
const fuzzCols = 16

// orPanic runs predict and reports whether it panicked.
func orPanic(predict func() float64) (v float64, panicked bool) {
	defer func() { panicked = recover() != nil }()
	return predict(), false
}

// FuzzModelJSON feeds UnmarshalJSON arbitrary bytes. Whatever it accepts
// must be a model whose PredictMargin, through the index built on loading,
// returns on a fixed set of rows the bits Tree.predict sums over the trees as
// they were written, and panics on a row exactly when that does: when the row
// reaches a node whose feature it lacks; and when no row panics,
// PredictMarginBatch over the rows must give each of them the same bits. The
// seed corpus, which plain go test
// runs, is the malformed node graphs of TestUnmarshalRejectsMalformedTrees,
// two models that load, one whose tree is too wide to index, and one that
// names a feature beyond the rows on one branch.
func FuzzModelJSON(f *testing.F) {
	for _, tree := range malformedTrees {
		f.Add([]byte(malformedModel(tree)))
	}
	rng := rand.New(rand.NewSource(5))
	for _, leaves := range [][]int{{2}, {5, 1, 9}, {3, 70, 4}} {
		var trees [][]node
		for _, n := range leaves {
			trees = append(trees, treeWithLeaves(rng, fuzzCols, n, true))
		}
		blob, err := json.Marshal(modelJSON{Params: DefaultParams(), BaseMargin: 0.5, Trees: trees})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"params":{},"trees":[[{"f":2,"t":0.5,"l":1,"r":2},{"f":99,"t":1,"l":3,"r":4},{"w":1,"leaf":true},{"w":2,"leaf":true},{"w":3,"leaf":true}]]}`))
	rows := NewMatrix(fuzzCols)
	row := make([]float64, fuzzCols)
	for i := 0; i < 24; i++ {
		randomRow(rng, row)
		rows.AppendRow(row)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Model
		if m.UnmarshalJSON(data) != nil {
			return
		}
		var written modelJSON
		if err := json.Unmarshal(data, &written); err != nil {
			t.Fatalf("UnmarshalJSON accepted what encoding/json rejects: %v", err)
		}
		if m.NumTrees() != len(written.Trees) || len(m.index.off) != m.NumTrees() {
			t.Fatalf("%d trees written, %d loaded, %d in the index", len(written.Trees), m.NumTrees(), len(m.index.off))
		}
		trees := oracleOf(written.Trees)
		margins, anyPanic := make([]float64, rows.Rows()), false
		for i := 0; i < rows.Rows(); i++ {
			row := rows.Row(i)
			want, wantPanic := orPanic(func() float64 { return predictMarginLinear(written.BaseMargin, trees, row) })
			got, gotPanic := orPanic(func() float64 { return m.PredictMargin(row) })
			if gotPanic != wantPanic || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %v: PredictMargin %v (panic %v), the written trees give %v (panic %v)", row, got, gotPanic, want, wantPanic)
			}
			margins[i], anyPanic = got, anyPanic || gotPanic
		}
		if anyPanic {
			return
		}
		// 24 rows are fewer than PredictMarginBatch hands to the batch
		// kernel, so the kernel is run as well wherever it applies.
		ways := map[string]func([]float64){"PredictMarginBatch": func(out []float64) { m.PredictMarginBatch(rows, out) }}
		if m.index.walked < m.NumTrees() && rows.Cols() >= m.index.width {
			ways["scoreBatch"] = func(out []float64) { m.index.scoreBatch(&m, rows, out) }
		}
		for name, score := range ways {
			out := make([]float64, rows.Rows())
			score(out)
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(margins[i]) {
					t.Fatalf("row %v: %s %v, PredictMargin %v", rows.Row(i), name, out[i], margins[i])
				}
			}
		}
	})
}
