package gbt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"
)

// goldenBatch draws one batch of the golden stream: 15 features quantised to
// eighths (so every column is full of duplicate values), a third of the
// cells missing, and a label that depends on two features, on whether a
// third is missing, and on noise.
func goldenBatch(rng *rand.Rand, rows int) (*Matrix, []float64) {
	const cols = 15
	x := NewMatrix(cols)
	y := make([]float64, rows)
	row := make([]float64, cols)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = float64(rng.Intn(9)) / 8
			if rng.Intn(3) == 0 {
				row[j] = Missing
			}
		}
		score := rng.Float64() * 0.5
		if !IsMissing(row[2]) {
			score += row[2]
		}
		if !IsMissing(row[7]) {
			score -= row[7] / 2
		}
		if IsMissing(row[4]) {
			score += 0.4
		}
		if score > 0.6 {
			y[i] = 1
		}
		x.AppendRow(row)
	}
	return x, y
}

// sparseBatch draws one batch in the shape of trace_xgb's real update
// batches: columns 0 and 1 always present, columns 2 and 3 present together
// in about 14 % of the rows, columns 4 to 14 present in 7 % down to 1.5 %,
// and about 4 % positive labels, most of them where column 2 is present and
// small.
func sparseBatch(rng *rand.Rand, rows int) (*Matrix, []float64) {
	const cols = 15
	x := NewMatrix(cols)
	y := make([]float64, rows)
	row := make([]float64, cols)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = Missing
		}
		row[0] = float64(rng.Intn(64)) / 64
		row[1] = rng.Float64()
		if rng.Float64() < 0.14 {
			row[2] = rng.Float64()
			row[3] = float64(rng.Intn(16)) / 16
		}
		for j := 4; j < cols; j++ {
			if rng.Float64() < 0.07-0.0055*float64(j-4) {
				row[j] = float64(rng.Intn(32)) / 32
			}
		}
		hot := !IsMissing(row[2]) && row[2] < 0.3 && row[0] < 0.75
		if (hot && rng.Intn(2) == 0) || rng.Float64() < 0.025 {
			y[i] = 1
		}
		x.AppendRow(row)
	}
	return x, y
}

// TestGoldenTrainingStream pins the trees themselves: Train plus 20 Updates
// on a fixed stream, under the trace_xgb learner's shape (PaperParams, a
// MaxTrees bound that retires trees from the eleventh update on), must
// serialise to the bytes the exact greedy builder produced before its split
// search was restricted to per-node row lists. The hash was recorded from
// that build; a change that moves it has changed what the model learns.
//
// The dense stream has every cell missing one time in three. The sparse one
// is trace_xgb's shape (sparseBatch), where most features have no present
// value in most nodes; its hash was recorded from the builder that still
// walked every feature's missing rows at every node, so a builder that skips
// such features is held to that one's trees bit for bit.
func TestGoldenTrainingStream(t *testing.T) {
	for _, c := range []struct {
		name  string
		batch func(*rand.Rand, int) (*Matrix, []float64)
		want  string
	}{
		{"dense", goldenBatch, "ab7c421592ec0b7383a0a7fb5be1e8c08aff752ce1c39c9a7ae4bbf0839fef44"},
		{"sparse", sparseBatch, "4440d8b0f368606a016c51750445a15cb571a8e4e31df97dad76393468d1735d"},
	} {
		rng := rand.New(rand.NewSource(20190826))
		p := PaperParams()
		p.MaxTrees = 40
		x, y := c.batch(rng, 300)
		m, err := Train(x, y, p)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 20; u++ {
			x, y = c.batch(rng, 200)
			if err := m.Update(x, y, 3); err != nil {
				t.Fatal(err)
			}
		}
		if m.NumTrees() != p.MaxTrees {
			t.Fatalf("%s: ensemble has %d trees, want the MaxTrees bound %d", c.name, m.NumTrees(), p.MaxTrees)
		}
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Fatalf("%s: model hash %s, want %s (%d bytes, %d trees)", c.name, got, c.want, len(blob), m.NumTrees())
		}
	}
}
