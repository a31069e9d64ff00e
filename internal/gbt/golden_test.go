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

// TestGoldenTrainingStream pins the trees themselves: Train plus 20 Updates
// on a fixed stream, under the trace_xgb learner's shape (PaperParams, a
// MaxTrees bound that retires trees from the eleventh update on), must
// serialise to the bytes the exact greedy builder produced before its split
// search was restricted to per-node row lists. The hash was recorded from
// that build; a change that moves it has changed what the model learns.
func TestGoldenTrainingStream(t *testing.T) {
	const want = "ab7c421592ec0b7383a0a7fb5be1e8c08aff752ce1c39c9a7ae4bbf0839fef44"
	rng := rand.New(rand.NewSource(20190826))
	p := PaperParams()
	p.MaxTrees = 40
	x, y := goldenBatch(rng, 300)
	m, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		x, y = goldenBatch(rng, 200)
		if err := m.Update(x, y, 3); err != nil {
			t.Fatal(err)
		}
	}
	if m.NumTrees() != p.MaxTrees {
		t.Fatalf("ensemble has %d trees, want the MaxTrees bound %d", m.NumTrees(), p.MaxTrees)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("model hash %s, want %s (%d bytes, %d trees)", got, want, len(blob), m.NumTrees())
	}
}
