package gbt

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// synthBinary builds a learnable binary dataset: y = 1 when x0 + x1 > 1.
func synthBinary(rng *rand.Rand, n int) (*Matrix, []float64) {
	x := NewMatrix(3)
	y := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		x.AppendRow([]float64{a, b, c})
		if a+b > 1 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	return x, y
}

func accuracy(m *Model, x *Matrix, y []float64) float64 {
	correct := 0
	for i := 0; i < x.Rows(); i++ {
		p := m.Predict(x.Row(i))
		if (p >= 0.5) == (y[i] >= 0.5) {
			correct++
		}
	}
	return float64(correct) / float64(x.Rows())
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2)
	m.AppendRow([]float64{1, 2})
	m.AppendRow([]float64{3, Missing})
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("At() wrong values")
	}
	if !IsMissing(m.At(1, 1)) {
		t.Fatal("missing value lost")
	}
	if got := m.Row(1); got[0] != 3 {
		t.Fatalf("Row(1) = %v", got)
	}
}

func TestMatrixAppendWrongWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2).AppendRow([]float64{1})
}

func TestParamsValidation(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.MaxDepth = 0 },
		func(p *Params) { p.Rounds = 0 },
		func(p *Params) { p.LearningRate = 0 },
		func(p *Params) { p.LearningRate = 1.5 },
		func(p *Params) { p.Lambda = -1 },
		func(p *Params) { p.BaseScore = 0 },
		func(p *Params) { p.BaseScore = 1 },
	}
	x, y := synthBinary(rand.New(rand.NewSource(1)), 10)
	for i, mutate := range cases {
		p := DefaultParams()
		mutate(&p)
		if _, err := Train(x, y, p); err == nil {
			t.Fatalf("case %d: invalid params accepted", i)
		}
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	p := DefaultParams()
	if _, err := Train(NewMatrix(2), nil, p); err == nil {
		t.Fatal("empty training set accepted")
	}
	x, y := synthBinary(rand.New(rand.NewSource(1)), 10)
	if _, err := Train(x, y[:5], p); err == nil {
		t.Fatal("mismatched labels accepted")
	}
}

func TestTrainLearnsLinearBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xTrain, yTrain := synthBinary(rng, 2000)
	xTest, yTest := synthBinary(rng, 500)
	p := DefaultParams()
	p.Rounds = 20
	m, err := Train(xTrain, yTrain, p)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, xTest, yTest); acc < 0.93 {
		t.Fatalf("test accuracy = %.3f, want >= 0.93", acc)
	}
	if m.NumTrees() != 20 {
		t.Fatalf("trees = %d", m.NumTrees())
	}
}

func TestPredictionsAreProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := synthBinary(rng, 500)
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, x.Rows())
	m.PredictBatch(x, probs)
	for _, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("prediction %v outside [0,1]", p)
		}
	}
}

func TestXORRequiresDepth(t *testing.T) {
	// XOR cannot be separated by a depth-1 ensemble but is easy at depth 2+.
	rng := rand.New(rand.NewSource(3))
	x := NewMatrix(2)
	var y []float64
	for i := 0; i < 2000; i++ {
		a, b := rng.Float64(), rng.Float64()
		x.AppendRow([]float64{a, b})
		if (a > 0.5) != (b > 0.5) {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	p := DefaultParams()
	p.MaxDepth = 3
	p.Rounds = 20
	m, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, x, y); acc < 0.95 {
		t.Fatalf("XOR accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestMissingValuesRouted(t *testing.T) {
	// Feature 0 present => label is x0>0.5; feature 0 missing => label 1.
	// The learner must route missing values to the positive side.
	rng := rand.New(rand.NewSource(9))
	x := NewMatrix(2)
	var y []float64
	for i := 0; i < 3000; i++ {
		if rng.Float64() < 0.3 {
			x.AppendRow([]float64{Missing, rng.Float64()})
			y = append(y, 1)
		} else {
			v := rng.Float64()
			x.AppendRow([]float64{v, rng.Float64()})
			if v > 0.5 {
				y = append(y, 1)
			} else {
				y = append(y, 0)
			}
		}
	}
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, x, y); acc < 0.97 {
		t.Fatalf("missing-value accuracy = %.3f", acc)
	}
	if p := m.Predict([]float64{Missing, 0.2}); p < 0.7 {
		t.Fatalf("missing x0 predicted %v, want high probability", p)
	}
}

func TestSquaredErrorRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := NewMatrix(1)
	var y []float64
	for i := 0; i < 1000; i++ {
		v := rng.Float64()
		x.AppendRow([]float64{v})
		y = append(y, 3*v+1)
	}
	p := DefaultParams()
	p.Objective = SquaredError
	p.BaseScore = 0
	p.Rounds = 50
	m, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	var mse float64
	for i := 0; i < x.Rows(); i++ {
		d := m.Predict(x.Row(i)) - y[i]
		mse += d * d
	}
	mse /= float64(x.Rows())
	if mse > 0.01 {
		t.Fatalf("regression MSE = %v", mse)
	}
}

func TestIncrementalUpdateAdapts(t *testing.T) {
	// Phase 1 concept: y = x0 > 0.5. Phase 2 concept: y = x0 < 0.5.
	rng := rand.New(rand.NewSource(13))
	gen := func(n int, flipped bool) (*Matrix, []float64) {
		x := NewMatrix(1)
		var y []float64
		for i := 0; i < n; i++ {
			v := rng.Float64()
			x.AppendRow([]float64{v})
			pos := v > 0.5
			if flipped {
				pos = !pos
			}
			if pos {
				y = append(y, 1)
			} else {
				y = append(y, 0)
			}
		}
		return x, y
	}
	x1, y1 := gen(1000, false)
	p := DefaultParams()
	p.MaxTrees = 60
	m, err := Train(x1, y1, p)
	if err != nil {
		t.Fatal(err)
	}
	x2, y2 := gen(1000, true)
	accBefore := accuracy(m, x2, y2)
	for i := 0; i < 8; i++ {
		xb, yb := gen(300, true)
		if err := m.Update(xb, yb, 10); err != nil {
			t.Fatal(err)
		}
	}
	accAfter := accuracy(m, x2, y2)
	if accBefore > 0.5 {
		t.Fatalf("model should be wrong after concept flip, acc = %.3f", accBefore)
	}
	if accAfter < 0.9 {
		t.Fatalf("incremental updates failed to adapt: %.3f -> %.3f", accBefore, accAfter)
	}
	if m.NumTrees() > 60 {
		t.Fatalf("MaxTrees cap violated: %d", m.NumTrees())
	}
}

func TestUpdateValidation(t *testing.T) {
	x, y := synthBinary(rand.New(rand.NewSource(1)), 100)
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(NewMatrix(3), nil, 5); err == nil {
		t.Fatal("empty update accepted")
	}
	if err := m.Update(x, y[:10], 5); err == nil {
		t.Fatal("mismatched update accepted")
	}
}

func TestFeatureImportanceIdentifiesSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := NewMatrix(3)
	var y []float64
	for i := 0; i < 2000; i++ {
		a, noise1, noise2 := rng.Float64(), rng.Float64(), rng.Float64()
		x.AppendRow([]float64{a, noise1, noise2})
		if a > 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance(3)
	if imp[0] < 0.8 {
		t.Fatalf("importance = %v, feature 0 should dominate", imp)
	}
	var sum float64
	for _, v := range imp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importance sums to %v", sum)
	}
}

func TestDeterministicTraining(t *testing.T) {
	x, y := synthBinary(rand.New(rand.NewSource(5)), 500)
	m1, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows(); i++ {
		if m1.Predict(x.Row(i)) != m2.Predict(x.Row(i)) {
			t.Fatal("training is not deterministic")
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	x, y := synthBinary(rand.New(rand.NewSource(17)), 500)
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var m2 Model
	if err := json.Unmarshal(blob, &m2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows(); i++ {
		if m.Predict(x.Row(i)) != m2.Predict(x.Row(i)) {
			t.Fatal("round-tripped model predicts differently")
		}
	}
}

func TestApproxMemoryBytes(t *testing.T) {
	x, y := synthBinary(rand.New(rand.NewSource(23)), 500)
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.ApproxMemoryBytes() <= 0 {
		t.Fatal("memory estimate not positive")
	}
}

func TestPaperParams(t *testing.T) {
	p := PaperParams()
	if p.MaxDepth != 20 || p.Rounds != 10 {
		t.Fatalf("paper params = %+v", p)
	}
	if p.Objective != LogisticBinary {
		t.Fatal("paper objective must be logistic")
	}
}

func TestObjectiveString(t *testing.T) {
	if LogisticBinary.String() != "binary:logistic" || SquaredError.String() != "reg:squarederror" {
		t.Fatal("objective strings wrong")
	}
}

// Property: constant labels produce predictions near that constant.
func TestPropertyConstantLabels(t *testing.T) {
	f := func(seed int64, positive bool) bool {
		rng := rand.New(rand.NewSource(seed))
		x := NewMatrix(2)
		var y []float64
		label := 0.0
		if positive {
			label = 1.0
		}
		for i := 0; i < 50; i++ {
			x.AppendRow([]float64{rng.Float64(), rng.Float64()})
			y = append(y, label)
		}
		m, err := Train(x, y, DefaultParams())
		if err != nil {
			return false
		}
		p := m.Predict([]float64{0.5, 0.5})
		if positive {
			return p > 0.9
		}
		return p < 0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: predictions never NaN/Inf for arbitrary finite inputs.
func TestPropertyFinitePredictions(t *testing.T) {
	x, y := synthBinary(rand.New(rand.NewSource(29)), 300)
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) ||
			math.IsNaN(b) || math.IsInf(b, 0) ||
			math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		p := m.Predict([]float64{a, b, c})
		return !math.IsNaN(p) && !math.IsInf(p, 0) && p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrain2000x6(b *testing.B) {
	x, y := synthBinary(rand.New(rand.NewSource(1)), 2000)
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictSingle(b *testing.B) {
	x, y := synthBinary(rand.New(rand.NewSource(1)), 2000)
	p := PaperParams()
	m, err := Train(x, y, p)
	if err != nil {
		b.Fatal(err)
	}
	row := x.Row(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(row)
	}
}

// TestUnsplittableNodesAreSkipped: a builder that returns a leaf without
// searching wherever the hessian sum is below twice MinChildWeight grows,
// bit for bit, the tree of a builder that searches every node. The 1 000
// batches cover MinChildWeight 0 (the rule never fires), hessians at the
// logistic floor, and hessian sums at and one ulp either side of the bound.
func TestUnsplittableNodesAreSkipped(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	skippedRoots := 0
	for trial := 0; trial < 1000; trial++ {
		cols, rows := 1+rng.Intn(4), 2+rng.Intn(60)
		x := NewMatrix(cols)
		row := make([]float64, cols)
		grad, hess := make([]float64, rows), make([]float64, rows)
		var hSum float64
		for i := range grad {
			for j := range row {
				row[j] = float64(rng.Intn(6))
				if rng.Intn(4) == 0 {
					row[j] = Missing
				}
			}
			x.AppendRow(row)
			grad[i] = rng.NormFloat64()
			hess[i] = 0.25 * rng.Float64()
			if trial%5 == 1 || hess[i] < 1e-16 {
				hess[i] = 1e-16
			}
			hSum += hess[i] // the order grow sums in
		}
		p := DefaultParams()
		p.MaxDepth = 1 + rng.Intn(6)
		switch trial % 5 {
		case 0:
			p.MinChildWeight = 0
		case 1:
			p.MinChildWeight = 1e-16 * float64(rng.Intn(rows))
		case 2:
			p.MinChildWeight = []float64{math.Nextafter(hSum/2, 0), hSum / 2, math.Nextafter(hSum/2, 1)}[rng.Intn(3)]
		default:
			p.MinChildWeight = hSum * rng.Float64()
		}
		if hSum < 2*p.MinChildWeight {
			skippedRoots++
		}
		skipping, searching := newBuilder(x, p), newBuilder(x, p)
		searching.searchAll = true
		nodes, gains := skipping.build(nil, nil, grad, hess)
		wantNodes, wantGains := searching.build(nil, nil, grad, hess)
		sameNode := func(a, b fnode) bool { return sameBits(a.value, b.value) && a.next == b.next && a.feature == b.feature }
		if !slices.EqualFunc(nodes, wantNodes, sameNode) || !slices.EqualFunc(gains, wantGains, sameBits) {
			t.Fatalf("trial %d (mcw %v, hessian sum %v): skipping builder grew %d nodes, searching builder %d:\n%v\n%v",
				trial, p.MinChildWeight, hSum, len(nodes), len(wantNodes), nodes, wantNodes)
		}
	}
	if skippedRoots < 100 || skippedRoots > 900 {
		t.Fatalf("the rule fired at %d of 1000 roots; the batches should land on both sides of it", skippedRoots)
	}
}

// TestSteadyUpdateAllocatesNothing: once a bounded model has been through a
// few rounds of batches of one size, an update allocates nothing, through
// UpdateFrom (the learner's path, margins supplied) or Update. The builder
// and its scratch stay with the model, and the forest and its index reuse the
// room the retired trees leave.
func TestSteadyUpdateAllocatesNothing(t *testing.T) {
	m, _, _ := benchModel(t)
	rng := rand.New(rand.NewSource(5))
	var xs [8]*Matrix
	var ys [8][]float64
	for k := range xs {
		xs[k], ys[k] = sparseBatch(rng, benchBatch)
	}
	margins := make([]float64, benchBatch)
	next := 0
	updateFrom := func() {
		x, y := xs[next%len(xs)], ys[next%len(xs)]
		next++
		m.PredictMarginBatch(x, margins)
		if err := m.UpdateFrom(x, y, margins, 3); err != nil {
			t.Fatal(err)
		}
	}
	update := func() {
		if err := m.Update(xs[next%len(xs)], ys[next%len(xs)], 3); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 4*len(xs); i++ {
		updateFrom()
	}
	if allocs := testing.AllocsPerRun(2*len(xs), updateFrom); allocs != 0 {
		t.Errorf("UpdateFrom makes %v allocations per update", allocs)
	}
	if allocs := testing.AllocsPerRun(2*len(xs), update); allocs != 0 {
		t.Errorf("Update makes %v allocations per update", allocs)
	}
}

// TestGrowOnlyReadsTheModel: Grow leaves the model it reads unchanged, to the
// byte of its JSON and the bits of its predictions, and predicting on it
// while a Grow runs beside is race-free; Commit then leaves the model that
// UpdateFrom makes from the same batch, past retirement, and a second Commit
// of the emptied delta adds nothing.
func TestGrowOnlyReadsTheModel(t *testing.T) {
	m, x, y := benchModel(t)
	twin, _, _ := benchModel(t)
	before, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, x.Rows())
	m.PredictMarginBatch(x, want)
	var d Delta
	margins := slices.Clone(want)
	done := make(chan error, 1)
	go func() { done <- m.Grow(&d, x, y, margins, 3) }()
	for i := 0; i < x.Rows(); i++ {
		if got := m.PredictMargin(x.Row(i)); math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("row %d scored %v beside Grow, %v before", i, got, want[i])
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("Grow changed the model")
	}
	m.Commit(&d)
	twinMargins := slices.Clone(want)
	if err := twin.UpdateFrom(x, y, twinMargins, 3); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := json.Marshal(twin)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) || m.NumTrees() != benchTrees {
		t.Fatalf("Grow then Commit gave %d trees and %d bytes of JSON, UpdateFrom %d and %d", m.NumTrees(), len(got), twin.NumTrees(), len(ref))
	}
	m.Commit(&d)
	if again, _ := json.Marshal(m); string(again) != string(got) {
		t.Fatal("a second Commit of the same delta changed the model")
	}
}
