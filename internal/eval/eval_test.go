package eval

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestROCPerfectClassifier(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []float64{1, 1, 0, 0}
	if auc := AUC(scores, labels); math.Abs(auc-1.0) > 1e-9 {
		t.Fatalf("AUC = %v, want 1.0", auc)
	}
	curve := ROC(scores, labels)
	if curve[0].FPR != 0 || curve[0].TPR != 0 {
		t.Fatalf("curve start = %+v", curve[0])
	}
	last := curve[len(curve)-1]
	if last.FPR != 1 || last.TPR != 1 {
		t.Fatalf("curve end = %+v", last)
	}
}

func TestROCAntiClassifier(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []float64{1, 1, 0, 0}
	if auc := AUC(scores, labels); math.Abs(auc) > 1e-9 {
		t.Fatalf("AUC = %v, want 0", auc)
	}
}

func TestROCRandomScoresNearHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 5000
	scores := make([]float64, n)
	labels := make([]float64, n)
	for i := range scores {
		scores[i] = rng.Float64()
		if rng.Float64() < 0.4 {
			labels[i] = 1
		}
	}
	auc := AUC(scores, labels)
	if math.Abs(auc-0.5) > 0.03 {
		t.Fatalf("random AUC = %v, want ~0.5", auc)
	}
}

func TestROCDegenerate(t *testing.T) {
	if ROC([]float64{0.5}, []float64{1}) != nil {
		t.Fatal("single-class ROC should be nil")
	}
	if !math.IsNaN(AUC([]float64{0.5}, []float64{1})) {
		t.Fatal("single-class AUC should be NaN")
	}
	if ROC(nil, nil) != nil {
		t.Fatal("empty ROC should be nil")
	}
}

func TestROCTiesHandled(t *testing.T) {
	// All scores equal: the curve must be the diagonal (AUC 0.5).
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []float64{1, 0, 1, 0}
	if auc := AUC(scores, labels); math.Abs(auc-0.5) > 1e-9 {
		t.Fatalf("tied AUC = %v, want 0.5", auc)
	}
}

func TestAccuracy(t *testing.T) {
	scores := []float64{0.9, 0.4, 0.6, 0.1}
	labels := []float64{1, 1, 0, 0}
	if got := Accuracy(scores, labels, 0.5); got != 0.5 {
		t.Fatalf("accuracy = %v", got)
	}
	if !math.IsNaN(Accuracy(nil, nil, 0.5)) {
		t.Fatal("empty accuracy should be NaN")
	}
}

func TestRatiosAndReduction(t *testing.T) {
	if HitRatio(50, 100) != 0.5 {
		t.Fatal("HitRatio")
	}
	if ByteHitRatio(25, 100) != 0.25 {
		t.Fatal("ByteHitRatio")
	}
	if ByteAccuracy(30, 60) != 0.5 {
		t.Fatal("ByteAccuracy")
	}
	if ByteCoverage(30, 120) != 0.25 {
		t.Fatal("ByteCoverage")
	}
	if HitRatio(1, 0) != 0 {
		t.Fatal("division by zero not guarded")
	}
	if got := Reduction(200, 150); got != 0.25 {
		t.Fatalf("Reduction = %v", got)
	}
	if Reduction(0, 5) != 0 {
		t.Fatal("Reduction zero baseline")
	}
}

func TestCDF(t *testing.T) {
	points := CDF([]float64{3, 1, 2, 2})
	if len(points) != 3 {
		t.Fatalf("points = %v", points)
	}
	if points[0].Value != 1 || math.Abs(points[0].P-0.25) > 1e-9 {
		t.Fatalf("first = %+v", points[0])
	}
	if points[1].Value != 2 || math.Abs(points[1].P-0.75) > 1e-9 {
		t.Fatalf("dup value point = %+v", points[1])
	}
	if points[2].P != 1 {
		t.Fatalf("last = %+v", points[2])
	}
	if CDF(nil) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if Quantile(vals, 0) != 1 || Quantile(vals, 1) != 5 {
		t.Fatal("extremes wrong")
	}
	if got := Quantile(vals, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(vals, 0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestTableFprint(t *testing.T) {
	tbl := Table{ID: "figX", Title: "demo", Header: []string{"Bin", "Value"}}
	tbl.AddRow(Cell{Text: "A"}, F2(1.0))
	tbl.AddRow(Cell{Text: "LongBinName"}, Pct(0.025))
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	want := "== figX: demo ==\n" +
		"Bin          Value\n" +
		"A            1.00\n" +
		"LongBinName  2.5%\n"
	if out != want {
		t.Fatalf("output:\n%s\nwant:\n%s", out, want)
	}
}

// TestFormatters: a numeric cell carries the value it was built from and
// prints it at its format's precision.
func TestFormatters(t *testing.T) {
	if c := Pct(0.255); c.Text != "25.5%" || c.Value != 0.255 {
		t.Fatalf("Pct = %+v", c)
	}
	if c := F2(1.234); c.Text != "1.23" || c.Value != 1.234 {
		t.Fatalf("F2 = %+v", c)
	}
	if c := F2(math.NaN()); c.Text != "NaN" || !math.IsNaN(c.Value) {
		t.Fatalf("F2(NaN) = %+v", c)
	}
}

// Property: AUC is invariant to monotone transforms of the scores.
func TestPropertyAUCMonotoneInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200
		scores := make([]float64, n)
		labels := make([]float64, n)
		for i := range scores {
			scores[i] = rng.Float64()
			if rng.Float64() < 0.5 {
				labels[i] = 1
			}
		}
		a1 := AUC(scores, labels)
		transformed := make([]float64, n)
		for i, s := range scores {
			transformed[i] = math.Exp(3*s) + 7 // strictly increasing
		}
		a2 := AUC(transformed, labels)
		if math.IsNaN(a1) || math.IsNaN(a2) {
			return true
		}
		return math.Abs(a1-a2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: AUC is within [0, 1].
func TestPropertyAUCRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		scores := make([]float64, n)
		labels := make([]float64, n)
		for i := range scores {
			scores[i] = rng.Float64()
			if rng.Float64() < 0.3 {
				labels[i] = 1
			}
		}
		a := AUC(scores, labels)
		if math.IsNaN(a) {
			return true
		}
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
