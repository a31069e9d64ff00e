package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"octostore/internal/gbt"
)

// rollingErrorLinear recounts the evaluation ring the way RollingError did
// before it kept a running count.
func rollingErrorLinear(l *Learner) float64 {
	if l.evalFilled == 0 {
		return 1.0
	}
	wrong := 0
	for i := 0; i < l.evalFilled; i++ {
		if !l.evalResults[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(l.evalFilled)
}

// TestRollingErrorMatchesRecount drives 10k random evaluation outcomes
// through the ring, in runs so that the window swings between mostly right
// and mostly wrong, and requires the running count to equal the recount at
// every step — before the ring fills, at the wrap, and long after.
func TestRollingErrorMatchesRecount(t *testing.T) {
	cfg := DefaultLearnerConfig()
	cfg.EvalWindow = 200
	l := NewLearner(DefaultFeatureSpec().Width(), cfg)
	if got := l.RollingError(); got != 1.0 {
		t.Fatalf("rolling error before any evaluation = %v, want 1", got)
	}
	rng := rand.New(rand.NewSource(8))
	pCorrect := 0.5
	for i := 0; i < 10000; i++ {
		if i%300 == 0 {
			pCorrect = rng.Float64()
		}
		l.recordEval(rng.Float64() < pCorrect)
		if got, want := l.RollingError(), rollingErrorLinear(l); got != want {
			t.Fatalf("after %d evaluations: RollingError = %v, recount = %v", i+1, got, want)
		}
	}
	if l.evalFilled != cfg.EvalWindow {
		t.Fatalf("ring holds %d results, want %d", l.evalFilled, cfg.EvalWindow)
	}
}

// TestGenerationCountsModelChanges: the generation moves exactly when the
// model does — on Train, on every Update, on ForceTrain — and never on a
// sample that only fills the buffer, so a prediction made under one
// generation is good until the number changes.
func TestGenerationCountsModelChanges(t *testing.T) {
	spec := DefaultFeatureSpec()
	cfg := DefaultLearnerConfig()
	cfg.MinTrainSamples = 60
	cfg.UpdateBatch = 30
	l := NewLearner(spec.Width(), cfg)
	rng := rand.New(rand.NewSource(4))
	probe, _ := synthSample(rng, spec)
	var lastGen uint64
	var lastPred float64
	for i := 0; i < 400; i++ {
		x, y := synthSample(rng, spec)
		l.Add(x, y)
		gen := l.Generation()
		if want := uint64(l.Trainings() + l.Updates()); gen != want {
			t.Fatalf("sample %d: generation %d, but %d trainings + %d updates", i, gen, l.Trainings(), l.Updates())
		}
		if l.Model() == nil {
			continue
		}
		pred := l.Model().Predict(probe)
		if gen == lastGen && pred != lastPred {
			t.Fatalf("sample %d: prediction moved %v -> %v inside generation %d", i, lastPred, pred, gen)
		}
		lastGen, lastPred = gen, pred
	}
	if l.Updates() < 5 {
		t.Fatalf("only %d updates; the stream should have produced more", l.Updates())
	}
	l.Add(probe, 1)
	before := l.Generation()
	l.ForceTrain()
	if l.Generation() != before+1 {
		t.Fatalf("ForceTrain moved the generation %d -> %d", before, l.Generation())
	}
}

// TestTrainTimeCountsOnlyTraining: samples that only fill the buffer cost no
// training time; the first Train does.
func TestTrainTimeCountsOnlyTraining(t *testing.T) {
	spec := DefaultFeatureSpec()
	cfg := DefaultLearnerConfig()
	cfg.MinTrainSamples = 100
	l := NewLearner(spec.Width(), cfg)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < cfg.MinTrainSamples-1; i++ {
		x, y := synthSample(rng, spec)
		l.Add(x, y)
	}
	if l.TrainTime() != 0 {
		t.Fatalf("train time %v before anything trained", l.TrainTime())
	}
	x, y := synthSample(rng, spec)
	l.Add(x, y)
	if l.Trainings() != 1 || l.TrainTime() <= 0 {
		t.Fatalf("after the first training: trainings=%d train time=%v", l.Trainings(), l.TrainTime())
	}
}

// TestScoreBatchMatchesScore: the batch path returns, file for file, the
// bits the single path returns, and both share the serving gate.
func TestScoreBatchMatchesScore(t *testing.T) {
	cfg := DefaultLearnerConfig()
	cfg.MinTrainSamples = 100
	cfg.UpdateBatch = 50
	p := NewPipeline(DefaultFeatureSpec(), 30*time.Minute, cfg)
	tr := NewTracker(DefaultK)
	rng := rand.New(rand.NewSource(12))
	var recs []*FileRecord
	for id := int64(0); id < 37; id++ {
		rec := tr.OnCreate(id, rng.Int63n(1<<32), t0.Add(time.Duration(rng.Intn(3600))*time.Second))
		at := rec.Created
		for n := rng.Intn(20); n > 0; n-- {
			at = at.Add(time.Duration(1+rng.Intn(1800)) * time.Second)
			rec.RecordAccess(at)
		}
		recs = append(recs, rec)
	}
	now := t0.Add(12 * time.Hour)
	if _, ok := p.ScoreBatch(recs, now); ok {
		t.Fatal("untrained pipeline served a batch")
	}
	for at := t0.Add(2 * time.Hour); p.Learner.Updates() < 3; at = at.Add(time.Minute) {
		for _, rec := range recs {
			p.Sample(rec, at)
		}
	}
	if !p.Learner.Ready() {
		t.Fatalf("learner not ready, rolling error %v", p.Learner.RollingError())
	}
	probs, ok := p.ScoreBatch(recs, now)
	if !ok || len(probs) != len(recs) {
		t.Fatalf("ScoreBatch = %d probabilities, ok=%v", len(probs), ok)
	}
	for i, rec := range recs {
		want, _ := p.Score(rec, now)
		if math.Float64bits(probs[i]) != math.Float64bits(want) {
			t.Fatalf("file %d: batch %v, single %v", i, probs[i], want)
		}
		// The caller-owned row holds what Vector allocates.
		row := make([]float64, p.Spec.Width())
		p.Spec.VectorInto(rec, now, row)
		for j, v := range p.Spec.Vector(rec, now) {
			if math.Float64bits(v) != math.Float64bits(row[j]) {
				t.Fatalf("file %d feature %d: VectorInto %v, Vector %v", i, j, row[j], v)
			}
		}
	}
	// The result is scored into the pipeline's own slice: a selection or a
	// tick allocates nothing for it.
	if allocs := testing.AllocsPerRun(10, func() { p.ScoreBatch(recs, now) }); allocs != 0 {
		t.Fatalf("ScoreBatch makes %v allocations per call", allocs)
	}
	if probs, ok := p.ScoreBatch(nil, now); !ok || len(probs) != 0 {
		t.Fatalf("empty batch = %v, ok=%v", probs, ok)
	}
}

// TestUpdateBoostsFromTheMarginsAddComputed follows a 10k-sample stream
// through a learner and checks the one forest pass per row two ways.
// Whenever the model stands still, the margin kept for every buffered row is
// bit for bit what PredictMarginBatch says of the buffer now: those are the
// margins update hands over. And whenever the model moves, it moves to
// exactly the model a shadow gets from gbt.Train / Model.Update — which
// computes the starting margins itself — on the same rows. The stream
// starts with a first train that is rejected and leaves its rows buffered,
// and is interrupted by ForceTrain without and with a model.
func TestUpdateBoostsFromTheMarginsAddComputed(t *testing.T) {
	spec := DefaultFeatureSpec()
	cfg := DefaultLearnerConfig()
	cfg.MinTrainSamples = 120
	cfg.UpdateBatch = 70
	cfg.UpdateRounds = 3
	cfg.Params.MaxTrees = 30
	good := cfg.Params
	cfg.Params.LearningRate = 2 // rejected by gbt.Train
	l := NewLearner(spec.Width(), cfg)
	rng := rand.New(rand.NewSource(21))

	var shadow *gbt.Model
	shadowX, shadowY := gbt.NewMatrix(spec.Width()), []float64(nil)
	gen := l.Generation()
	follow := func(when string) {
		t.Helper()
		rows := l.bufX.Rows()
		if l.Generation() == gen {
			if rows != shadowX.Rows() {
				t.Fatalf("%s: %d rows buffered, %d fed since the model last moved", when, rows, shadowX.Rows())
			}
			if l.model == nil {
				if len(l.bufM) != 0 {
					t.Fatalf("%s: %d margins kept without a model", when, len(l.bufM))
				}
				return
			}
			want := make([]float64, rows)
			l.model.PredictMarginBatch(l.bufX, want)
			if len(l.bufM) != rows {
				t.Fatalf("%s: %d margins for %d buffered rows", when, len(l.bufM), rows)
			}
			for i, m := range l.bufM {
				if math.Float64bits(m) != math.Float64bits(want[i]) {
					t.Fatalf("%s: row %d carries margin %v, the model says %v", when, i, m, want[i])
				}
			}
			return
		}
		gen = l.Generation()
		if rows != 0 || len(l.bufM) != 0 {
			t.Fatalf("%s: the model moved and left %d rows, %d margins buffered", when, rows, len(l.bufM))
		}
		var err error
		if shadow == nil {
			shadow, err = gbt.Train(shadowX, shadowY, good)
		} else {
			err = shadow.Update(shadowX, shadowY, cfg.UpdateRounds)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shadowX.Rows(); i++ {
			got, want := l.model.PredictMargin(shadowX.Row(i)), shadow.PredictMargin(shadowX.Row(i))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: learner's model gives row %d margin %v, the shadow %v", when, i, got, want)
			}
		}
		if l.model.NumTrees() != shadow.NumTrees() {
			t.Fatalf("%s: %d trees, shadow %d", when, l.model.NumTrees(), shadow.NumTrees())
		}
		shadowX.Reset()
		shadowY = shadowY[:0]
	}
	add := func(when string) {
		t.Helper()
		x, y := synthSample(rng, spec)
		if rng.Intn(6) == 0 {
			y = 1 - y // noise, so every update finds something to fit
		}
		shadowX.AppendRow(x)
		shadowY = append(shadowY, y)
		l.Add(x, y)
		follow(when)
	}

	for i := 0; i < cfg.MinTrainSamples+10; i++ {
		add("rejected first train")
	}
	if l.model != nil || l.bufX.Rows() != cfg.MinTrainSamples+10 {
		t.Fatalf("rejected train: model %v, %d rows buffered", l.model != nil, l.bufX.Rows())
	}
	l.cfg.Params = good
	l.ForceTrain()
	follow("ForceTrain without a model")
	if l.Trainings() != 1 {
		t.Fatalf("%d trainings after ForceTrain", l.Trainings())
	}
	for i := 0; i < 10000; i++ {
		add(fmt.Sprint("sample ", i))
		if i%997 == 500 {
			if l.bufX.Rows() == 0 {
				add("one row for ForceTrain")
			}
			before := l.Updates()
			l.ForceTrain()
			follow("ForceTrain with a model")
			if l.Updates() != before+1 {
				t.Fatalf("ForceTrain with %d rows buffered did not update", shadowX.Rows())
			}
		}
	}
	if l.Updates() < 10000/int64(cfg.UpdateBatch) {
		t.Fatalf("only %d updates over the stream", l.Updates())
	}
}
