package ml

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// model does — on Train, on every published update, on ForceTrain — and
// never on a sample that only fills the buffer, so a prediction made under
// one generation is good until the number changes.
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
	l.Flush()
	before := l.Generation()
	l.ForceTrain()
	if l.Generation() != before+1 {
		t.Fatalf("ForceTrain moved the generation %d -> %d", before, l.Generation())
	}
}

// TestTrainTimeCountsOnlyTraining: samples that only fill the buffer cost no
// training time; the first Train does, once published.
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
	l.Flush()
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
		rec := tr.OnCreate(int32(id), id, rng.Int63n(1<<32), t0.Add(time.Duration(rng.Intn(3600))*time.Second))
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

// lagLearner is the learner's contract run inline. At a full buffer it first
// publishes the batch before — trained into the first model, or scored row by
// row under the model published then, its held-out outcomes recorded in
// arrival order, and boosted through UpdateFrom — and then holds the full
// buffer back as the next batch to publish. ForceTrain publishes the held
// batch and then the buffer, Flush the held batch. The learner's public reads
// are held to it.
type lagLearner struct {
	cfg     LearnerConfig
	rng     *rand.Rand
	model   *gbt.Model
	buf     *lagBatch
	pending *lagBatch // the full buffer not yet published, nil if none

	evalResults                     []bool
	evalNext, evalFilled, evalWrong int

	trainings, updates int64
	generation         uint64
}

type lagBatch struct {
	x    *gbt.Matrix
	y    []float64
	held []int
}

func newLagLearner(width int, cfg LearnerConfig) *lagLearner {
	cfg.applyDefaults()
	return &lagLearner{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), buf: &lagBatch{x: gbt.NewMatrix(width)}, evalResults: make([]bool, cfg.EvalWindow)}
}

func (l *lagLearner) Add(x []float64, y float64) {
	b := l.buf
	if l.model != nil && l.rng.Float64() < l.cfg.EvalFraction {
		b.held = append(b.held, b.x.Rows())
	}
	b.x.AppendRow(x)
	b.y = append(b.y, y)
	due := l.cfg.UpdateBatch
	if l.model == nil && l.pending == nil {
		due = l.cfg.MinTrainSamples
	}
	if b.x.Rows() < due {
		return
	}
	l.Flush()
	if l.model != nil || b.x.Rows() >= l.cfg.MinTrainSamples {
		l.hold()
	}
}

// hold makes the buffer the pending batch and starts a new buffer.
func (l *lagLearner) hold() {
	l.pending = l.buf
	l.buf = &lagBatch{x: gbt.NewMatrix(l.buf.x.Cols())}
}

func (l *lagLearner) Flush() {
	b := l.pending
	if b == nil {
		return
	}
	l.pending = nil
	if l.model == nil {
		if m, err := gbt.Train(b.x, b.y, l.cfg.Params); err == nil {
			l.model = m
			l.trainings++
			l.generation++
		}
		return
	}
	margins := make([]float64, b.x.Rows())
	for i := range margins {
		margins[i] = l.model.PredictMargin(b.x.Row(i))
	}
	for _, i := range b.held {
		l.recordEval((l.model.Link(margins[i]) >= 0.5) == (b.y[i] >= 0.5))
	}
	if err := l.model.UpdateFrom(b.x, b.y, margins, l.cfg.UpdateRounds); err == nil {
		l.updates++
		l.generation++
	}
}

func (l *lagLearner) recordEval(correct bool) {
	if l.evalFilled < len(l.evalResults) {
		l.evalFilled++
	} else if !l.evalResults[l.evalNext] {
		l.evalWrong--
	}
	if !correct {
		l.evalWrong++
	}
	l.evalResults[l.evalNext] = correct
	l.evalNext = (l.evalNext + 1) % len(l.evalResults)
}

func (l *lagLearner) RollingError() float64 {
	if l.evalFilled == 0 {
		return 1.0
	}
	return float64(l.evalWrong) / float64(l.evalFilled)
}

func (l *lagLearner) Ready() bool {
	if l.model == nil {
		return false
	}
	if l.evalFilled < l.cfg.EvalWindow/4 {
		return true
	}
	return l.RollingError() <= l.cfg.ErrorThreshold
}

func (l *lagLearner) ForceTrain() {
	l.Flush()
	if l.buf.x.Rows() > 0 {
		l.hold()
		l.Flush()
	}
}

// differentialConfig is a learner that updates often and retires trees, fed
// a stream whose first training is rejected (LearningRate 2 is invalid); the
// returned params are the valid ones.
func differentialConfig() (LearnerConfig, gbt.Params) {
	cfg := DefaultLearnerConfig()
	cfg.MinTrainSamples = 120
	cfg.UpdateBatch = 70
	cfg.UpdateRounds = 3
	cfg.Params.MaxTrees = 30
	good := cfg.Params
	cfg.Params.LearningRate = 2
	return cfg, good
}

// noisySample is synthSample with every sixth label flipped, so every
// update finds something to fit.
func noisySample(rng *rand.Rand, spec FeatureSpec) ([]float64, float64) {
	x, y := synthSample(rng, spec)
	if rng.Intn(6) == 0 {
		y = 1 - y
	}
	return x, y
}

// TestLearnerMatchesSynchronousReference feeds a learner and the inline lag-one
// reference one stream of 10 000 samples, interrupted by ForceTrain without
// and with a model and by Flush, and after every Add requires the same
// answers from the public reads — Ready, the bits of RollingError,
// Generation, Updates, Trainings — and, at every generation, the same model
// byte for byte. The margins the update goroutine scores in one batch must be
// the reference's, scored row by row when the batch is published.
func TestLearnerMatchesSynchronousReference(t *testing.T) {
	spec := DefaultFeatureSpec()
	cfg, good := differentialConfig()
	l, ref := NewLearner(spec.Width(), cfg), newLagLearner(spec.Width(), cfg)
	rng := rand.New(rand.NewSource(21))
	var lastGen uint64
	compare := func(when string) {
		t.Helper()
		if got, want := l.Ready(), ref.Ready(); got != want {
			t.Fatalf("%s: Ready %v, reference %v", when, got, want)
		}
		if got, want := l.RollingError(), ref.RollingError(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: RollingError %v, reference %v", when, got, want)
		}
		if l.Updates() != ref.updates || l.Trainings() != ref.trainings {
			t.Fatalf("%s: %d updates %d trainings, reference %d and %d", when, l.Updates(), l.Trainings(), ref.updates, ref.trainings)
		}
		gen := l.Generation()
		if gen != ref.generation {
			t.Fatalf("%s: generation %d, reference %d", when, gen, ref.generation)
		}
		if gen == lastGen {
			return
		}
		lastGen = gen
		got, err := json.Marshal(l.Model())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ref.model)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: generation %d's model differs from the reference's (%d vs %d bytes)", when, gen, len(got), len(want))
		}
	}
	add := func(when string) {
		t.Helper()
		x, y := noisySample(rng, spec)
		l.Add(x, y)
		ref.Add(x, y)
		compare(when)
	}

	for i := 0; i < cfg.MinTrainSamples+10; i++ {
		add("rejected first train")
	}
	l.Flush()
	ref.Flush()
	compare("Flush of the rejected first train")
	if l.Model() != nil || l.Trainings() != 0 {
		t.Fatal("a learning rate of 2 was accepted")
	}
	l.cfg.Params, ref.cfg.Params = good, good
	l.ForceTrain()
	ref.ForceTrain()
	compare("ForceTrain without a model")
	if l.Trainings() != 1 {
		t.Fatalf("%d trainings after ForceTrain", l.Trainings())
	}
	for i := 0; i < 10000; i++ {
		add(fmt.Sprint("sample ", i))
		if i%997 == 500 {
			if ref.buf.x.Rows() == 0 {
				add("one row for ForceTrain")
			}
			want := l.Updates() + 1
			if l.inFlight != nil {
				want++
			}
			l.ForceTrain()
			ref.ForceTrain()
			compare("ForceTrain with a model")
			if l.Updates() != want {
				t.Fatalf("ForceTrain with rows buffered made %d updates, want %d", l.Updates(), want)
			}
		}
		if i%1499 == 700 {
			l.Flush()
			ref.Flush()
			compare("Flush")
			if l.inFlight != nil {
				t.Fatal("an update is still in flight after Flush")
			}
		}
	}
	if l.Updates() < 10000/int64(cfg.UpdateBatch) {
		t.Fatalf("only %d updates over the stream", l.Updates())
	}
}

// TestLearnerReadsAcrossInFlightUpdates interleaves Add with the serving
// reads at random, sparsely enough that hundreds of updates run while Add
// goes on filling the other buffer, and holds every read to the lag-one
// reference: Ready, Predict's bits and Pipeline.ScoreBatch's bits. Run under
// -race it also checks that the update, which reads the model the caller
// predicts on, shares nothing with the caller unguarded.
func TestLearnerReadsAcrossInFlightUpdates(t *testing.T) {
	spec := DefaultFeatureSpec()
	cfg, good := differentialConfig()
	cfg.Params = good
	cfg.UpdateBatch = 40
	p := NewPipeline(spec, 30*time.Minute, cfg)
	ref := newLagLearner(spec.Width(), cfg)
	rng := rand.New(rand.NewSource(22))
	tr := NewTracker(DefaultK)
	var recs []*FileRecord
	for id := int64(0); id < 25; id++ {
		rec := tr.OnCreate(int32(id), id, rng.Int63n(1<<32), t0)
		for at, n := t0, rng.Intn(12); n > 0; n-- {
			at = at.Add(time.Duration(1+rng.Intn(1800)) * time.Second)
			rec.RecordAccess(at)
		}
		recs = append(recs, rec)
	}
	now := t0.Add(6 * time.Hour)
	reads, overlapped := 0, 0
	for i := 0; i < 16000; i++ {
		x, y := noisySample(rng, spec)
		p.Learner.Add(x, y)
		ref.Add(x, y)
		if p.Learner.inFlight != nil {
			overlapped++
		}
		if rng.Intn(60) != 0 {
			continue
		}
		reads++
		switch rng.Intn(3) {
		case 0:
			if got, want := p.Learner.Ready(), ref.Ready(); got != want {
				t.Fatalf("sample %d: Ready %v, reference %v", i, got, want)
			}
		case 1:
			probe, _ := noisySample(rng, spec)
			got, ok := p.Learner.Predict(probe)
			if ok != ref.Ready() || (ok && math.Float64bits(got) != math.Float64bits(ref.model.Predict(probe))) {
				t.Fatalf("sample %d: Predict %v (served %v), reference %v", i, got, ok, ref.model.Predict(probe))
			}
		case 2:
			probs, ok := p.ScoreBatch(recs, now)
			if ok != ref.Ready() {
				t.Fatalf("sample %d: ScoreBatch served %v, reference ready %v", i, ok, ref.Ready())
			}
			for k := range probs {
				if want := ref.model.Predict(spec.Vector(recs[k], now)); math.Float64bits(probs[k]) != math.Float64bits(want) {
					t.Fatalf("sample %d file %d: ScoreBatch %v, reference %v", i, k, probs[k], want)
				}
			}
		}
	}
	if u := p.Learner.Updates(); u < 300 || overlapped < 1000 || reads < 100 {
		t.Fatalf("%d updates, %d samples added beside an update in flight, %d reads; the stream should make hundreds of each", u, overlapped, reads)
	}
	if p.Learner.Generation() != ref.generation || math.Float64bits(p.Learner.RollingError()) != math.Float64bits(ref.RollingError()) {
		t.Fatalf("end: generation %d error %v, reference %d and %v", p.Learner.Generation(), p.Learner.RollingError(), ref.generation, ref.RollingError())
	}
}

// TestLearnerPublishesTheSameAtAnyGOMAXPROCS: a learner publishes only at
// points its sample stream fixes, so one stream gives the same sequence of
// generations, serving decisions and Predict bits whether the update
// goroutine shares one processor with the caller or has one to itself.
func TestLearnerPublishesTheSameAtAnyGOMAXPROCS(t *testing.T) {
	spec := DefaultFeatureSpec()
	cfg, good := differentialConfig()
	cfg.Params = good
	run := func(procs int) []uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		l := NewLearner(spec.Width(), cfg)
		rng := rand.New(rand.NewSource(23))
		probe, _ := noisySample(rng, spec)
		var seen []uint64
		for i := 0; i < 4000; i++ {
			x, y := noisySample(rng, spec)
			l.Add(x, y)
			p, ok := l.Predict(probe)
			seen = append(seen, l.Generation(), math.Float64bits(p), math.Float64bits(l.RollingError()))
			if !ok {
				seen = append(seen, 0)
			}
		}
		l.Flush()
		return append(seen, l.Generation(), uint64(l.Updates()))
	}
	one, four := run(1), run(4)
	if len(one) != len(four) {
		t.Fatalf("%d observations at GOMAXPROCS 1, %d at 4", len(one), len(four))
	}
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("observation %d: %#x at GOMAXPROCS 1, %#x at 4", i, one[i], four[i])
		}
	}
	if updates := one[len(one)-1]; updates < 4000/uint64(cfg.UpdateBatch)-2 {
		t.Fatalf("only %d updates over the stream", updates)
	}
}

// TestServingReadsDoNotWaitForTheUpdate holds an update on its goroutine
// and requires every serving read — Ready, Predict, Pipeline.ScoreBatch and
// the counters — and the Adds that do not fill the buffer to return while it
// is held, answering from the published model. Flush then waits for it and
// publishes it.
func TestServingReadsDoNotWaitForTheUpdate(t *testing.T) {
	spec := DefaultFeatureSpec()
	cfg := DefaultLearnerConfig()
	cfg.MinTrainSamples, cfg.UpdateBatch = 100, 50
	p := NewPipeline(spec, 30*time.Minute, cfg)
	l := p.Learner
	rng := rand.New(rand.NewSource(24))
	for l.Model() == nil {
		x, y := noisySample(rng, spec)
		l.Add(x, y)
	}
	l.Flush() // the hook is installed with no update running
	started, release := holdUpdates(l)
	defer release()
	for l.fill.rows() < cfg.UpdateBatch-1 {
		x, y := noisySample(rng, spec)
		l.Add(x, y)
	}
	x, y := noisySample(rng, spec)
	l.Add(x, y) // fills the buffer: the next update starts and is held
	<-started
	if l.inFlight == nil {
		t.Fatal("no update in flight")
	}
	gen, updates := l.Generation(), l.Updates()
	tr := NewTracker(DefaultK)
	var recs []*FileRecord
	for id := int64(0); id < 40; id++ {
		recs = append(recs, tr.OnCreate(int32(id), id, 1<<20, t0))
	}
	probe, _ := noisySample(rng, spec)
	want := l.Model().Predict(probe)
	reads := make(chan error, 1)
	go func() {
		if !l.Ready() {
			reads <- fmt.Errorf("not ready under the trained model")
			return
		}
		if got, ok := l.Predict(probe); !ok || math.Float64bits(got) != math.Float64bits(want) {
			reads <- fmt.Errorf("Predict %v (served %v), published model %v", got, ok, want)
			return
		}
		if probs, ok := p.ScoreBatch(recs, t0.Add(time.Hour)); !ok || len(probs) != len(recs) {
			reads <- fmt.Errorf("ScoreBatch served %d probabilities, ok=%v", len(probs), ok)
			return
		}
		for i := 0; i < cfg.UpdateBatch-1; i++ {
			x, y := noisySample(rng, spec)
			l.Add(x, y)
		}
		if l.Generation() != gen || l.Updates() != updates {
			reads <- fmt.Errorf("generation %d and %d updates while the update is held, %d and %d before", l.Generation(), l.Updates(), gen, updates)
			return
		}
		reads <- nil
	}()
	select {
	case err := <-reads:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a serving read waited for the held update")
	}
	release()
	l.Flush()
	if l.inFlight != nil || l.Updates() != updates+1 || l.Generation() != gen+1 {
		t.Fatalf("after Flush: in flight %v, %d updates, generation %d", l.inFlight != nil, l.Updates(), l.Generation())
	}
}
