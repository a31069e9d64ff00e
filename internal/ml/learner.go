package ml

import (
	"math/rand"
	"sync"
	"time"

	"octostore/internal/gbt"
)

// LearnerConfig configures an incremental learner.
type LearnerConfig struct {
	// Params are the boosting hyperparameters (PaperParams by default).
	Params gbt.Params
	// MinTrainSamples is the number of buffered samples required before the
	// first model is trained.
	MinTrainSamples int
	// UpdateBatch is the buffered-sample count that triggers an incremental
	// Update once a model exists.
	UpdateBatch int
	// UpdateRounds is the number of trees added per incremental update.
	UpdateRounds int
	// ErrorThreshold gates serving: predictions are only offered once the
	// rolling evaluation error drops below this value (Section 4.4 suggests
	// 0.01; the framework default is more permissive to start benefiting
	// earlier).
	ErrorThreshold float64
	// EvalFraction is the probability that an incoming sample is used to
	// evaluate the current model before being used to train it.
	EvalFraction float64
	// EvalWindow is the number of recent evaluations in the rolling error.
	EvalWindow int
	// Seed drives evaluation sampling.
	Seed int64
}

// DefaultLearnerConfig returns the configuration used by the XGB policies.
func DefaultLearnerConfig() LearnerConfig {
	return LearnerConfig{
		Params:          gbt.PaperParams(),
		MinTrainSamples: 200,
		UpdateBatch:     100,
		UpdateRounds:    4,
		ErrorThreshold:  0.25,
		EvalFraction:    0.2,
		EvalWindow:      200,
		Seed:            1,
	}
}

func (c *LearnerConfig) applyDefaults() {
	d := DefaultLearnerConfig()
	if c.Params.Rounds == 0 {
		c.Params = d.Params
	}
	if c.MinTrainSamples <= 0 {
		c.MinTrainSamples = d.MinTrainSamples
	}
	if c.UpdateBatch <= 0 {
		c.UpdateBatch = d.UpdateBatch
	}
	if c.UpdateRounds <= 0 {
		c.UpdateRounds = d.UpdateRounds
	}
	if c.ErrorThreshold <= 0 {
		c.ErrorThreshold = d.ErrorThreshold
	}
	if c.EvalFraction <= 0 {
		c.EvalFraction = d.EvalFraction
	}
	if c.EvalWindow <= 0 {
		c.EvalWindow = d.EvalWindow
	}
}

// Learner trains a gbt model incrementally from a stream of labelled
// samples and gates predictions on a rolling evaluation error
// (Section 4.2/4.4). It occasionally holds a sample out for evaluation
// before training on it ("the system will occasionally use some training
// data points for evaluating the performance of M before using them for
// training M").
//
// Training runs beside the caller. Add only buffers a sample; when the
// buffer is full, one goroutine takes it over, scores its rows under the
// model they arrived under and boosts the model from those margins, while
// Add fills a new buffer. A held-out sample is scored when the evaluation
// state is next read, under the same model. At most one update is in flight,
// and every method that reads the model or the evaluation state — Ready,
// Predict, Model, Generation, RollingError, Updates, Trainings, TrainTime,
// ForceTrain — first waits for it, so each returns what it would had the
// update run inside Add. A Learner is not safe for concurrent use.
type Learner struct {
	cfg   LearnerConfig
	width int
	rng   *rand.Rand

	model *gbt.Model
	fill  *batch // the buffer Add appends to; a full one goes to the update

	inFlight bool           // an update has been started and not yet joined
	done     sync.WaitGroup // held by the update in flight

	evalResults []bool // ring of recent eval correctness
	evalNext    int
	evalFilled  int
	evalWrong   int // incorrect entries among the evalFilled in the ring

	samplesSeen int64
	trainings   int64
	updates     int64
	generation  uint64
	trainTime   time.Duration
}

// batch is one buffer of labelled rows. Every row arrived under the current
// model (the buffer is emptied whenever the model changes), so a margin
// computed for it at any time before the model next changes is the margin
// the update boosts from.
type batch struct {
	x *gbt.Matrix
	y []float64
	m []float64 // m[i] is row i's margin once scored, 0 until then
	// held lists the rows held out for evaluation, ascending; the first
	// evaluated of them are scored and in the ring.
	held      []int
	evaluated int
}

// newBatch returns an empty buffer with room for rows samples.
func newBatch(width, rows int) *batch {
	b := &batch{x: gbt.NewMatrix(width), y: make([]float64, 0, rows), m: make([]float64, 0, rows)}
	b.x.Grow(rows)
	return b
}

func (b *batch) rows() int { return b.x.Rows() }

func (b *batch) reset() {
	b.x.Reset()
	b.y, b.m, b.held, b.evaluated = b.y[:0], b.m[:0], b.held[:0], 0
}

// NewLearner builds a learner for feature vectors of the given width.
func NewLearner(width int, cfg LearnerConfig) *Learner {
	cfg.applyDefaults()
	return &Learner{
		cfg:         cfg,
		width:       width,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		fill:        newBatch(width, 0),
		evalResults: make([]bool, cfg.EvalWindow),
	}
}

// SamplesSeen returns how many labelled samples have been added.
func (l *Learner) SamplesSeen() int64 { return l.samplesSeen }

// Trainings returns the number of full Train calls performed.
func (l *Learner) Trainings() int64 { l.join(); return l.trainings }

// Updates returns the number of incremental Update calls performed.
func (l *Learner) Updates() int64 { l.join(); return l.updates }

// Model returns the current model (nil before the first training).
func (l *Learner) Model() *gbt.Model { l.join(); return l.model }

// Generation counts the changes to the model: every Train and Update bumps
// it, so a prediction is reusable exactly as long as it stands still.
func (l *Learner) Generation() uint64 { l.join(); return l.generation }

// TrainTime returns cumulative wall-clock time spent in Train/Update, for
// the Section 7.7 overhead report. Scoring an update's rows is not counted.
func (l *Learner) TrainTime() time.Duration { l.join(); return l.trainTime }

// Add feeds one labelled sample into the pipeline: occasionally hold it out
// for evaluation, always buffer, train or start an update when the buffer
// fills.
func (l *Learner) Add(x []float64, y float64) {
	l.samplesSeen++
	b := l.fill
	if l.model != nil && l.rng.Float64() < l.cfg.EvalFraction {
		b.held = append(b.held, b.rows())
	}
	b.x.AppendRow(x)
	b.y = append(b.y, y)
	b.m = append(b.m, 0)
	if l.model == nil {
		if b.rows() >= l.cfg.MinTrainSamples {
			l.train()
		}
	} else if b.rows() >= l.cfg.UpdateBatch {
		l.startUpdate()
	}
}

// startUpdate hands the full buffer to a goroutine that scores and boosts
// from it, and gives Add a new one. A batch the model rejects is dropped, not
// retried.
//
// The buffer is not recycled. Reusing the one the last update dropped saves
// an allocation per batch. But then a trace_xgb replay allocates a third as
// much and collects a third as often, and its heap in use grows by an
// eighth, mostly other objects' sparse spans.
func (l *Learner) startUpdate() {
	l.join()
	b := l.fill
	l.fill = newBatch(l.width, b.rows())
	l.inFlight = true
	l.done.Add(1)
	go func() {
		defer l.done.Done()
		l.update(b)
	}()
}

// join waits for the update in flight, if any.
func (l *Learner) join() {
	if l.inFlight {
		l.done.Wait()
		l.inFlight = false
	}
}

// recordEval overwrites the oldest slot of the evaluation ring, keeping the
// count of incorrect entries in step.
func (l *Learner) recordEval(correct bool) {
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

// evaluate scores b's held-out rows not yet evaluated, in order, and records
// each outcome.
func (l *Learner) evaluate(b *batch) {
	for _, i := range b.held[b.evaluated:] {
		b.m[i] = l.model.PredictMargin(b.x.Row(i))
		l.recordEval((l.model.Link(b.m[i]) >= 0.5) == (b.y[i] >= 0.5))
	}
	b.evaluated = len(b.held)
}

// score gives every row of b its margin in one batch: the held-out rows are
// recorded through evaluate first, and the batch gives them the same bits
// again.
func (l *Learner) score(b *batch) {
	l.evaluate(b)
	l.model.PredictMarginBatch(b.x, b.m)
}

// train fits the first model on the buffer; a rejected buffer stays
// buffered.
func (l *Learner) train() {
	start := time.Now()
	m, err := gbt.Train(l.fill.x, l.fill.y, l.cfg.Params)
	l.trainTime += time.Since(start)
	if err != nil {
		return
	}
	l.model = m
	l.trainings++
	l.generation++
	l.fill.reset()
}

// update scores b and boosts the model on it, and reports whether the model
// took it.
func (l *Learner) update(b *batch) bool {
	l.score(b)
	start := time.Now()
	err := l.model.UpdateFrom(b.x, b.y, b.m, l.cfg.UpdateRounds)
	l.trainTime += time.Since(start)
	if err != nil {
		return false
	}
	l.updates++
	l.generation++
	return true
}

// settle waits for the update in flight and scores the held-out rows since,
// so the evaluation state is what it would be had every sample been
// evaluated on arrival.
func (l *Learner) settle() {
	l.join()
	if l.model != nil {
		l.evaluate(l.fill)
	}
}

// RollingError returns the error rate over the recent evaluation window
// (1.0 when no evaluations have happened yet).
func (l *Learner) RollingError() float64 {
	l.settle()
	return l.rollingError()
}

func (l *Learner) rollingError() float64 {
	if l.evalFilled == 0 {
		return 1.0
	}
	return float64(l.evalWrong) / float64(l.evalFilled)
}

// Ready reports whether the model is trained and its rolling error has
// passed the serving gate.
func (l *Learner) Ready() bool {
	l.settle()
	if l.model == nil {
		return false
	}
	if l.evalFilled < l.cfg.EvalWindow/4 {
		// Not enough evaluations yet: optimistically serve once trained,
		// the gate engages as evaluations accumulate.
		return true
	}
	return l.rollingError() <= l.cfg.ErrorThreshold
}

// Predict returns the model's probability for x and whether the learner is
// ready to serve.
func (l *Learner) Predict(x []float64) (float64, bool) {
	if !l.Ready() {
		return 0, false
	}
	return l.model.Predict(x), true
}

// ForceTrain trains immediately on whatever is buffered (used by offline
// experiments); it is a no-op with an empty buffer.
func (l *Learner) ForceTrain() {
	l.join()
	if l.fill.rows() == 0 {
		return
	}
	if l.model == nil {
		l.train()
	} else if l.update(l.fill) {
		l.fill.reset()
	}
}
