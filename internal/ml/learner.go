package ml

import (
	"math/rand"
	"slices"
	"sync"
	"time"

	"octostore/internal/gbt"
)

// LearnerConfig configures an incremental learner. Callers start from
// DefaultLearnerConfig and change what they need.
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

// Learner trains a gbt model incrementally from a stream of labelled
// samples and gates predictions on a rolling evaluation error
// (Section 4.2/4.4). It occasionally holds a sample out for evaluation
// before training on it ("the system will occasionally use some training
// data points for evaluating the performance of M before using them for
// training M").
//
// Training runs behind the serving model. Add only buffers a sample; when
// the buffer is full, Add publishes the training in flight, waiting for it if
// it has not finished, and hands the full buffer to a goroutine, while Add
// fills a new buffer and the caller keeps predicting. With no model yet the
// goroutine trains the first one; otherwise it scores the buffer's rows
// under the model just published, takes the held-out rows' outcomes from
// those margins and grows the update's trees beside the model. Publishing
// installs the first model, or commits the trees, enters the outcomes into
// the evaluation ring in arrival order and counts the update. It happens only
// in Add at a full buffer, in ForceTrain and in Flush, points fixed by the
// sample stream, so the serving model is at most one batch behind and what a
// caller sees never depends on how fast the goroutine ran. Every other method
// reads what is published and never waits. A Learner is not safe for
// concurrent use.
type Learner struct {
	cfg   LearnerConfig
	width int
	rng   *rand.Rand

	model *gbt.Model
	fill  *batch // the buffer Add appends to; a full one goes to the update

	inFlight *batch         // the batch of the training not yet published, nil if none
	done     sync.WaitGroup // held by the training goroutine
	delta    gbt.Delta      // the trees an update grows, until published

	hold func() // tests only: the training goroutine runs it first

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

// batch is one buffer of labelled rows and, once its training has run, what
// the training found.
type batch struct {
	x    *gbt.Matrix
	y    []float64
	held []int // the rows held out for evaluation, ascending

	trained *gbt.Model    // with no model yet: the first one, nil if Train rejected the batch
	m       []float64     // an update's margins of every row under the model it started from
	right   []bool        // per held row: whether that model classified it right
	grown   bool          // the model's Grow took the batch
	took    time.Duration // how long Train or Grow ran
}

// newBatch returns an empty buffer with room for rows samples.
func newBatch(width, rows int) *batch {
	b := &batch{x: gbt.NewMatrix(width), y: make([]float64, 0, rows), m: make([]float64, 0, rows)}
	b.x.Grow(rows)
	return b
}

func (b *batch) rows() int { return b.x.Rows() }

// NewLearner builds a learner for feature vectors of the given width.
func NewLearner(width int, cfg LearnerConfig) *Learner {
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

// Trainings returns the number of first models published (0 or 1).
func (l *Learner) Trainings() int64 { return l.trainings }

// Updates returns the number of incremental updates published.
func (l *Learner) Updates() int64 { return l.updates }

// Model returns the serving model (nil before the first training). It may
// be read beside an update in flight, but only the learner changes it.
func (l *Learner) Model() *gbt.Model { return l.model }

// Generation counts the changes to the model: the first model and every
// published update bump it, so a prediction is reusable exactly as long as
// it stands still.
func (l *Learner) Generation() uint64 { return l.generation }

// TrainTime returns cumulative wall-clock time spent in the published
// trainings' Train, Grow and Commit, for the Section 7.7 overhead report.
// Scoring an update's rows is not counted.
func (l *Learner) TrainTime() time.Duration { return l.trainTime }

// Add feeds one labelled sample into the pipeline: occasionally hold it out
// for evaluation, always buffer, and when the buffer fills publish the
// training in flight and start the next one.
func (l *Learner) Add(x []float64, y float64) {
	l.samplesSeen++
	b := l.fill
	if l.model != nil && l.rng.Float64() < l.cfg.EvalFraction {
		b.held = append(b.held, b.rows())
	}
	b.x.AppendRow(x)
	b.y = append(b.y, y)
	if b.rows() < l.due() {
		return
	}
	l.publish()
	if l.model != nil || b.rows() >= l.cfg.MinTrainSamples {
		l.start()
	}
}

// due is the row count at which the buffer is full: MinTrainSamples while
// nothing has trained or is training, UpdateBatch after.
func (l *Learner) due() int {
	if l.model == nil && l.inFlight == nil {
		return l.cfg.MinTrainSamples
	}
	return l.cfg.UpdateBatch
}

// start hands the buffer to a goroutine that trains from it, and gives Add a
// new buffer.
//
// The buffer is not recycled. Reusing the one the last update dropped saves
// an allocation per batch. But then a trace_xgb replay allocates a third as
// much and collects a third as often, and its heap in use grows by an
// eighth, mostly other objects' sparse spans.
func (l *Learner) start() {
	b := l.fill
	l.fill = newBatch(l.width, b.rows())
	l.inFlight = b
	l.done.Add(1)
	go l.train(l.model, b)
}

// train runs on the training goroutine: it trains the first model on b when
// m, the serving model, is nil, and grows an update of m from b otherwise. It
// only reads m, and writes only b and the learner's delta, which nothing else
// touches until publish has waited for it.
func (l *Learner) train(m *gbt.Model, b *batch) {
	defer l.done.Done()
	if l.hold != nil {
		l.hold()
	}
	if m == nil {
		start := time.Now()
		b.trained, _ = gbt.Train(b.x, b.y, l.cfg.Params)
		b.took = time.Since(start)
		return
	}
	b.m = slices.Grow(b.m[:0], b.rows())[:b.rows()]
	m.PredictMarginBatch(b.x, b.m)
	for _, i := range b.held {
		b.right = append(b.right, (m.Link(b.m[i]) >= 0.5) == (b.y[i] >= 0.5))
	}
	start := time.Now()
	b.grown = m.Grow(&l.delta, b.x, b.y, b.m, l.cfg.UpdateRounds) == nil
	b.took = time.Since(start)
}

// publish waits for the training in flight, if any, and makes it the
// serving state: the first model, or the update's outcomes, entered into the
// evaluation ring in arrival order, and its trees. A batch Train or Grow
// rejected is dropped, not retried.
func (l *Learner) publish() {
	b := l.inFlight
	if b == nil {
		return
	}
	l.done.Wait()
	l.inFlight = nil
	l.trainTime += b.took
	if l.model == nil {
		if b.trained != nil {
			l.model = b.trained
			l.trainings++
			l.generation++
		}
		return
	}
	for _, right := range b.right {
		l.recordEval(right)
	}
	if !b.grown {
		return
	}
	start := time.Now()
	l.model.Commit(&l.delta)
	l.trainTime += time.Since(start)
	l.updates++
	l.generation++
}

// Flush publishes the training in flight, waiting for it to finish, so every
// full buffer added so far is in the model. It is for the end of a run and
// for offline callers; the serving path never needs it.
func (l *Learner) Flush() { l.publish() }

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

// RollingError returns the error rate over the recent evaluation window
// (1.0 when no evaluations have happened yet).
func (l *Learner) RollingError() float64 {
	if l.evalFilled == 0 {
		return 1.0
	}
	return float64(l.evalWrong) / float64(l.evalFilled)
}

// Ready reports whether the model is trained and its rolling error has
// passed the serving gate.
func (l *Learner) Ready() bool {
	if l.model == nil {
		return false
	}
	if l.evalFilled < l.cfg.EvalWindow/4 {
		// Not enough evaluations yet: optimistically serve once trained,
		// the gate engages as evaluations accumulate.
		return true
	}
	return l.RollingError() <= l.cfg.ErrorThreshold
}

// Predict returns the model's probability for x and whether the learner is
// ready to serve.
func (l *Learner) Predict(x []float64) (float64, bool) {
	if !l.Ready() {
		return 0, false
	}
	return l.model.Predict(x), true
}

// ForceTrain publishes the training in flight, then trains on whatever is
// buffered and publishes that too (used by offline experiments); with an
// empty buffer it only publishes.
func (l *Learner) ForceTrain() {
	l.publish()
	if l.fill.rows() > 0 {
		l.start()
		l.publish()
	}
}
