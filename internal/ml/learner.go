package ml

import (
	"math/rand"
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
type Learner struct {
	cfg   LearnerConfig
	width int
	rng   *rand.Rand

	model *gbt.Model
	bufX  *gbt.Matrix
	bufY  []float64
	bufM  []float64 // the model's margin of every buffered row; empty while there is no model

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

// NewLearner builds a learner for feature vectors of the given width.
func NewLearner(width int, cfg LearnerConfig) *Learner {
	cfg.applyDefaults()
	return &Learner{
		cfg:         cfg,
		width:       width,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		bufX:        gbt.NewMatrix(width),
		evalResults: make([]bool, cfg.EvalWindow),
	}
}

// SamplesSeen returns how many labelled samples have been added.
func (l *Learner) SamplesSeen() int64 { return l.samplesSeen }

// Trainings returns the number of full Train calls performed.
func (l *Learner) Trainings() int64 { return l.trainings }

// Updates returns the number of incremental Update calls performed.
func (l *Learner) Updates() int64 { return l.updates }

// Model returns the current model (nil before the first training).
func (l *Learner) Model() *gbt.Model { return l.model }

// Generation counts the changes to the model: every Train and Update bumps
// it, so a prediction is reusable exactly as long as it stands still.
func (l *Learner) Generation() uint64 { return l.generation }

// TrainTime returns cumulative wall-clock time spent in Train/Update, for
// the Section 7.7 overhead report.
func (l *Learner) TrainTime() time.Duration { return l.trainTime }

// Add feeds one labelled sample into the pipeline: occasionally evaluate,
// always buffer, train or update when the buffer fills.
func (l *Learner) Add(x []float64, y float64) {
	l.samplesSeen++
	if l.model != nil {
		// The one forest pass this row gets: the hold-out evaluation reads
		// the margin now, the update the row ends up in boosts from it. The
		// buffer is emptied whenever the model changes, so the margin still
		// holds then.
		margin := l.model.PredictMargin(x)
		if l.rng.Float64() < l.cfg.EvalFraction {
			l.recordEval((l.model.Link(margin) >= 0.5) == (y >= 0.5))
		}
		l.bufM = append(l.bufM, margin)
	}
	l.bufX.AppendRow(x)
	l.bufY = append(l.bufY, y)
	if l.model == nil {
		if l.bufX.Rows() >= l.cfg.MinTrainSamples {
			l.train()
		}
	} else if l.bufX.Rows() >= l.cfg.UpdateBatch {
		// A batch the model rejects is dropped, not retried.
		l.update()
		l.resetBuffer()
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

// train fits the first model on the buffer; a rejected buffer stays
// buffered.
func (l *Learner) train() {
	start := time.Now()
	m, err := gbt.Train(l.bufX, l.bufY, l.cfg.Params)
	l.trainTime += time.Since(start)
	if err != nil {
		return
	}
	l.model = m
	l.trainings++
	l.generation++
	l.resetBuffer()
}

// update boosts the model on the buffer and reports whether it took it.
func (l *Learner) update() bool {
	start := time.Now()
	err := l.model.UpdateFrom(l.bufX, l.bufY, l.bufM, l.cfg.UpdateRounds)
	l.trainTime += time.Since(start)
	if err != nil {
		return false
	}
	l.updates++
	l.generation++
	return true
}

func (l *Learner) resetBuffer() {
	l.bufX.Reset()
	l.bufY = l.bufY[:0]
	l.bufM = l.bufM[:0]
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

// ForceTrain trains immediately on whatever is buffered (used by offline
// experiments); it is a no-op with an empty buffer.
func (l *Learner) ForceTrain() {
	if l.bufX.Rows() == 0 {
		return
	}
	if l.model == nil {
		l.train()
	} else if l.update() {
		l.resetBuffer()
	}
}
