package ml

import (
	"slices"
	"time"

	"octostore/internal/gbt"
)

// Pipeline binds a feature spec, a class window, and an incremental learner
// into the full Section 4 pipeline for one model. The framework runs two
// pipelines: the upgrade model with a small window (will the file be
// accessed soon?) and the downgrade model with a large window (has the file
// gone cold?).
type Pipeline struct {
	Spec    FeatureSpec
	Window  time.Duration
	Learner *Learner

	row   []float64   // the feature vector Sample and Score build in place
	batch *gbt.Matrix // ScoreBatch's rows
	probs []float64   // and its result
}

// NewPipeline builds a pipeline with the given class window.
func NewPipeline(spec FeatureSpec, window time.Duration, cfg LearnerConfig) *Pipeline {
	return &Pipeline{
		Spec:    spec,
		Window:  window,
		Learner: NewLearner(spec.Width(), cfg),
	}
}

// Sample generates one training point for a file at current time `now` by
// sliding the reference time one class window into the past
// (Section 4.2): features come from accesses at or before tr = now-w, the
// label from whether the file was accessed in (tr, now].
// Files created after the reference time are skipped (they could not have
// been observed at tr); it reports whether a sample was produced.
func (p *Pipeline) Sample(rec *FileRecord, now time.Time) bool {
	tr := now.Add(-p.Window)
	if rec.Created.After(tr) {
		return false
	}
	p.Learner.Add(p.vector(rec, tr), Label(rec, tr, p.Window))
	return true
}

// vector builds the file's features at ref in the pipeline's scratch row;
// the result is valid until the next call.
func (p *Pipeline) vector(rec *FileRecord, ref time.Time) []float64 {
	if len(p.row) != p.Spec.Width() {
		p.row = make([]float64, p.Spec.Width())
	}
	p.Spec.VectorInto(rec, ref, p.row)
	return p.row
}

// Score predicts the probability that the file will be accessed within the
// class window starting now (reference time = now, Section 4.4). ok is
// false while the learner is not ready to serve.
func (p *Pipeline) Score(rec *FileRecord, now time.Time) (prob float64, ok bool) {
	return p.Learner.Predict(p.vector(rec, now))
}

// ScoreBatch is Score for many files at one instant: the serving gate is
// asked once and the feature rows go through the model as one matrix.
// probs[i] equals what Score(recs[i], now) returns; the slice is the
// pipeline's and valid until the next call. No row is built while the gate
// is closed.
func (p *Pipeline) ScoreBatch(recs []*FileRecord, now time.Time) (probs []float64, ok bool) {
	if !p.Learner.Ready() {
		return nil, false
	}
	if p.batch == nil || p.batch.Cols() != p.Spec.Width() {
		p.batch = gbt.NewMatrix(p.Spec.Width())
	}
	p.batch.Reset()
	for _, rec := range recs {
		p.batch.AppendRow(p.vector(rec, now))
	}
	p.probs = slices.Grow(p.probs[:0], len(recs))[:len(recs)]
	p.Learner.Model().PredictBatch(p.batch, p.probs)
	return p.probs, true
}

// TrainingPoint materialises the (features, label) pair for a file at a
// given reference time without feeding the learner; offline experiments
// (Figures 14-17) use it to build datasets.
func (p *Pipeline) TrainingPoint(rec *FileRecord, ref time.Time) ([]float64, float64) {
	return p.Spec.Vector(rec, ref), Label(rec, ref, p.Window)
}
