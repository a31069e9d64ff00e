package policy

import (
	"math/rand"
	"time"

	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/ml"
	"octostore/internal/storage"
)

// xgbModel is what the two XGB policies share: an incrementally trained
// gradient-boosted model over the context's per-file records, fed a
// guaranteed-positive training point on every access and a periodic sample
// of all files on every tick (Section 4.2).
type xgbModel struct {
	core.NopCallbacks
	ctx      *core.Context
	pipeline *ml.Pipeline
	rng      *rand.Rand
}

// newXGBModel builds a model predicting access within the class window; the
// seed offset keeps the two policies' sampling streams apart.
func newXGBModel(ctx *core.Context, window time.Duration, learnerCfg ml.LearnerConfig, seedOffset int64) xgbModel {
	spec := ml.DefaultFeatureSpec()
	spec.K = ctx.Cfg.TrackerK
	return xgbModel{
		ctx:      ctx,
		pipeline: ml.NewPipeline(spec, window, learnerCfg),
		rng:      rand.New(rand.NewSource(learnerCfg.Seed + seedOffset)),
	}
}

// Pipeline exposes the model pipeline for experiment instrumentation.
func (p *xgbModel) Pipeline() *ml.Pipeline { return p.pipeline }

// OnFileAccessed generates a guaranteed-positive training point for the
// accessed file (Section 4.2: "right after a file is accessed, but only
// for that file").
func (p *xgbModel) OnFileAccessed(f *dfs.File) {
	p.pipeline.Sample(p.ctx.Record(f), p.ctx.Clock.Now())
}

// Tick periodically samples a fraction of all files for training
// (Section 4.2: "repeating the above three steps periodically for a sample
// of the files"). The stride sampler costs O(fraction*N) per tick instead
// of walking (and drawing an RNG value for) every live file.
func (p *xgbModel) Tick() {
	now := p.ctx.Clock.Now()
	p.ctx.SampleLiveFiles(p.rng, p.ctx.Cfg.SampleFraction, func(f *dfs.File) {
		p.pipeline.Sample(p.ctx.Record(f), now)
	})
}

// XGBDown is the paper's ML downgrade policy (Section 5.2): the model
// predicts, for the k least recently used files on the tier, the
// probability of access within the large class window (default 6 hours),
// and the file with the lowest probability is downgraded. Until the model is
// ready the policy behaves like LRU.
//
// One downgrade process selects many times at one virtual instant, and each
// selection sees the previous one's candidates minus the file just moved, so
// the scores are remembered across the burst: a file's score is a function
// of the instant, the model and the file's access history, and is reused
// while none of the three has changed.
type XGBDown struct {
	xgbModel
	thresholdStartStop
	defaultTargetTier

	// reused per-selection buffers: the candidates, their scores, and the
	// candidates (index and record) the memo had no valid score for
	cands    []*dfs.File
	probs    []float64
	miss     []int
	missRecs []*ml.FileRecord

	// memo holds the scores computed at virtual time memoNow under learner
	// generation memoGen. It is emptied when either moves, so it never
	// outgrows one burst: CandidateK entries per tier selected from, plus
	// one per further selection.
	memo    map[dfs.FileID]memoScore
	memoNow time.Time
	memoGen uint64
}

// memoScore is a remembered prediction, valid while the file's record still
// counts `accesses` accesses (an access at the memo's own instant changes
// the features).
type memoScore struct {
	prob     float64
	accesses int64
}

// NewXGBDown builds the XGB downgrade policy with its own incremental
// model (class window = Config.DowngradeWindow).
func NewXGBDown(ctx *core.Context, learnerCfg ml.LearnerConfig) *XGBDown {
	ctx.Index().RequireRecency()
	return &XGBDown{
		xgbModel:           newXGBModel(ctx, ctx.Cfg.DowngradeWindow, learnerCfg, 101),
		thresholdStartStop: thresholdStartStop{ctx},
		defaultTargetTier:  defaultTargetTier{ctx},
		memo:               make(map[dfs.FileID]memoScore),
	}
}

// Name implements core.DowngradePolicy.
func (p *XGBDown) Name() string { return "XGB" }

// SelectFile scores the k least recently used files — collected from the
// recency index as a bounded top-k, not a full sort — and picks the one
// least likely to be accessed in the distant future. Only candidates
// without a valid remembered score are predicted, as one batch.
func (p *XGBDown) SelectFile(tier storage.Media) *dfs.File {
	ctx := p.xgbModel.ctx
	p.cands = ctx.LRUFilesInto(p.cands[:0], tier, ctx.Cfg.CandidateK)
	if len(p.cands) == 0 {
		return nil
	}
	now := ctx.Clock.Now()
	if gen := p.pipeline.Learner.Generation(); gen != p.memoGen || !now.Equal(p.memoNow) {
		clear(p.memo)
		p.memoNow, p.memoGen = now, gen
	}
	p.probs, p.miss, p.missRecs = p.probs[:0], p.miss[:0], p.missRecs[:0]
	for i, f := range p.cands {
		rec := ctx.Record(f)
		m, ok := p.memo[f.ID()]
		if !ok || m.accesses != rec.AccessCount() {
			p.miss = append(p.miss, i)
			p.missRecs = append(p.missRecs, rec)
		}
		p.probs = append(p.probs, m.prob)
	}
	scored, ok := p.pipeline.ScoreBatch(p.missRecs, now)
	if !ok {
		// Model not trained/gated yet: fall back to pure LRU order.
		return p.cands[0]
	}
	for k, i := range p.miss {
		p.probs[i] = scored[k]
		p.memo[p.cands[i].ID()] = memoScore{scored[k], p.missRecs[k].AccessCount()}
	}
	var best *dfs.File
	bestProb := 2.0
	for i, prob := range p.probs {
		if prob < bestProb {
			best, bestProb = p.cands[i], prob
		}
	}
	return best
}

// XGBUp is the paper's ML upgrade policy (Section 6.1): on access, upgrade
// the file when its predicted probability of access within the small class
// window (default 30 minutes) exceeds the discrimination threshold; on
// periodic ticks, proactively score the k most recently used non-memory
// files and upgrade all that qualify, bounded by the upgrade batch limit
// (Section 6.4).
type XGBUp struct {
	xgbModel

	queue          []*dfs.File // queue[head:] is still to be selected
	head           int
	cands          []*dfs.File      // reused proactive candidate buffer
	recs           []*ml.FileRecord // and the candidates' records
	scheduledBytes int64
}

// NewXGBUp builds the XGB upgrade policy with its own incremental model
// (class window = Config.UpgradeWindow).
func NewXGBUp(ctx *core.Context, learnerCfg ml.LearnerConfig) *XGBUp {
	ctx.Index().RequireUpgradeMRU()
	return &XGBUp{xgbModel: newXGBModel(ctx, ctx.Cfg.UpgradeWindow, learnerCfg, 211)}
}

// Name implements core.UpgradePolicy.
func (p *XGBUp) Name() string { return "XGB" }

// StartUpgrade implements core.UpgradePolicy. With an accessed file it
// admits on the model's probability; on periodic invocations it builds a
// proactive batch of likely-soon-accessed files.
func (p *XGBUp) StartUpgrade(accessed *dfs.File) bool {
	p.queue, p.head = p.queue[:0], 0
	p.scheduledBytes = 0
	now := p.ctx.Clock.Now()
	if accessed != nil {
		if accessed.HasReplicaOn(storage.Memory) {
			return false
		}
		prob, ok := p.pipeline.Score(p.ctx.Record(accessed), now)
		if !ok || prob <= p.ctx.Cfg.UpgradeThreshold {
			return false
		}
		p.queue = append(p.queue, accessed)
		return true
	}
	// Proactive path: score the most recently used non-memory files,
	// collected from the upgrade MRU index as a bounded top-k, as one batch.
	p.cands = p.ctx.UpgradeCandidatesInto(p.cands[:0], p.ctx.Cfg.CandidateK)
	p.recs = p.recs[:0]
	for _, f := range p.cands {
		p.recs = append(p.recs, p.ctx.Record(f))
	}
	probs, ok := p.pipeline.ScoreBatch(p.recs, now)
	if !ok {
		return false // model not ready; nothing proactive to do
	}
	for i, f := range p.cands {
		if probs[i] > p.ctx.Cfg.UpgradeThreshold {
			p.queue = append(p.queue, f)
		}
	}
	return len(p.queue) > 0
}

// SelectFile pops the next queued candidate and accounts its bytes against
// the batch limit.
func (p *XGBUp) SelectFile() *dfs.File {
	if p.head == len(p.queue) {
		return nil
	}
	f := p.queue[p.head]
	p.head++
	p.scheduledBytes += f.Size()
	return f
}

// SelectTargetTier implements core.UpgradePolicy.
func (p *XGBUp) SelectTargetTier(f *dfs.File, from storage.Media) (storage.Media, bool) {
	return p.ctx.DefaultUpgradeTier(f, from)
}

// StopUpgrade stops when the queue is drained or the scheduled volume
// exceeds the batch limit (Section 6.4).
func (p *XGBUp) StopUpgrade() bool {
	return p.head == len(p.queue) || p.scheduledBytes >= p.ctx.Cfg.UpgradeBatchLimit
}
