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
type XGBDown struct {
	xgbModel
	thresholdStartStop
	defaultTargetTier
	ctx   *core.Context
	cands []*dfs.File // reused candidate buffer
}

// NewXGBDown builds the XGB downgrade policy with its own incremental
// model (class window = Config.DowngradeWindow).
func NewXGBDown(ctx *core.Context, learnerCfg ml.LearnerConfig) *XGBDown {
	ctx.Index().RequireRecency()
	return &XGBDown{
		xgbModel:           newXGBModel(ctx, ctx.Cfg.DowngradeWindow, learnerCfg, 101),
		thresholdStartStop: thresholdStartStop{ctx},
		defaultTargetTier:  defaultTargetTier{ctx},
		ctx:                ctx,
	}
}

// Name implements core.DowngradePolicy.
func (p *XGBDown) Name() string { return "XGB" }

// SelectFile scores the k least recently used files — collected from the
// recency index as a bounded top-k, not a full sort — and picks the one
// least likely to be accessed in the distant future.
func (p *XGBDown) SelectFile(tier storage.Media) *dfs.File {
	p.cands = p.ctx.LRUFilesInto(p.cands[:0], tier, p.ctx.Cfg.CandidateK)
	candidates := p.cands
	if len(candidates) == 0 {
		return nil
	}
	now := p.ctx.Clock.Now()
	var best *dfs.File
	bestProb := 2.0
	for _, f := range candidates {
		prob, ok := p.pipeline.Score(p.ctx.Record(f), now)
		if !ok {
			// Model not trained/gated yet: fall back to pure LRU order.
			return candidates[0]
		}
		if prob < bestProb {
			best, bestProb = f, prob
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

	queue          []*dfs.File
	cands          []*dfs.File // reused proactive candidate buffer
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
	p.queue = p.queue[:0]
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
	// collected from the upgrade MRU index as a bounded top-k.
	p.cands = p.ctx.UpgradeCandidatesInto(p.cands[:0], p.ctx.Cfg.CandidateK)
	for _, f := range p.cands {
		prob, ok := p.pipeline.Score(p.ctx.Record(f), now)
		if !ok {
			return false // model not ready; nothing proactive to do
		}
		if prob > p.ctx.Cfg.UpgradeThreshold {
			p.queue = append(p.queue, f)
		}
	}
	return len(p.queue) > 0
}

// SelectFile pops the next queued candidate and accounts its bytes against
// the batch limit.
func (p *XGBUp) SelectFile() *dfs.File {
	if len(p.queue) == 0 {
		return nil
	}
	f := p.queue[0]
	p.queue = p.queue[1:]
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
	return len(p.queue) == 0 || p.scheduledBytes >= p.ctx.Cfg.UpgradeBatchLimit
}
