package policy

import (
	"math/rand"
	"time"

	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/ml"
	"octostore/internal/storage"
)

// The paper's fixed parameters of the XGB policies.
const (
	// sampleFraction is the fraction of tracked files sampled for training
	// on each periodic tick.
	sampleFraction = 0.10
	// upgradeWindow is the class window of the upgrade model ("which files
	// will be accessed soon"; paper example: 30 minutes).
	upgradeWindow = 30 * time.Minute
	// upgradeThreshold is the discrimination threshold of the upgrade
	// model (paper: 0.5).
	upgradeThreshold = 0.5
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
	return xgbModel{
		ctx:      ctx,
		pipeline: ml.NewPipeline(ml.DefaultFeatureSpec(), window, learnerCfg),
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
	p.ctx.SampleLiveFiles(p.rng, sampleFraction, func(f *dfs.File) {
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
// a burst works from one window: the 2k least recently used files, taken
// from the recency index once, with each file's score beside it. A score is
// a function of the instant, the model and the file's access history, and is
// reused while none of the three has changed; a selection scores only the
// window's newcomers to its first k selectable files.
type XGBDown struct {
	xgbModel
	thresholdStartStop
	defaultTargetTier

	// The window: the 2k least recently used files of tier at instant now
	// under learner generation gen, as the recency order stood at reorders.
	win      []windowEntry
	winTier  storage.Media
	winNow   time.Time
	winGen   uint64
	reorders uint64

	// reused per-selection buffers: the window fill, the window positions of
	// the candidates, and those (position and record) to score
	cands    []*dfs.File
	picks    []int
	miss     []int
	missRecs []*ml.FileRecord
}

// windowEntry is one file of the window and its score, valid while the
// file's record still counts `accesses` accesses (-1: not scored yet).
type windowEntry struct {
	f        *dfs.File
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
	}
}

// Name implements core.DowngradePolicy.
func (p *XGBDown) Name() string { return "XGB" }

// SelectFile scores the k least recently used selectable files — the first k
// of the window still in the recency order, which are the first k of the
// order itself — and picks the one least likely to be accessed in the
// distant future, ties toward the least recently used. Only candidates
// without a valid score are predicted, as one batch.
func (p *XGBDown) SelectFile(tier storage.Media) *dfs.File {
	ctx := p.xgbModel.ctx
	now, gen := ctx.Clock.Now(), p.pipeline.Learner.Generation()
	reorders, selectable := ctx.LRUReorders(tier)
	if tier != p.winTier || !now.Equal(p.winNow) || gen != p.winGen || reorders != p.reorders || len(p.win) == 0 {
		p.fill(tier, now, gen, reorders)
	}
	if !p.pick(tier) && selectable > len(p.picks) {
		// The window ran short of a full candidate set the order still has.
		p.fill(tier, now, gen, reorders)
		p.pick(tier)
	}
	if len(p.picks) == 0 {
		return nil
	}
	p.miss, p.missRecs = p.miss[:0], p.missRecs[:0]
	for _, i := range p.picks {
		rec := ctx.Record(p.win[i].f)
		if p.win[i].accesses != rec.AccessCount() {
			p.miss = append(p.miss, i)
			p.missRecs = append(p.missRecs, rec)
		}
	}
	// Asked even with nothing to score: it is the serving gate.
	scored, ok := p.pipeline.ScoreBatch(p.missRecs, now)
	if !ok {
		// Model not trained/gated yet: fall back to pure LRU order.
		return p.win[p.picks[0]].f
	}
	for k, i := range p.miss {
		p.win[i].prob, p.win[i].accesses = scored[k], p.missRecs[k].AccessCount()
	}
	var best *dfs.File
	bestProb := 2.0
	for _, i := range p.picks {
		if e := &p.win[i]; e.prob < bestProb {
			best, bestProb = e.f, e.prob
		}
	}
	return best
}

// fill takes the window afresh: the 2k least recently used selectable files
// of the tier, none scored.
func (p *XGBDown) fill(tier storage.Media, now time.Time, gen, reorders uint64) {
	ctx := p.xgbModel.ctx
	p.cands = ctx.LRUFilesInto(p.cands[:0], tier, 2*ctx.Cfg.CandidateK)
	p.win = p.win[:0]
	for _, f := range p.cands {
		p.win = append(p.win, windowEntry{f: f, accesses: -1})
	}
	p.winTier, p.winNow, p.winGen, p.reorders = tier, now, gen, reorders
}

// pick collects the window positions of the first k files still in the
// tier's recency order, and reports whether it found k (all of them, when k
// is not positive).
func (p *XGBDown) pick(tier storage.Media) bool {
	ctx := p.xgbModel.ctx
	k := ctx.Cfg.CandidateK
	p.picks = p.picks[:0]
	for i := range p.win {
		if ctx.InLRUOrder(p.win[i].f, tier) {
			if p.picks = append(p.picks, i); len(p.picks) == k {
				return true
			}
		}
	}
	return false
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
// (class window = upgradeWindow).
func NewXGBUp(ctx *core.Context, learnerCfg ml.LearnerConfig) *XGBUp {
	ctx.Index().RequireUpgradeMRU()
	return &XGBUp{xgbModel: newXGBModel(ctx, upgradeWindow, learnerCfg, 211)}
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
		if !ok || prob <= upgradeThreshold {
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
		if probs[i] > upgradeThreshold {
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
