package policy

import (
	"time"

	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/storage"
)

// LRU downgrades the file accessed least recently (Table 1). Selection
// reads the context's per-tier recency index: O(log N) per pick instead of
// a full scan over the live files.
type LRU struct {
	core.NopCallbacks
	thresholdStartStop
	defaultTargetTier
	ctx *core.Context
}

// NewLRU builds the LRU downgrade policy.
func NewLRU(ctx *core.Context) *LRU {
	ctx.Index().RequireRecency()
	return &LRU{thresholdStartStop: thresholdStartStop{ctx}, defaultTargetTier: defaultTargetTier{ctx}, ctx: ctx}
}

// Name implements core.DowngradePolicy.
func (p *LRU) Name() string { return "LRU" }

// SelectFile implements core.DowngradePolicy.
func (p *LRU) SelectFile(tier storage.Media) *dfs.File {
	return p.ctx.Index().SelectLRU(tier)
}

// LFU downgrades the file used least often (Table 1); ties break toward
// the least recently used, then the lowest file id. Selection reads the
// per-tier frequency index.
type LFU struct {
	core.NopCallbacks
	thresholdStartStop
	defaultTargetTier
	ctx *core.Context
}

// NewLFU builds the LFU downgrade policy.
func NewLFU(ctx *core.Context) *LFU {
	ctx.Index().RequireFrequency()
	return &LFU{thresholdStartStop: thresholdStartStop{ctx}, defaultTargetTier: defaultTargetTier{ctx}, ctx: ctx}
}

// Name implements core.DowngradePolicy.
func (p *LFU) Name() string { return "LFU" }

// SelectFile implements core.DowngradePolicy.
func (p *LFU) SelectFile(tier storage.Media) *dfs.File {
	return p.ctx.Index().SelectLFU(tier)
}

// WeightDown downgrades the file with the lowest decayed weight (Table 1):
// LRFU under Formula 1, EXD (Big SQL) under Formula 2. The weights are the
// context's statistic, updated there once per access; selection reads its
// per-tier lazy weight heaps, inspecting only the entries whose stored bound
// could win instead of decaying every file.
type WeightDown struct {
	core.NopCallbacks
	thresholdStartStop
	defaultTargetTier
	name string
	w    *core.DecayedWeight
}

func newWeightDown(ctx *core.Context, name string, w *core.DecayedWeight) *WeightDown {
	w.RequireOrder()
	return &WeightDown{thresholdStartStop: thresholdStartStop{ctx}, defaultTargetTier: defaultTargetTier{ctx}, name: name, w: w}
}

// NewLRFUDown builds the LRFU downgrade policy with the given half-life H.
func NewLRFUDown(ctx *core.Context, halfLife time.Duration) *WeightDown {
	return newWeightDown(ctx, "LRFU", lrfuWeights(ctx, halfLife))
}

// NewEXDDown builds the EXD downgrade policy.
func NewEXDDown(ctx *core.Context, alpha float64) *WeightDown {
	return newWeightDown(ctx, "EXD", exdWeights(ctx, alpha))
}

// Name implements core.DowngradePolicy.
func (p *WeightDown) Name() string { return p.name }

// SelectFile picks the lowest decayed weight through the lazy heap.
func (p *WeightDown) SelectFile(tier storage.Media) *dfs.File { return p.w.SelectMin(tier) }

// Windowed reproduces PACMan's two-partition policies (Table 1): if files
// older than the window exist, evict the least frequently used among them;
// otherwise pick among the recent files by the policy's own rule. LIFE takes
// the largest recent file, which minimises average job completion time by
// favouring small inputs; LFU-F the least frequently used, maximising
// cluster efficiency. The time-windowed partition changes shape with the
// clock, so selection stays a scan; the candidate buffer is reused across
// invocations.
type Windowed struct {
	core.NopCallbacks
	thresholdStartStop
	defaultTargetTier
	ctx    *core.Context
	name   string
	window time.Duration
	// beats reports whether recent file f displaces the recent pick so far.
	beats func(f, best *dfs.File) bool
	buf   []*dfs.File
}

func newWindowed(ctx *core.Context, name string, window time.Duration, beats func(f, best *dfs.File) bool) *Windowed {
	if window <= 0 {
		window = DefaultLIFEWindow
	}
	return &Windowed{thresholdStartStop: thresholdStartStop{ctx}, defaultTargetTier: defaultTargetTier{ctx}, ctx: ctx, name: name, window: window, beats: beats}
}

// NewLIFE builds the LIFE downgrade policy.
func NewLIFE(ctx *core.Context, window time.Duration) *Windowed {
	return newWindowed(ctx, "LIFE", window, func(f, best *dfs.File) bool { return f.Size() > best.Size() })
}

// NewLFUF builds the LFU-F downgrade policy.
func NewLFUF(ctx *core.Context, window time.Duration) *Windowed {
	return newWindowed(ctx, "LFU-F", window, func(f, best *dfs.File) bool {
		return ctx.AccessCount(f) < ctx.AccessCount(best)
	})
}

// Name implements core.DowngradePolicy.
func (p *Windowed) Name() string { return p.name }

// SelectFile implements the two-partition rule.
func (p *Windowed) SelectFile(tier storage.Media) *dfs.File {
	oldCut := p.ctx.Clock.Now().Add(-p.window)
	var lfuOld, recent *dfs.File
	p.buf = p.ctx.EligibleFilesInto(p.buf[:0], tier)
	for _, f := range p.buf {
		if p.ctx.LastTouch(f).Before(oldCut) {
			if lfuOld == nil || p.ctx.AccessCount(f) < p.ctx.AccessCount(lfuOld) {
				lfuOld = f
			}
		} else if recent == nil || p.beats(f, recent) {
			recent = f
		}
	}
	if lfuOld != nil {
		return lfuOld
	}
	return recent
}
