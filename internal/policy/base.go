// Package policy implements the eleven downgrade and upgrade policies
// evaluated in the paper: the conventional eviction policies LRU, LFU and
// LRFU; LIFE and LFU-F from PACMan [5]; EXD from Big SQL [16]; the
// admission policies OSA, LRFU and EXD; and the paper's own XGB policies
// driven by incrementally trained gradient boosted trees (Tables 1 and 2).
package policy

import (
	"math"
	"time"

	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/storage"
)

// thresholdStartStop provides the shared decision points 1 and 4 for
// downgrades: start above the high watermark, stop below the low watermark
// (Sections 5.1 and 5.4).
type thresholdStartStop struct {
	ctx *core.Context
}

func (t thresholdStartStop) StartDowngrade(tier storage.Media) bool {
	return t.ctx.AboveHighWatermark(tier)
}

func (t thresholdStartStop) StopDowngrade(tier storage.Media) bool {
	return t.ctx.BelowLowWatermark(tier)
}

// defaultTargetTier provides the shared decision point 3 for downgrades:
// the OctopusFS-style placement outcome (Section 5.3).
type defaultTargetTier struct {
	ctx *core.Context
}

func (d defaultTargetTier) SelectTargetTier(f *dfs.File, from storage.Media) (storage.Media, bool) {
	to, ok := d.ctx.DefaultDowngradeTier(f, from)
	if !ok {
		return 0, true // no lower tier fits: delete the replica
	}
	return to, false
}

// lrfuDecay is Formula 1 with half-life H: W = 1 + H*W / ((now-last) + H).
type lrfuDecay time.Duration

// Bump implements core.Decay.
func (h lrfuDecay) Bump(old float64, idle time.Duration) float64 {
	hl := time.Duration(h).Seconds()
	return 1 + hl*old/(idle.Seconds()+hl)
}

// Decayed implements core.Decay.
func (h lrfuDecay) Decayed(stored float64, idle time.Duration) float64 {
	hl := time.Duration(h).Seconds()
	return hl * stored / (idle.Seconds() + hl)
}

// exdDecay is Formula 2: W = 1 + W * e^(-alpha * (now-last)), with alpha in
// 1/millisecond as in Big SQL [16].
type exdDecay float64

// Bump implements core.Decay.
func (a exdDecay) Bump(old float64, idle time.Duration) float64 {
	return 1 + old*math.Exp(-float64(a)*float64(idle.Milliseconds()))
}

// Decayed implements core.Decay.
func (a exdDecay) Decayed(stored float64, idle time.Duration) float64 {
	return stored * math.Exp(-float64(a)*float64(idle.Milliseconds()))
}

// lrfuWeights and exdWeights resolve the context's decayed-weight statistic
// for a parameter (non-positive means the default). Policies with equal
// parameters on one context read the same instance.
func lrfuWeights(ctx *core.Context, halfLife time.Duration) *core.DecayedWeight {
	if halfLife <= 0 {
		halfLife = DefaultLRFUHalfLife
	}
	return ctx.DecayedWeight(lrfuDecay(halfLife))
}

func exdWeights(ctx *core.Context, alpha float64) *core.DecayedWeight {
	if alpha <= 0 {
		alpha = DefaultEXDAlpha
	}
	return ctx.DecayedWeight(exdDecay(alpha))
}

// Defaults for the classic policies.
const (
	// DefaultLRFUHalfLife is H in Formula 1. The paper's example uses six
	// hours; for six-hour workloads a shorter half-life keeps the recency
	// component meaningful.
	DefaultLRFUHalfLife = time.Hour
	// DefaultLRFUUpgradeThreshold is the admission threshold on the LRFU
	// weight ("empirically set to 3", Section 6.1).
	DefaultLRFUUpgradeThreshold = 3.0
	// DefaultEXDAlpha is Big SQL's decay constant (Section 5.2).
	DefaultEXDAlpha = 1.16e-8
	// DefaultLIFEWindow is the Pold/Pnew age boundary in LIFE and LFU-F.
	// The paper cites nine hours as an example; scaled for six-hour runs.
	DefaultLIFEWindow = 2 * time.Hour
)
