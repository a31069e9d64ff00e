// Package policy implements the eleven downgrade and upgrade policies
// evaluated in the paper: the conventional eviction policies LRU, LFU and
// LRFU; LIFE and LFU-F from PACMan [5]; EXD from Big SQL [16]; the
// admission policies OSA, LRFU and EXD; and the paper's own XGB policies
// driven by incrementally trained gradient boosted trees (Tables 1 and 2).
package policy

import (
	"fmt"
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

// weightBook tracks per-file policy weights with lazy cleanup on deletion.
type weightBook struct {
	weights map[dfs.FileID]float64
	touched map[dfs.FileID]time.Time
}

// weightHorizonWindow is how far ahead of the clock the lazy weight heaps
// evaluate their keys. Both decay formulas are monotonically decreasing in
// idle time, so a weight evaluated at a future horizon is a lower bound of
// the weight at any earlier selection instant; a min-selection can
// therefore stop popping the heap as soon as the best exact weight found
// beats the next stored bound. When the clock passes the horizon the heaps
// re-key in O(N), amortized to nothing over the window.
const weightHorizonWindow = time.Hour

// weightIndex maintains per-tier heaps of decayed-weight candidates for the
// LRFU and EXD downgrade policies, replacing their per-selection full scans.
// Membership follows tier residency via the context's candidate-index
// subscription feed, and the heaps come from the index (NewHeap), so busy
// and cooled-down files sit parked in them and the top is always
// selectable; keys are weight lower bounds evaluated at a sliding
// horizon (see weightHorizonWindow); exact weights are computed only for
// the handful of entries whose bound could win a given selection.
type weightIndex struct {
	ctx   *core.Context
	book  *weightBook
	decay func(stored float64, sinceLast time.Duration) float64
	tiers [3]*core.FileHeap

	horizon   time.Time
	selectNow time.Time
	trueFn    func(*dfs.File) float64
}

// newWeightIndex builds the index over the policy's weight book and
// subscribes it to residency events (replaying current membership).
func newWeightIndex(ctx *core.Context, book *weightBook, decay func(float64, time.Duration) float64) *weightIndex {
	wi := &weightIndex{ctx: ctx, book: book, decay: decay}
	for _, m := range storage.AllMedia {
		wi.tiers[m] = ctx.Index().NewHeap(nil)
	}
	wi.trueFn = func(f *dfs.File) float64 { return wi.weightAt(f, wi.selectNow) }
	ctx.Index().Subscribe(wi)
	return wi
}

// state returns the stored weight and last-touch of a file, defaulting
// exactly like the linear scans: weight 0 and the creation time for files
// the policy has not seen.
func (wi *weightIndex) state(f *dfs.File) (float64, time.Time) {
	stored := wi.book.weights[f.ID()]
	touched, ok := wi.book.touched[f.ID()]
	if !ok {
		touched = f.Created()
	}
	return stored, touched
}

// weightAt is the decayed weight of the file at the given instant, using
// the same arithmetic as the linear oracle.
func (wi *weightIndex) weightAt(f *dfs.File, at time.Time) float64 {
	stored, touched := wi.state(f)
	return wi.decay(stored, at.Sub(touched))
}

// ensureHorizon advances the evaluation horizon (re-keying all entries)
// when the clock has caught up with it.
func (wi *weightIndex) ensureHorizon() {
	now := wi.ctx.Clock.Now()
	if now.Before(wi.horizon) {
		return
	}
	wi.horizon = now.Add(weightHorizonWindow)
	for _, h := range wi.tiers {
		h.Rekey(func(f *dfs.File) (float64, time.Time) {
			return wi.weightAt(f, wi.horizon), time.Time{}
		})
	}
}

// refresh re-keys the file wherever it is indexed; policies call it after
// updating the file's stored weight.
func (wi *weightIndex) refresh(f *dfs.File) {
	wi.ensureHorizon()
	for _, h := range wi.tiers {
		if h.Has(f.ID()) {
			h.Update(f, wi.weightAt(f, wi.horizon), time.Time{})
		}
	}
}

// selectMin returns the selectable file with the lowest decayed weight on
// the tier (ties toward the lowest file id), or nil.
func (wi *weightIndex) selectMin(tier storage.Media) *dfs.File {
	wi.ensureHorizon()
	wi.selectNow = wi.ctx.Clock.Now()
	return wi.tiers[tier].SelectMinLazy(wi.trueFn)
}

// selectMinLinear is the retired full-scan selection, kept as the
// differential-test oracle and the benchmark baseline.
func (wi *weightIndex) selectMinLinear(tier storage.Media) *dfs.File {
	now := wi.ctx.Clock.Now()
	var best *dfs.File
	bestW := 0.0
	for _, f := range wi.ctx.EligibleFiles(tier) {
		w := wi.weightAt(f, now)
		if best == nil || w < bestW || (w == bestW && f.ID() < best.ID()) {
			best, bestW = f, w
		}
	}
	return best
}

// OnTierResident implements core.ResidencySubscriber.
func (wi *weightIndex) OnTierResident(f *dfs.File, tier storage.Media) {
	wi.ensureHorizon()
	wi.tiers[tier].Update(f, wi.weightAt(f, wi.horizon), time.Time{})
}

// OnTierEvicted implements core.ResidencySubscriber.
func (wi *weightIndex) OnTierEvicted(f *dfs.File, tier storage.Media) {
	wi.tiers[tier].Remove(f.ID())
}

// OnTrackedFileDeleted implements core.ResidencySubscriber.
func (wi *weightIndex) OnTrackedFileDeleted(f *dfs.File) {
	for _, h := range wi.tiers {
		h.Remove(f.ID())
	}
}

// audit validates the index tiers against a residency recompute, and that
// exactly the files on the manager's busy/cooldown record are parked.
func (wi *weightIndex) audit() error {
	for _, m := range storage.AllMedia {
		want := 0
		for _, f := range wi.ctx.FS.LiveFiles() {
			if !f.Deleted() && wi.ctx.FS.Complete(f) && f.HasReplicaOn(m) {
				want++
			}
		}
		if got := wi.tiers[m].Len(); got != want {
			return fmt.Errorf("policy: weight index tier %v holds %d files, want %d", m, got, want)
		}
	}
	return wi.ctx.Index().AuditParking()
}

func newWeightBook() weightBook {
	return weightBook{
		weights: make(map[dfs.FileID]float64),
		touched: make(map[dfs.FileID]time.Time),
	}
}

func (w *weightBook) forget(id dfs.FileID) {
	delete(w.weights, id)
	delete(w.touched, id)
}

// lrfuWeight implements Formula 1: W = 1 + H*W / ((now-last) + H).
func lrfuWeight(old float64, sinceLast, halfLife time.Duration) float64 {
	return 1 + halfLife.Seconds()*old/(sinceLast.Seconds()+halfLife.Seconds())
}

// lrfuDecayed is the current value of a stored LRFU weight, used when
// comparing files at selection time.
func lrfuDecayed(stored float64, sinceLast, halfLife time.Duration) float64 {
	return halfLife.Seconds() * stored / (sinceLast.Seconds() + halfLife.Seconds())
}

// exdWeight implements Formula 2: W = 1 + W * e^(-alpha * (now-last)),
// with alpha in 1/millisecond as in Big SQL [16].
func exdWeight(old float64, sinceLast time.Duration, alpha float64) float64 {
	return 1 + old*math.Exp(-alpha*float64(sinceLast.Milliseconds()))
}

// exdDecayed is the current value of a stored EXD weight.
func exdDecayed(stored float64, sinceLast time.Duration, alpha float64) float64 {
	return stored * math.Exp(-alpha*float64(sinceLast.Milliseconds()))
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

// oneReplicaBytes is the size of one complete replica of a file.
func oneReplicaBytes(f *dfs.File) int64 {
	var total int64
	for _, b := range f.Blocks() {
		total += b.Size()
	}
	return total
}
