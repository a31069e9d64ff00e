package core

import (
	"time"

	"octostore/internal/dfs"
	"octostore/internal/storage"
)

// Decay is a decayed-weight formula together with its parameter: a weight is
// bumped on every access and fades with idle time in between (Formulas 1 and
// 2 of Section 5.2). The value is the identity of the statistic it defines —
// Context.DecayedWeight hands equal values the same instance — so its
// dynamic type must be comparable. Decayed must be non-increasing in idle:
// the weight heaps keep it evaluated at a future horizon as a lower bound.
type Decay interface {
	// Bump is the stored weight after an access, given the previously stored
	// weight and the idle time since it was stored. Nothing fades in no time:
	// Bump(w, 0) must be w + 1, which is what lets n accesses at one instant
	// be booked as one Bump plus n-1.
	Bump(stored float64, idle time.Duration) float64
	// Decayed is the current value of a weight stored idle ago.
	Decayed(stored float64, idle time.Duration) float64
}

// weightHorizonWindow is how far ahead of the clock the lazy weight heaps
// evaluate their keys. A weight evaluated at a future horizon is a lower
// bound of the weight at any earlier selection instant; a min-selection can
// therefore stop popping the heap as soon as the best exact weight found
// beats the next stored bound. When the clock passes the horizon the heaps
// re-key in O(N), amortized to nothing over the window.
const weightHorizonWindow = time.Hour

// weightState is one file's entry in a DecayedWeight: the weight as of at,
// and the id of the file it belongs to (-1 for a free slot).
type weightState struct {
	w  float64
	at time.Time
	id dfs.FileID
}

// DecayedWeight is a per-file statistic the Context derives from its
// notification feed for the policies that ask for it: every file's weight
// under one Decay, set to 1 at creation, bumped once per access (a
// notification of n accesses is n bumps) and dropped at deletion, before the
// Manager runs a process on the same event. Several policies may read one
// instance (an LRFU or EXD downgrade/upgrade pair does).
//
// RequireOrder declares a per-tier order of the weights for min-selection
// (see tierOrder): the index keeps its membership with tier residency and
// holds busy and cooled-down files parked, so the top is always selectable;
// keys are weight lower bounds evaluated at a sliding horizon (see
// weightHorizonWindow); exact weights are computed only for the handful of
// entries whose bound could win a given selection.
type DecayedWeight struct {
	ctx   *Context
	decay Decay
	state []weightState // by slot (see dfs.File.Slot)
	order *tierOrder    // nil until RequireOrder

	horizon   time.Time
	selectNow time.Time
	trueFn    func(*dfs.File) float64
}

// DecayedWeight returns the context's statistic for the formula, building it
// on first request. Files that already exist start unseen: weight 0 as of
// their creation time.
func (c *Context) DecayedWeight(d Decay) *DecayedWeight {
	for _, w := range c.weights {
		if w.decay == d {
			return w
		}
	}
	w := &DecayedWeight{ctx: c, decay: d}
	w.trueFn = func(f *dfs.File) float64 { return w.at(f, w.selectNow) }
	c.weights = append(c.weights, w)
	return w
}

// RequireOrder enables the per-tier weight heaps (SelectMin, AscendBounds).
func (w *DecayedWeight) RequireOrder() {
	if w.order == nil {
		w.order = w.ctx.index.newOrder(w.bound, false)
	}
}

// lookup returns the stored weight and when it was stored; a file the
// statistic has not seen has weight 0 as of its creation.
func (w *DecayedWeight) lookup(f *dfs.File) weightState {
	if slot := int(f.Slot()); slot < len(w.state) && w.state[slot].id == f.ID() {
		return w.state[slot]
	}
	return weightState{at: f.Created(), id: f.ID()}
}

// store books the file's weight as of at.
func (w *DecayedWeight) store(f *dfs.File, weight float64, at time.Time) {
	for int(f.Slot()) >= len(w.state) {
		w.state = append(w.state, weightState{id: -1})
	}
	w.state[f.Slot()] = weightState{w: weight, at: at, id: f.ID()}
}

func (w *DecayedWeight) at(f *dfs.File, t time.Time) float64 {
	s := w.lookup(f)
	return w.decay.Decayed(s.w, t.Sub(s.at))
}

// Stored is the file's weight as of its last access, not decayed since.
func (w *DecayedWeight) Stored(f *dfs.File) float64 { return w.lookup(f).w }

// Now is the file's weight decayed to the current instant.
func (w *DecayedWeight) Now(f *dfs.File) float64 { return w.at(f, w.ctx.Clock.Now()) }

// The context's listener books an event here before the index re-keys the
// file, so the order's key already sees the new weight.

func (w *DecayedWeight) created(f *dfs.File) {
	w.store(f, 1, w.ctx.Clock.Now())
}

// accessed books n accesses at the current instant: the first decays the
// stored weight over the idle time, the other n-1 find it fresh.
func (w *DecayedWeight) accessed(f *dfs.File, n int64) {
	now := w.ctx.Clock.Now()
	s := w.lookup(f)
	w.store(f, w.decay.Bump(s.w, now.Sub(s.at))+float64(n-1), now)
}

func (w *DecayedWeight) deleted(f *dfs.File) {
	if slot := int(f.Slot()); slot < len(w.state) && w.state[slot].id == f.ID() {
		w.state[slot] = weightState{id: -1}
	}
}

// bound is the order's key: the file's weight at the horizon, a lower bound
// of its weight at any instant before.
func (w *DecayedWeight) bound(f *dfs.File) (float64, time.Time) {
	w.ensureHorizon()
	return w.at(f, w.horizon), time.Time{}
}

// ensureHorizon advances the evaluation horizon (re-keying all entries)
// when the clock has caught up with it.
func (w *DecayedWeight) ensureHorizon() {
	now := w.ctx.Clock.Now()
	if now.Before(w.horizon) {
		return
	}
	w.horizon = now.Add(weightHorizonWindow)
	if w.order != nil { // nil while newOrder seeds the still empty heaps
		for _, h := range w.order.tiers {
			h.Rekey(w.bound)
		}
	}
}

// SelectMin returns the selectable file with the lowest decayed weight on
// the tier (ties toward the lowest file id), or nil.
func (w *DecayedWeight) SelectMin(tier storage.Media) *dfs.File {
	w.ensureHorizon()
	w.selectNow = w.ctx.Clock.Now()
	return w.order.tiers[tier].SelectMinLazy(w.trueFn)
}

// AscendBounds walks the tier's weight heap in ascending order of the stored
// lower bounds (see FileHeap.AscendWhile); visit reads exact weights with
// Now.
func (w *DecayedWeight) AscendBounds(tier storage.Media, keep func(HeapKey) bool, visit func(*dfs.File)) {
	w.ensureHorizon()
	w.order.tiers[tier].AscendWhile(keep, visit)
}
