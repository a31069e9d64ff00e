package policy

import (
	"sort"
	"time"

	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/storage"
)

// singleShot implements the common upgrade-loop shape for OSA, LRFU and
// EXD: the accessed file is the only candidate and the process stops after
// it (Sections 6.2 and 6.4).
type singleShot struct {
	pending *dfs.File
}

func (s *singleShot) SelectFile() *dfs.File {
	f := s.pending
	s.pending = nil
	return f
}

func (s *singleShot) StopUpgrade() bool { return s.pending == nil }

// OSA upgrades a file into memory on every access when it is not already
// there (Table 2, "On Single Access").
type OSA struct {
	core.NopCallbacks
	singleShot
	ctx *core.Context
}

// NewOSA builds the OSA upgrade policy.
func NewOSA(ctx *core.Context) *OSA { return &OSA{ctx: ctx} }

// Name implements core.UpgradePolicy.
func (p *OSA) Name() string { return "OSA" }

// StartUpgrade implements core.UpgradePolicy.
func (p *OSA) StartUpgrade(accessed *dfs.File) bool {
	if accessed == nil || accessed.HasReplicaOn(storage.Memory) {
		return false
	}
	p.pending = accessed
	return true
}

// SelectTargetTier implements core.UpgradePolicy: memory only (OSA does not
// move data from HDD to SSD, Section 6.1).
func (p *OSA) SelectTargetTier(f *dfs.File, from storage.Media) (storage.Media, bool) {
	return p.ctx.DefaultUpgradeTier(f, from)
}

// LRFUUp upgrades an accessed file when its Formula 1 weight exceeds a
// threshold (Table 2). The weight is the context's statistic, shared with an
// LRFU downgrade policy of the same half-life.
type LRFUUp struct {
	core.NopCallbacks
	singleShot
	ctx       *core.Context
	threshold float64
	w         *core.DecayedWeight
}

// NewLRFUUp builds the LRFU upgrade policy.
func NewLRFUUp(ctx *core.Context, halfLife time.Duration, threshold float64) *LRFUUp {
	if threshold <= 0 {
		threshold = DefaultLRFUUpgradeThreshold
	}
	return &LRFUUp{ctx: ctx, threshold: threshold, w: lrfuWeights(ctx, halfLife)}
}

// Name implements core.UpgradePolicy.
func (p *LRFUUp) Name() string { return "LRFU" }

// StartUpgrade admits files whose weight passed the threshold.
func (p *LRFUUp) StartUpgrade(accessed *dfs.File) bool {
	if accessed == nil || accessed.HasReplicaOn(storage.Memory) {
		return false
	}
	if p.w.Stored(accessed) <= p.threshold {
		return false
	}
	p.pending = accessed
	return true
}

// SelectTargetTier implements core.UpgradePolicy.
func (p *LRFUUp) SelectTargetTier(f *dfs.File, from storage.Media) (storage.Media, bool) {
	return p.ctx.DefaultUpgradeTier(f, from)
}

// EXDUp reproduces Big SQL's admission rule (Table 2): upgrade when memory
// has room; otherwise upgrade only when the file's Formula 2 weight exceeds
// the summed weights of the files that would have to be downgraded to make
// room. The weights are the context's statistic, shared with an EXD
// downgrade policy of the same alpha; the victim sum is answered from its
// memory-tier lazy weight heap (see victimWeightSum) instead of sorting the
// whole tier per admission.
type EXDUp struct {
	core.NopCallbacks
	singleShot
	ctx *core.Context
	w   *core.DecayedWeight

	// Reused buffers for the victim-sum admission test.
	scored []scoredFile
	prefix victimPrefix
}

// scoredFile pairs a candidate with its decayed weight (and, on the heap
// path, its memory-tier footprint) for victim selection.
type scoredFile struct {
	f *dfs.File
	w float64
	b int64
}

// victimPrefix maintains the minimal-weight set of memory files covering a
// byte target, as a max-heap ordered by (weight, id): adding a lighter
// candidate and trimming the heaviest while coverage holds keeps the set
// equal to the greedy ascending prefix of everything offered so far.
type victimPrefix struct {
	items []scoredFile
	bytes int64
}

// heavier is the max-heap order (the boundary victim sits on top).
func heavier(a, b scoredFile) bool {
	if a.w != b.w {
		return a.w > b.w
	}
	return a.f.ID() > b.f.ID()
}

func (v *victimPrefix) reset() {
	v.items = v.items[:0]
	v.bytes = 0
}

func (v *victimPrefix) top() scoredFile { return v.items[0] }

func (v *victimPrefix) push(s scoredFile) {
	v.items = append(v.items, s)
	v.bytes += s.b
	i := len(v.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heavier(v.items[i], v.items[parent]) {
			break
		}
		v.items[i], v.items[parent] = v.items[parent], v.items[i]
		i = parent
	}
}

func (v *victimPrefix) popTop() {
	v.bytes -= v.items[0].b
	last := len(v.items) - 1
	v.items[0] = v.items[last]
	v.items = v.items[:last]
	i, n := 0, len(v.items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && heavier(v.items[r], v.items[l]) {
			c = r
		}
		if !heavier(v.items[c], v.items[i]) {
			return
		}
		v.items[i], v.items[c] = v.items[c], v.items[i]
		i = c
	}
}

// trim drops the heaviest victims while the rest still cover need.
func (v *victimPrefix) trim(need int64) {
	for len(v.items) > 0 && v.bytes-v.items[0].b >= need {
		v.popTop()
	}
}

// NewEXDUp builds the EXD upgrade policy.
func NewEXDUp(ctx *core.Context, alpha float64) *EXDUp {
	w := exdWeights(ctx, alpha)
	w.RequireOrder()
	return &EXDUp{ctx: ctx, w: w}
}

// Name implements core.UpgradePolicy.
func (p *EXDUp) Name() string { return "EXD" }

// StartUpgrade implements the space-or-outweigh admission test.
func (p *EXDUp) StartUpgrade(accessed *dfs.File) bool {
	if accessed == nil || accessed.HasReplicaOn(storage.Memory) {
		return false
	}
	need := accessed.Size()
	if p.ctx.TierFreeBytes(storage.Memory) >= need {
		p.pending = accessed
		return true
	}
	if p.w.Now(accessed) > p.victimWeightSum(need) {
		p.pending = accessed
		return true
	}
	return false
}

// unbeatableWeight is reported when even evicting the whole memory tier
// would not fit the file, so the admission test necessarily fails.
const unbeatableWeight = 1e300

// victimWeightSum sums the decayed weights of the lowest-weight memory
// files whose eviction would free `need` bytes, walking the memory tier's
// lazy weight heap in ascending-bound order and maintaining the covering
// prefix in a max-heap, instead of scoring and sorting the whole tier
// (which cost O(n log n) per full-memory access).
//
// Stored heap keys are weight lower bounds evaluated at a sliding horizon
// (see core.DecayedWeight), so the walk may stop as soon as the next
// stored bound exceeds the prefix's boundary weight (the max-heap top):
// every remaining file's exact weight is at least its bound, hence
// strictly heavier than the boundary, and the greedy minimal prefix cannot
// contain it. The boundary is the right cut — unlike a running max over
// everything visited, it stops rising once coverage is reached and then
// only falls as lighter victims displace heavier ones, so the walk visits
// the prefix plus the thin bound-slack band above it, O(v log N) instead
// of O(N log N). Busy and cooled-down files are parked outside the heap's
// order, so the walk never meets them. The prefix is then sorted exactly
// like the retired full scan — same comparator, same ascending summation
// order — so the result is bit-identical to the linear oracle's.
func (p *EXDUp) victimWeightSum(need int64) float64 {
	if need <= 0 {
		// Nothing must be evicted; the oracle's covering prefix is empty.
		// (Also keeps the walk's pf.top() reads safe: trim(0) would empty
		// the prefix heap.)
		return 0
	}
	p.prefix.reset()
	pf := &p.prefix
	covered := false
	p.w.AscendBounds(storage.Memory,
		func(k core.HeapKey) bool { return !covered || k.W <= pf.top().w },
		func(f *dfs.File) {
			w := p.w.Now(f)
			if covered {
				if top := pf.top(); w > top.w || (w == top.w && f.ID() > top.f.ID()) {
					return // heavier than the boundary: cannot enter the prefix
				}
			}
			pf.push(scoredFile{f: f, w: w, b: f.BytesOn(storage.Memory)})
			if pf.bytes >= need {
				covered = true
				pf.trim(need)
			}
		})
	if !covered {
		return unbeatableWeight
	}
	// Identical arithmetic to the oracle: prefixSum sorts with the same
	// comparator and sums ascending; trim guaranteed the set is the minimal
	// covering prefix, so every element contributes.
	p.scored = append(p.scored[:0], pf.items...)
	return prefixSum(p.scored, need)
}

// prefixSum sorts candidates ascending by (weight, id) and sums the
// minimal prefix freeing `need` bytes; unbeatableWeight when even the
// whole set cannot.
func prefixSum(candidates []scoredFile, need int64) float64 {
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].w != candidates[j].w {
			return candidates[i].w < candidates[j].w
		}
		return candidates[i].f.ID() < candidates[j].f.ID()
	})
	var freed int64
	var sum float64
	for _, c := range candidates {
		if freed >= need {
			break
		}
		freed += c.f.BytesOn(storage.Memory)
		sum += c.w
	}
	if freed < need {
		return unbeatableWeight
	}
	return sum
}

// VictimWeightSum exposes the indexed admission sum to the differential
// tests.
func (p *EXDUp) VictimWeightSum(need int64) float64 { return p.victimWeightSum(need) }

// SelectTargetTier implements core.UpgradePolicy. EXD may target memory
// even when full: the admission test already decided the trade is worth it,
// and the downgrade process frees the space.
func (p *EXDUp) SelectTargetTier(f *dfs.File, from storage.Media) (storage.Media, bool) {
	if from == storage.Memory {
		return 0, false
	}
	if to, ok := p.ctx.DefaultUpgradeTier(f, from); ok {
		return to, true
	}
	return storage.Memory, true
}
