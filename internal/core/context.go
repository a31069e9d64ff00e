package core

import (
	"math/rand"
	"time"

	"octostore/internal/dfs"
	"octostore/internal/ml"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// Context is the view of the system that policies consult: the clock, the
// file system, the per-file statistics, and tier-usage accounting
// (Section 3.3: "the policies have access to file and node statistics
// maintained by the system").
type Context struct {
	Clock   *sim.Engine
	FS      *dfs.FileSystem
	Tracker *ml.Tracker
	Cfg     Config

	mgr      *Manager // set when a Manager adopts the context
	index    *CandidateIndex
	weights  []*DecayedWeight          // derived statistics, one per Decay requested
	headroom func(storage.Media) int64 // extra free bytes beyond the FS's cluster
}

// NewContext builds a policy context over a file system. The context
// registers itself as a file-system listener: it maintains the per-file
// statistics and the incremental candidate indexes from notifications, so
// they stay current whether or not a Manager is attached.
func NewContext(fs *dfs.FileSystem, cfg Config) *Context {
	c := &Context{
		Clock:   fs.Engine(),
		FS:      fs,
		Tracker: ml.NewTracker(ml.DefaultK),
		Cfg:     cfg,
	}
	c.index = newCandidateIndex(c)
	fs.AddListener(ctxListener{c})
	return c
}

// Index returns the context's incremental candidate index.
func (c *Context) Index() *CandidateIndex { return c.index }

// Selectable reports whether a policy may pick the file right now: not
// busy with an in-flight operation and not in a failure cooldown. It is
// the dynamic part of the eligibility predicate, answered from the
// manager's record and the clock alone; static properties (deleted,
// incomplete, tier residency) are maintained as index membership. The
// indexes never ask it — they hold ineligible files parked — so the linear
// oracles that do are an independent check of the parking.
func (c *Context) Selectable(f *dfs.File) bool {
	return c.mgr == nil || (!c.mgr.isBusy(f) && !c.mgr.inCooldown(f))
}

// parked reports whether the manager has the file on record as busy or
// cooling down, or as holding a last copy on the tier (-1: no one tier), which
// is exactly when the indexes hold it parked in a heap over that tier.
func (c *Context) parked(f *dfs.File, tier storage.Media) bool {
	return c.mgr != nil && (c.mgr.onRecord(f) || tier >= 0 && c.mgr.lastCopyOn(f.ID(), tier))
}

// ctxListener feeds file-system notifications into the context's tracker,
// candidate index and derived statistics. It is registered in NewContext,
// before any Manager, so statistics are already updated when policies
// observe the same event.
type ctxListener struct{ ctx *Context }

// FileCreated implements dfs.Listener.
func (l ctxListener) FileCreated(f *dfs.File) {
	l.ctx.Tracker.OnCreate(f.Slot(), int64(f.ID()), f.Size(), f.Created())
	for _, w := range l.ctx.weights {
		w.created(f)
	}
	l.ctx.index.fileCreated(f)
}

// FileAccessed implements dfs.Listener.
func (l ctxListener) FileAccessed(f *dfs.File, n int64) {
	l.ctx.Tracker.OnAccessN(f.Slot(), int64(f.ID()), l.ctx.Clock.Now(), n)
	for _, w := range l.ctx.weights {
		w.accessed(f, n)
	}
	l.ctx.index.fileAccessed(f)
}

// FileDeleted implements dfs.Listener.
func (l ctxListener) FileDeleted(f *dfs.File) {
	l.ctx.Tracker.OnDelete(f.Slot(), int64(f.ID()))
	l.ctx.index.fileDeleted(f)
	for _, w := range l.ctx.weights {
		w.deleted(f)
	}
}

// FileTierChanged implements dfs.Listener.
func (l ctxListener) FileTierChanged(f *dfs.File, media storage.Media, resident bool) {
	l.ctx.index.residencyChanged(f, media, resident)
}

// TierDataAdded implements dfs.Listener.
func (ctxListener) TierDataAdded(storage.Media) {}

// Record returns (creating on demand) the statistics record of a file.
func (c *Context) Record(f *dfs.File) *ml.FileRecord {
	if rec, ok := c.Tracker.Get(f.Slot(), int64(f.ID())); ok {
		return rec
	}
	return c.Tracker.OnCreate(f.Slot(), int64(f.ID()), f.Size(), f.Created())
}

// LastTouch returns the file's most recent access, or its creation time if
// never accessed.
func (c *Context) LastTouch(f *dfs.File) time.Time {
	t, _ := c.Record(f).LastAccess()
	return t
}

// AccessCount returns the file's lifetime access count.
func (c *Context) AccessCount(f *dfs.File) int64 {
	return c.Record(f).AccessCount()
}

// IsBusy reports whether the manager has an in-flight operation on the
// file (no manager means never busy).
func (c *Context) IsBusy(f *dfs.File) bool {
	return c.mgr != nil && c.mgr.isBusy(f)
}

// EligibleFilesInto appends to buf (pass buf[:0] to reuse its capacity)
// the files that a downgrade from `tier` may choose from: complete, not
// deleted, not busy, not in a failure cooldown, not holding a block's last
// copy there, and holding a replica of every block on the tier (the
// all-or-nothing property). The windowed policies (LIFE, LFU-F) use it;
// the indexed policies, EXD admission's walk of the weight heap included,
// avoid the scan entirely.
func (c *Context) EligibleFilesInto(buf []*dfs.File, tier storage.Media) []*dfs.File {
	// LiveFiles avoids the sorted namespace walk; HasReplicaOn is O(1) via
	// the residency counters. Selection policies impose their own ordering.
	for _, f := range c.FS.LiveFiles() {
		if f.Deleted() || !c.FS.Complete(f) || !c.Selectable(f) {
			continue
		}
		if !f.HasReplicaOn(tier) || c.mgr != nil && c.mgr.lastCopyOn(f.ID(), tier) {
			continue
		}
		buf = append(buf, f)
	}
	return buf
}

// UpgradeCandidatesInto appends to buf the files not fully resident in
// memory, excluding busy/cooldown files, sorted by most-recent touch first
// and truncated to k (the XGB upgrade policy scores "the k most recently
// used files", Section 6.1): a bounded-heap top-k over the upgrade MRU
// index, which the first call enables.
func (c *Context) UpgradeCandidatesInto(buf []*dfs.File, k int) []*dfs.File {
	c.index.RequireUpgradeMRU()
	return c.index.mru.TopK(k, buf)
}

// LRUFilesInto appends to buf up to k eligible files on the tier ordered by
// least recent touch first (the XGB downgrade policy scores "the k least
// recently used files", Section 5.2): a bounded-heap top-k over the recency
// index, which the first call enables.
func (c *Context) LRUFilesInto(buf []*dfs.File, tier storage.Media, k int) []*dfs.File {
	c.index.RequireRecency()
	return c.index.recency.tiers[tier].TopK(k, buf)
}

// LRUReorders returns the tier's recency order's reorder count and how many
// files are selectable in it (FileHeap.Reorders). While the count stands
// still, the selectable files are a subset of those at the last reading, in
// the same order, so a prefix LRUFilesInto returned then, less the files no
// longer InLRUOrder, is the same prefix now.
func (c *Context) LRUReorders(tier storage.Media) (reorders uint64, selectable int) {
	c.index.RequireRecency()
	return c.index.recency.tiers[tier].Reorders()
}

// InLRUOrder reports whether the file is selectable in the tier's recency
// order.
func (c *Context) InLRUOrder(f *dfs.File, tier storage.Media) bool {
	c.index.RequireRecency()
	return c.index.recency.tiers[tier].InOrder(f)
}

// SampleLiveFiles visits a deterministic stride sample of the live-file
// index: roughly fraction*N files, each at most once, chosen by stepping
// through the index with stride ~1/fraction from a random phase. The live
// index is insertion-ordered with swap-removal perturbation, so a strided
// walk is an unbiased sample while costing O(fraction*N) — one RNG draw per
// tick instead of one per live file. The XGB policies use it for periodic
// training-sample collection (Section 4.2 samples "a fraction of the
// files"; nothing there requires touching every file to decide).
func (c *Context) SampleLiveFiles(rng *rand.Rand, fraction float64, fn func(*dfs.File)) {
	live := c.FS.LiveFiles()
	n := len(live)
	if n == 0 || fraction <= 0 {
		return
	}
	if fraction >= 1 {
		for _, f := range live {
			fn(f)
		}
		return
	}
	stride := int(1/fraction + 0.5)
	if stride < 1 {
		stride = 1
	}
	for i := rng.Intn(stride); i < n; i += stride {
		fn(live[i])
	}
}

// EffectiveUtilization is the tier's used fraction minus space already
// being freed by in-flight downgrades, so the downgrade loop does not
// over-schedule while transfers drain.
func (c *Context) EffectiveUtilization(tier storage.Media) float64 {
	used, capacity := c.FS.Cluster().TierUsage(tier)
	if capacity == 0 {
		return 0
	}
	if c.mgr != nil {
		used -= c.mgr.pendingRelease[tier]
	}
	if used < 0 {
		used = 0
	}
	return float64(used) / float64(capacity)
}

// AboveHighWatermark implements the shared decision-point-1 rule: the
// downgrade process starts when a tier's used capacity exceeds the high
// threshold (Section 5.1).
func (c *Context) AboveHighWatermark(tier storage.Media) bool {
	return c.EffectiveUtilization(tier) > c.Cfg.HighWatermark
}

// BelowLowWatermark implements the shared decision-point-4 rule: the
// downgrade process stops when the tier's effective used capacity falls
// below the low threshold (Section 5.4).
func (c *Context) BelowLowWatermark(tier storage.Media) bool {
	return c.EffectiveUtilization(tier) < c.Cfg.LowWatermark
}

// SetTierHeadroom installs a hook reporting extra per-tier free bytes that
// exist beyond the context's own cluster view. The sharded serving layer
// points it at the global quota ledger's free pool, so a shard's policies
// size upgrade and placement decisions against quota-plus-borrowable
// capacity instead of refusing moves its quota could grow to fit. The hook
// must be safe to call from the context's owning loop (the ledger's is a
// single atomic load). Watermark utilization intentionally stays quota-local
// (see EffectiveUtilization): a shard under local pressure downgrades even
// when the global pool has headroom — that is the soft-quota contract.
func (c *Context) SetTierHeadroom(fn func(storage.Media) int64) { c.headroom = fn }

// TierFreeBytes returns the free bytes of a tier visible to this context:
// the cluster view's free capacity plus any configured external headroom.
func (c *Context) TierFreeBytes(tier storage.Media) int64 {
	used, capacity := c.FS.Cluster().TierUsage(tier)
	free := capacity - used
	if c.headroom != nil {
		free += c.headroom(tier)
	}
	return free
}

// DefaultDowngradeTier implements decision point 3 with the OctopusFS
// placement objectives collapsed to their practical outcome: move to the
// next tier down that can hold the file, else further down, else delete the
// replica (Section 5.3).
func (c *Context) DefaultDowngradeTier(f *dfs.File, from storage.Media) (storage.Media, bool) {
	bytes := f.BytesOn(from)
	for tier, ok := from.Below(); ok; tier, ok = tier.Below() {
		if c.TierFreeBytes(tier) >= bytes {
			return tier, true
		}
	}
	return 0, false
}

// DefaultUpgradeTier implements decision point 3 for upgrades: memory when
// it can hold the file. Upgrades from HDD to SSD are not performed,
// matching the rationale in Section 6.1 (avoid large disk-to-disk moves
// and keep HDDs utilised).
func (c *Context) DefaultUpgradeTier(f *dfs.File, from storage.Media) (storage.Media, bool) {
	if from == storage.Memory {
		return 0, false
	}
	if c.TierFreeBytes(storage.Memory) >= f.Size() {
		return storage.Memory, true
	}
	return 0, false
}
