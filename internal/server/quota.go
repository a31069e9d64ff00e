package server

import (
	"sync/atomic"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/dfs"
	"octostore/internal/storage"
)

// QuotaConfig tunes the sharded capacity accounting: how much of each tier
// a shard is granted up front, in what granularity it borrows more from the
// global pool, and when it gives unused quota back.
type QuotaConfig struct {
	// InitialFraction is the fraction of each device's physical capacity
	// granted to shard quotas at construction, split evenly across shards;
	// the remainder seeds the ledger's free pool (default 0.5; forced to 1
	// for a single shard, which makes shards=1 the exact single-writer
	// degenerate case with an empty pool).
	InitialFraction float64
	// BorrowChunk rounds borrow requests up, amortising ledger traffic
	// (default 64 MB).
	BorrowChunk int64
	// ReconcileInterval is the virtual-time cadence of quota reconciliation:
	// each shard returns capacity beyond max(initial grant, used+slack) to
	// the pool (default 30s; negative disables).
	ReconcileInterval time.Duration
}

func (c *QuotaConfig) applyDefaults(shards int) {
	if c.InitialFraction <= 0 || c.InitialFraction > 1 {
		c.InitialFraction = 0.5
	}
	if shards <= 1 {
		c.InitialFraction = 1
	}
	if c.BorrowChunk <= 0 {
		c.BorrowChunk = 64 * storage.MB
	}
	if c.ReconcileInterval == 0 {
		c.ReconcileInterval = 30 * time.Second
	}
}

// QuotaStats counts one shard's (or, summed, the whole server's) traffic
// against the global capacity ledger.
type QuotaStats struct {
	Borrows        int64 // successful two-phase borrow rounds
	BorrowFailures int64 // rounds the pool could not cover
	BorrowedBytes  int64 // total quota pulled from the pool
	ReturnedBytes  int64 // total quota reconciled back to the pool
}

func (s *QuotaStats) add(o QuotaStats) {
	s.Borrows += o.Borrows
	s.BorrowFailures += o.BorrowFailures
	s.BorrowedBytes += o.BorrowedBytes
	s.ReturnedBytes += o.ReturnedBytes
}

// shardQuota is one shard's side of the sharded accounting layer: it grows
// the shard's cluster view out of the global ledger through the two-phase
// reserve/commit protocol and periodically reconciles unused quota back.
// All methods except the atomic stat reads run on the shard loop.
type shardQuota struct {
	ledger *cluster.TierLedger
	cl     *cluster.Cluster
	cfg    QuotaConfig
	// baseline is the capacity granted at construction (plus joined nodes);
	// reconciliation never shrinks a shard below it, so an idle shard keeps
	// serving from its original quota without churning the ledger.
	baseline [3]int64

	borrows       atomic.Int64
	borrowFails   atomic.Int64
	borrowedBytes atomic.Int64
	returnedBytes atomic.Int64
}

func newShardQuota(ledger *cluster.TierLedger, cl *cluster.Cluster, cfg QuotaConfig, baseline [3]int64) *shardQuota {
	return &shardQuota{ledger: ledger, cl: cl, cfg: cfg, baseline: baseline}
}

func (q *shardQuota) stats() QuotaStats {
	return QuotaStats{
		Borrows:        q.borrows.Load(),
		BorrowFailures: q.borrowFails.Load(),
		BorrowedBytes:  q.borrowedBytes.Load(),
		ReturnedBytes:  q.returnedBytes.Load(),
	}
}

// bestDevice returns the node's device of the media with the most free
// space, or nil.
func bestDevice(n *cluster.Node, media storage.Media) *storage.Device {
	var best *storage.Device
	for _, d := range n.Devices(media) {
		if best == nil || d.Free() > best.Free() {
			best = d
		}
	}
	return best
}

// EnsureSpread grows the shard's quota so that, on each of up to `nodes`
// distinct nodes, some device of the tier has at least perNode free bytes —
// the shape a block-placement or replica-move plan needs. The total deficit
// is claimed from the ledger in one reservation (rounded up to the borrow
// chunk when the pool allows), applied to the devices, and committed; if the
// pool cannot cover even the exact deficit, or the shard has no device of
// the tier left, nothing changes and false is returned.
func (q *shardQuota) EnsureSpread(tier storage.Media, perNode int64, nodes int) bool {
	return q.EnsureSpreadFor(storage.DefaultTenant, tier, perNode, nodes)
}

// EnsureSpreadFor is EnsureSpread on behalf of a tenant: the ledger claim is
// additionally admitted against the tenant's borrow budget, so a tenant at
// quota cannot grow the shard even when the pool has capacity.
func (q *shardQuota) EnsureSpreadFor(tenant storage.TenantID, tier storage.Media, perNode int64, nodes int) bool {
	if nodes <= 0 {
		nodes = 1
	}
	type growth struct {
		dev *storage.Device
		by  int64
	}
	var plan []growth
	var deficit int64
	seen := 0
	for _, n := range q.cl.Nodes() {
		d := bestDevice(n, tier)
		if d == nil {
			continue
		}
		seen++
		if free := d.Free(); free < perNode {
			plan = append(plan, growth{dev: d, by: perNode - free})
			deficit += perNode - free
		}
		if seen == nodes {
			break
		}
	}
	if seen == 0 {
		q.borrowFails.Add(1)
		return false
	}
	if deficit == 0 {
		return true
	}
	// Phase one: claim pool capacity (chunk-rounded when it fits, the exact
	// deficit otherwise).
	ask := deficit
	if rem := ask % q.cfg.BorrowChunk; rem != 0 {
		ask += q.cfg.BorrowChunk - rem
	}
	res, ok := q.ledger.ReserveFor(tenant, tier, ask)
	if !ok && ask != deficit {
		res, ok = q.ledger.ReserveFor(tenant, tier, deficit)
	}
	if !ok {
		q.borrowFails.Add(1)
		return false
	}
	// Phase two: apply the reservation to this shard's cluster view, then
	// commit — the capacity now lives in the shard's quota. Chunk-rounding
	// surplus lands on the first grown device.
	extra := res.Bytes() - deficit
	for _, g := range plan {
		g.dev.Grow(g.by)
	}
	if extra > 0 {
		plan[0].dev.Grow(extra)
	}
	res.Commit()
	q.borrows.Add(1)
	q.borrowedBytes.Add(res.Bytes())
	return true
}

// EnsureCreateFor grows quota ahead of retrying a create that failed on
// capacity, charged to the tenant's borrow budget: every replica of every
// block must find a device, so each of `replication` distinct nodes needs
// room for one full copy of the file. Placement falls back across tiers in
// every mode, so growing the lowest tier (every mode's tier of last resort)
// is sufficient to admit the write.
func (q *shardQuota) EnsureCreateFor(tenant storage.TenantID, fs *dfs.FileSystem, size int64) bool {
	return q.EnsureSpreadFor(tenant, storage.HDD, size, fs.Replication())
}

// returnSlackChunks is the free headroom, in borrow chunks, a shard keeps
// above its used bytes when returning quota.
const returnSlackChunks = 2

// Reconcile returns quota the shard no longer needs: for each tier, any
// capacity beyond max(baseline, used+slack) is shrunk off the devices and
// returned to the ledger's free pool, in whole borrow-chunks so the quota
// does not flap. Shard loop only.
func (q *shardQuota) Reconcile() {
	for _, tier := range storage.AllMedia {
		used, capacity := q.cl.TierUsage(tier)
		target := used + returnSlackChunks*q.cfg.BorrowChunk
		if target < q.baseline[tier] {
			target = q.baseline[tier]
		}
		excess := capacity - target
		excess -= excess % q.cfg.BorrowChunk
		if excess <= 0 {
			continue
		}
		var reclaimed int64
		for _, n := range q.cl.Nodes() {
			for _, d := range n.Devices(tier) {
				if reclaimed >= excess {
					break
				}
				reclaimed += d.ShrinkUpTo(excess - reclaimed)
			}
		}
		if reclaimed > 0 {
			q.ledger.Return(tier, reclaimed)
			q.returnedBytes.Add(reclaimed)
		}
	}
}

// membershipChanged is the shard's dfs membership hook: delta is the
// per-tier capacity a node join added to (or a node failure took out of)
// this shard's cluster view. The ledger total follows, and so does the
// reconciliation floor — a joined node's granted share raises it; after a
// loss it is clamped to the shard's current tier capacities, because the
// departed node took its quota (initial grant plus any borrowed growth)
// with it and the floor must not hold open capacity that no longer exists.
// Shard loop only.
func (q *shardQuota) membershipChanged(delta [3]int64) {
	for _, tier := range storage.AllMedia {
		switch d := delta[tier]; {
		case d > 0:
			q.ledger.AddCapacity(tier, d, 0)
			q.baseline[tier] += d
		case d < 0:
			q.ledger.ShrinkTotal(tier, -d)
			if _, capacity := q.cl.TierUsage(tier); q.baseline[tier] > capacity {
				q.baseline[tier] = capacity
			}
		}
	}
}
