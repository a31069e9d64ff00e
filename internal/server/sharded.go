package server

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"octostore/internal/backend"
	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/obs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// This file implements the sharded simulation core: the engine is
// partitioned into N namespace shards, each owning a full private stack —
// discrete-event engine, cluster view, dfs.FileSystem, core.Manager with
// its CandidateIndex and tracker, access-event ring, and movement executor
// — drained by its own dedicated shard loop (an inner Server). Mutations
// and policy ticks in different shards never share a goroutine, a lock, or
// an engine, so structural write throughput scales with cores instead of
// serializing through one writer.
//
// What cannot be partitioned is physical capacity and node membership:
//
//   - Capacity lives behind the sharded accounting layer. Each shard's
//     cluster view carries a soft quota (a slice of every device's physical
//     capacity); the remainder sits in a global cluster.TierLedger pool.
//     Shards grow their quota on demand through the ledger's two-phase
//     reserve/commit protocol (see shardQuota) and reconcile unused quota
//     back on a virtual-time cadence, so capacity migrates to the shards
//     that need it while dfs.CheckAccounting holds inside every shard and
//     the ledger's conservation equation holds globally at every step.
//   - Node membership changes fan out: FailNode/AddNode apply to every
//     shard's view (same node ids everywhere), and the capacity that
//     left/joined is settled against the ledger totals.
//   - Device bandwidth lives behind the storage.DataPlane: every shard's
//     view of one physical device shares that device's virtual-clock
//     channel (keyed by the device ID, identical across views), so serve
//     reads and movement in different shards contend for the physical
//     channel the same way capacity contends through the ledger. The plane
//     rides in on Cluster.Plane, which every shard's view inherits.
//
// Paths route to shards by a hash of the parent directory — the same key
// the inner server stripes its namespace by — so a directory listing stays
// a single-shard operation and files in one directory share a shard.
// shards=1 degenerates to exactly the single-writer serving layer (full
// quota, empty pool, no protocol traffic).

// ShardBuilder wires the policy stack of one shard: given the shard's
// private file system, it returns the shard's manager (nil for unmanaged
// serving). The builder runs during NewSharded, before any loop starts.
type ShardBuilder func(shard int, fs *dfs.FileSystem) (*core.Manager, error)

// ShardedConfig assembles a sharded serving layer.
type ShardedConfig struct {
	// Shards is the number of namespace shards (default 1).
	Shards int
	// Cluster is the GLOBAL topology; every shard sees the same nodes with
	// a quota slice of each device's capacity.
	Cluster cluster.Config
	// DFS configures each shard's file system; Seed is offset by the shard
	// index so placement draws stay decorrelated.
	DFS dfs.Config
	// Build constructs each shard's manager (nil everywhere when omitted).
	Build ShardBuilder
	// Backend, when non-nil, supplies each shard's physical data backend,
	// attached to the shard's file system before its server is built. One
	// instance per shard is required (return distinct roots): block ids are
	// per-FileSystem, so a shared physical namespace would collide.
	Backend func(shard int) backend.Backend
	// Quota tunes the sharded capacity accounting.
	Quota QuotaConfig
	// Inner is the per-shard serving configuration (stripe count, ring,
	// pacing, executor).
	Inner Config
	// Rebalance tunes the dynamic shard rebalancer (default off: static
	// parent-dir-hash routing with no tracking cost).
	Rebalance RebalanceConfig
}

// shard is one partition: a private simulation stack plus its quota agent.
type shard struct {
	idx       int
	engine    *sim.Engine
	cluster   *cluster.Cluster
	fs        *dfs.FileSystem
	mgr       *core.Manager
	srv       *Server
	quota     *shardQuota
	reconcile *sim.Ticker
}

// ShardedServer is the partitioned serving layer. Construct with
// NewSharded, Start it, then any number of goroutines may use the client
// API; shard routing is deterministic by parent directory.
type ShardedServer struct {
	cfg    ShardedConfig
	shards []*shard
	ledger *cluster.TierLedger
	// routes is the rebalancer's COW prefix→shard override table, consulted
	// on every routing decision before the static hash. Nil snapshot (the
	// static-routing steady state) costs one atomic load.
	routes routeTable
	// reb is the dynamic rebalancer (nil unless cfg.Rebalance.Enabled with
	// more than one shard).
	reb *rebalancer
	// nodePooled records, per node id, the slice of that node's physical
	// capacity that went into the ledger's free pool instead of a shard
	// grant, so node loss can take the unclaimed share back out of
	// circulation. Mutated only from the churn API (single caller at a
	// time, like all membership changes).
	nodePooled map[int][3]int64
	// running is true between Start and Close; outside that window Exec
	// touches the shard file systems directly (the loops are stopped, so the
	// caller's goroutine is the only one near them — same contract as the
	// single-writer Server after Close).
	running bool
}

// splitSpec carves one shard's quota slice out of a node spec: each device
// keeps its media and bandwidths but holds floor(capacity*frac/shards)
// bytes. It also reports, per tier, the physical capacity of one full node,
// the slice granted to ONE shard, and the remainder pooled after all shards
// take theirs.
func splitSpec(spec storage.NodeSpec, shards int, frac float64) (shardSpec storage.NodeSpec, nodeTotal, nodeGrant, nodePooled [3]int64) {
	shardSpec = make(storage.NodeSpec, len(spec))
	for i, ds := range spec {
		share := int64(float64(ds.Capacity) * frac / float64(shards))
		shardSpec[i] = ds
		shardSpec[i].Capacity = share
		nodeTotal[ds.Media] += ds.Capacity * int64(ds.Count)
		nodeGrant[ds.Media] += share * int64(ds.Count)
	}
	for t := range nodePooled {
		nodePooled[t] = nodeTotal[t] - nodeGrant[t]*int64(shards)
	}
	return shardSpec, nodeTotal, nodeGrant, nodePooled
}

// NewSharded builds the partitioned stack: per-shard engines, quota-sliced
// cluster views, file systems, managers (via cfg.Build), and inner servers,
// plus the global capacity ledger.
func NewSharded(cfg ShardedConfig) (*ShardedServer, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	cfg.Quota.applyDefaults(cfg.Shards)
	shardSpec, nodeTotal, nodeGrant, nodePooled := splitSpec(cfg.Cluster.Spec, cfg.Shards, cfg.Quota.InitialFraction)

	s := &ShardedServer{cfg: cfg, ledger: cluster.NewTierLedger(), nodePooled: make(map[int][3]int64)}
	workers := int64(cfg.Cluster.Workers)
	for _, m := range storage.AllMedia {
		s.ledger.AddCapacity(m, nodeTotal[m]*workers, nodePooled[m]*workers)
	}
	for _, tc := range cfg.Inner.Tenants {
		for _, m := range storage.AllMedia {
			if tc.QuotaBytes[m] > 0 {
				s.ledger.SetTenantQuota(tc.ID, m, tc.QuotaBytes[m])
			}
		}
	}
	for id := 0; id < cfg.Cluster.Workers; id++ {
		s.nodePooled[id] = nodePooled
	}

	for i := 0; i < cfg.Shards; i++ {
		engine := sim.NewEngine()
		clCfg := cfg.Cluster
		clCfg.Spec = shardSpec
		cl, err := cluster.New(engine, clCfg)
		if err != nil {
			return nil, fmt.Errorf("server: shard %d cluster: %w", i, err)
		}
		fsCfg := cfg.DFS
		fsCfg.Seed += int64(i)
		fs, err := dfs.New(cl, fsCfg)
		if err != nil {
			return nil, fmt.Errorf("server: shard %d fs: %w", i, err)
		}
		if cfg.Backend != nil {
			fs.SetBackend(cfg.Backend(i))
		}
		var mgr *core.Manager
		if cfg.Build != nil {
			if mgr, err = cfg.Build(i, fs); err != nil {
				return nil, fmt.Errorf("server: shard %d build: %w", i, err)
			}
		}
		var baseline [3]int64
		for t := range baseline {
			baseline[t] = nodeGrant[t] * workers
		}
		quota := newShardQuota(s.ledger, cl, cfg.Quota, baseline)
		if mgr != nil {
			// Policies see quota + borrowable pool when sizing decisions;
			// watermarks stay quota-local (soft-quota contract).
			mgr.Context().SetTierHeadroom(s.ledger.FreeBytes)
		}
		innerCfg := cfg.Inner
		// Each inner server labels its metrics and spans with its shard index
		// on the shared hub (innerCfg.Obs rides in on cfg.Inner).
		innerCfg.ObsShard = i
		// Movement destinations borrow quota right before each admitted
		// move, on the shard loop, through the two-phase protocol.
		innerCfg.Executor.PreMove = func(tier storage.Media, bytes int64) {
			quota.EnsureSpread(tier, bytes, 1)
		}
		s.shards = append(s.shards, &shard{
			idx:     i,
			engine:  engine,
			cluster: cl,
			fs:      fs,
			mgr:     mgr,
			srv:     New(fs, mgr, innerCfg),
			quota:   quota,
		})
	}
	if cfg.Rebalance.Enabled && cfg.Shards > 1 {
		s.reb = newRebalancer(s, cfg.Rebalance)
	}
	s.registerObs()
	return s, nil
}

// registerObs publishes the unpartitionable state — the global capacity
// ledger's conservation terms and per-tenant borrow accounts, plus each
// shard's quota-protocol traffic — into the hub's registry. Per-shard
// serving metrics register inside each inner server's Start.
func (s *ShardedServer) registerObs() {
	hub := s.cfg.Inner.Obs
	if hub == nil {
		return
	}
	r := hub.Registry()
	for _, m := range storage.AllMedia {
		m := m
		tier := obs.Labels{"tier": m.String()}
		r.Gauge("octo_ledger_free_bytes", tier, func() float64 { return float64(s.ledger.FreeBytes(m)) })
		r.Gauge("octo_ledger_reserved_bytes", tier, func() float64 { return float64(s.ledger.ReservedBytes(m)) })
		r.Gauge("octo_ledger_total_bytes", tier, func() float64 { return float64(s.ledger.TotalBytes(m)) })
		r.Gauge("octo_ledger_deficit_bytes", tier, func() float64 { return float64(s.ledger.DeficitBytes(m)) })
	}
	r.CounterFunc("octo_ledger_reserves_total", nil, func() float64 { return float64(s.ledger.Reserves()) })
	r.CounterFunc("octo_ledger_commits_total", nil, func() float64 { return float64(s.ledger.Commits()) })
	r.CounterFunc("octo_ledger_aborts_total", nil, func() float64 { return float64(s.ledger.Aborts()) })
	// Per-tenant borrow accounts, dynamic over the configured tenant table.
	tenants := s.cfg.Inner.Tenants
	if len(tenants) > 0 {
		r.Collector(func(emit obs.Emit) {
			for _, tc := range tenants {
				for _, m := range storage.AllMedia {
					l := obs.Labels{"tenant": strconv.Itoa(int(tc.ID)), "tier": m.String()}
					emit("octo_ledger_tenant_committed_bytes", l, "gauge", float64(s.ledger.TenantCommittedBytes(tc.ID, m)))
					emit("octo_ledger_tenant_quota_bytes", l, "gauge", float64(s.ledger.TenantQuota(tc.ID, m)))
				}
			}
		})
	}
	for i, sh := range s.shards {
		sh := sh
		l := obs.Labels{"shard": strconv.Itoa(i)}
		r.CounterFunc("octo_quota_borrows_total", l, func() float64 { return float64(sh.quota.stats().Borrows) })
		r.CounterFunc("octo_quota_borrow_failures_total", l, func() float64 { return float64(sh.quota.stats().BorrowFailures) })
		r.CounterFunc("octo_quota_borrowed_bytes_total", l, func() float64 { return float64(sh.quota.stats().BorrowedBytes) })
		r.CounterFunc("octo_quota_returned_bytes_total", l, func() float64 { return float64(sh.quota.stats().ReturnedBytes) })
	}
	if s.reb != nil {
		reb := s.reb
		r.CounterFunc("octo_rebalance_migrations_started_total", nil, func() float64 { return float64(reb.started.Load()) })
		r.CounterFunc("octo_rebalance_migrations_completed_total", nil, func() float64 { return float64(reb.completed.Load()) })
		r.CounterFunc("octo_rebalance_migrations_aborted_total", nil, func() float64 { return float64(reb.aborted.Load()) })
		r.CounterFunc("octo_rebalance_epoch_flips_total", nil, func() float64 { return float64(reb.flips.Load()) })
		r.CounterFunc("octo_rebalance_files_moved_total", nil, func() float64 { return float64(reb.filesMoved.Load()) })
		r.CounterFunc("octo_rebalance_bytes_moved_total", nil, func() float64 { return float64(reb.bytesMoved.Load()) })
		r.CounterFunc("octo_rebalance_files_superseded_total", nil, func() float64 { return float64(reb.superseded.Load()) })
		r.CounterFunc("octo_rebalance_rehomes_total", nil, func() float64 { return float64(reb.rehomed.Load()) })
		r.Gauge("octo_rebalance_shard_spread", nil, func() float64 { return reb.snapshot().Spread })
		r.Gauge("octo_rebalance_routes", nil, func() float64 { return float64(len(s.routes.entries())) })
	}
}

// NumShards returns the shard count.
func (s *ShardedServer) NumShards() int { return len(s.shards) }

// Clock returns the wall-mapped virtual time. Start gives every shard the
// same pacer origin, so any shard's clock is the stamping base for all of
// them (and what Access/AccessAs stamp with on whichever shard they route
// to).
func (s *ShardedServer) Clock() time.Time { return s.shards[0].srv.Clock() }

// Ledger exposes the global capacity ledger (all reads are atomic).
func (s *ShardedServer) Ledger() *cluster.TierLedger { return s.ledger }

// Start launches every shard: managers, shard loops, pacers, and the quota
// reconciliation tickers.
func (s *ShardedServer) Start() {
	if s.running {
		return
	}
	s.running = true
	// One pacer origin for all shards: a per-shard time.Now() would skew the
	// shards' clocks by their start offset × TimeScale, and the shared data
	// plane books that skew as read queueing on whichever shard lags. The
	// virtual origin is the furthest any shard's engine got before Start
	// (they differ when shards were preloaded unevenly); a shard behind it
	// catches up on its first stamped command.
	wall, virt := time.Now(), s.shards[0].engine.Now()
	for _, sh := range s.shards[1:] {
		if now := sh.engine.Now(); now.After(virt) {
			virt = now
		}
	}
	for _, sh := range s.shards {
		if sh.mgr != nil {
			sh.mgr.Start()
		}
		sh.srv.startAt(wall, virt)
		if s.cfg.Quota.ReconcileInterval > 0 && len(s.shards) > 1 {
			sh := sh
			sh.srv.Exec(func(*dfs.FileSystem) {
				sh.reconcile = sh.engine.Every(s.cfg.Quota.ReconcileInterval, sh.quota.Reconcile)
			})
		}
	}
	if s.reb != nil {
		s.reb.start(s.cfg.Inner.TimeScale)
	}
}

// Close quiesces and stops every shard. Client goroutines must have stopped
// issuing operations first.
func (s *ShardedServer) Close() {
	if !s.running {
		return
	}
	if s.reb != nil {
		// Halt the rebalancer first: a round mid-migration Execs on the
		// shard loops (so they must still be up), and rebalancer.exec reads
		// s.running — the flip below must not race a live round into taking
		// the direct-access path while the loops are still open.
		s.reb.halt()
	}
	s.running = false
	for _, sh := range s.shards {
		sh.srv.Close()
		if sh.reconcile != nil {
			sh.reconcile.Stop() // loop stopped; direct access is safe now
			sh.reconcile = nil
		}
		if sh.mgr != nil {
			sh.mgr.Stop()
		}
	}
}

// canonicalPath returns the routing form of a client path. dfs.CleanPath
// fast-paths already-canonical input without allocating, so routed ops pay
// one scan here and the inner layers' re-cleaning of the now-canonical
// string is free.
func canonicalPath(path string) (string, error) {
	return dfs.CleanPath(path)
}

// RouteShard reports which shard index a directory hashes to under static
// routing with the given shard count — exported so load generators can
// construct colliding subtrees deliberately.
func RouteShard(dir string, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(fnv32(dir) % uint32(shards))
}

// routeDir resolves a directory to its primary shard plus the fallback
// shard reads consult during a migration epoch. The route table overrides
// the hash for whole subtrees: while an entry is migrating, the primary is
// the destination and the fallback is the static hash owner (files not yet
// moved still live there); once committed the fallback is gone. A draining
// entry is the reverse epoch — the subtree is folding back to static
// routing, so the per-dir hash owner is primary again and the old
// destination is the fallback until its copies drain home. Without an
// override — including always when the rebalancer is off — this is exactly
// the static parent-dir hash.
func (s *ShardedServer) routeDir(dir string) (primary, fallback *shard) {
	if len(s.shards) == 1 {
		return s.shards[0], nil
	}
	if e := s.routes.lookup(dir); e != nil {
		owner := s.shards[fnv32(dir)%uint32(len(s.shards))]
		switch e.state {
		case routeMigrating:
			primary = s.shards[e.dst]
			if owner != primary {
				fallback = owner
			}
		case routeDraining:
			primary = owner
			if old := s.shards[e.dst]; old != primary {
				fallback = old
			}
		default: // routeCommitted
			primary = s.shards[e.dst]
		}
		return primary, fallback
	}
	return s.shards[fnv32(dir)%uint32(len(s.shards))], nil
}

// shardOf routes a canonical path by its parent directory, the same key the
// inner namespace stripes by. Writes go to the primary only: new files land
// on the migration destination.
func (s *ShardedServer) shardOf(path string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	dir, _ := parentOf(path)
	primary, _ := s.routeDir(dir)
	return primary
}

// routeFor is shardOf for reads: it also returns the double-read fallback
// and feeds the rebalancer's load tracker.
func (s *ShardedServer) routeFor(path string) (primary, fallback *shard) {
	if len(s.shards) == 1 {
		return s.shards[0], nil
	}
	dir, _ := parentOf(path)
	primary, fallback = s.routeDir(dir)
	if s.reb != nil {
		s.reb.tracker.note(dir, primary.idx)
	}
	return primary, fallback
}

// shardOfDir routes a directory path (for listings).
func (s *ShardedServer) shardOfDir(dir string) *shard {
	primary, _ := s.routeDir(dir)
	return primary
}

// --- Client API ---

// Create writes a file and blocks until its shard's write pipeline commits.
// A capacity failure triggers one quota borrow (growing the shard's lowest
// tier out of the global pool) and one retry, so a shard whose quota ran
// dry admits the write as long as the physical tier has room.
func (s *ShardedServer) Create(path string, size int64) error {
	return s.CreateAs(path, size, storage.DefaultTenant)
}

// CreateAs is Create on behalf of a tenant: the write pipeline's plane
// charges carry the tenant, and the capacity-failure borrow is admitted
// against the tenant's ledger budget — a tenant at quota gets
// dfs.ErrNoCapacity even while the pool has room.
func (s *ShardedServer) CreateAs(path string, size int64, tenant storage.TenantID) error {
	clean, err := canonicalPath(path)
	if err != nil {
		return err
	}
	sh, fallback := s.routeFor(clean)
	// During a migration epoch an unmoved file still lives on the hash
	// owner; creating "over" it on the destination must fail the same way a
	// single shard would.
	if fallback != nil && fallback.srv.Exists(clean) {
		return fmt.Errorf("server: %w: %q", dfs.ErrExists, clean)
	}
	err = sh.srv.CreateAs(clean, size, tenant)
	if err != nil && errors.Is(err, dfs.ErrNoCapacity) {
		borrowed := false
		sh.srv.Exec(func(fs *dfs.FileSystem) { borrowed = sh.quota.EnsureCreateFor(tenant, fs, size) })
		if borrowed {
			err = sh.srv.CreateAs(clean, size, tenant)
		}
	}
	return err
}

// CreateAt submits a creation stamped with an explicit virtual time (replay
// mode) to the owning shard. No borrow-retry: replay traces are expected to
// fit the planned quota or to handle the error themselves.
func (s *ShardedServer) CreateAt(path string, size int64, at time.Time) <-chan error {
	clean, err := canonicalPath(path)
	if err != nil {
		res := make(chan error, 1)
		res <- err
		return res
	}
	sh, fallback := s.routeFor(clean)
	if fallback != nil && fallback.srv.Exists(clean) {
		res := make(chan error, 1)
		res <- fmt.Errorf("server: %w: %q", dfs.ErrExists, clean)
		return res
	}
	return sh.srv.CreateAt(clean, size, at)
}

// CreateAtAs is CreateAt with a tenant identity. Like CreateAt it skips the
// borrow-retry: explicitly stamped traffic handles capacity errors itself.
func (s *ShardedServer) CreateAtAs(path string, size int64, at time.Time, tenant storage.TenantID) <-chan error {
	clean, err := canonicalPath(path)
	if err != nil {
		res := make(chan error, 1)
		res <- err
		return res
	}
	sh, fallback := s.routeFor(clean)
	if fallback != nil && fallback.srv.Exists(clean) {
		res := make(chan error, 1)
		res <- fmt.Errorf("server: %w: %q", dfs.ErrExists, clean)
		return res
	}
	return sh.srv.CreateAtAs(clean, size, at, tenant)
}

// Delete removes a file, blocking for the outcome. During a migration epoch
// the file can live on the primary, the fallback side, or (mid-copy)
// briefly both, so the delete covers both sides: when the primary delete
// succeeds any lingering fallback copy is dropped through the migration-
// teardown path (no second client-deletion stats bump — one logical file,
// one counted delete); when the primary never had the file the delete falls
// through to the fallback, which then counts the one real deletion. That is
// what makes a racing migration honor the delete instead of resurrecting
// the file.
func (s *ShardedServer) Delete(path string) error {
	clean, err := canonicalPath(path)
	if err != nil {
		return err
	}
	primary, fallback := s.routeFor(clean)
	err = primary.srv.Delete(clean)
	if fallback == nil {
		return err
	}
	if err == nil {
		<-fallback.srv.detachAt(clean, fallback.srv.clock())
		return nil
	}
	if errors.Is(err, dfs.ErrNotFound) {
		return fallback.srv.Delete(clean)
	}
	return err
}

// DeleteAt submits a deletion stamped with an explicit virtual time. It
// honors a migration epoch exactly like Delete — primary first, then the
// fallback side is cleared (or, when the primary never had the file,
// deleted) before the result resolves. The two halves are sequenced by a
// combiner goroutine rather than inside either core loop: a fallback op
// enqueued on one shard loop must never block on another loop's result, or
// two opposite-direction deletes could deadlock the loops on each other.
func (s *ShardedServer) DeleteAt(path string, at time.Time) <-chan error {
	clean, err := canonicalPath(path)
	if err != nil {
		res := make(chan error, 1)
		res <- err
		return res
	}
	primary, fallback := s.routeFor(clean)
	pres := primary.srv.DeleteAt(clean, at)
	if fallback == nil {
		return pres
	}
	res := make(chan error, 1)
	go func() {
		perr := <-pres
		switch {
		case perr == nil:
			<-fallback.srv.detachAt(clean, at)
			res <- nil
		case errors.Is(perr, dfs.ErrNotFound):
			res <- <-fallback.srv.DeleteAt(clean, at)
		default:
			res <- perr
		}
	}()
	return res
}

// Access records a client access on the owning shard and returns the
// serving tier. The hot path stays shard-local: route hash, stripe lookup,
// ring push. During a migration epoch the read double-reads — destination
// first, hash owner on a miss — so clients never block on a move.
func (s *ShardedServer) Access(path string) (AccessResult, error) {
	clean, err := canonicalPath(path)
	if err != nil {
		return AccessResult{}, err
	}
	primary, fallback := s.routeFor(clean)
	res, err := primary.srv.Access(clean)
	if fallback != nil && errors.Is(err, dfs.ErrNotFound) {
		return fallback.srv.Access(clean)
	}
	return res, err
}

// AccessAt records an access at an explicit virtual time (replay mode).
func (s *ShardedServer) AccessAt(path string, at time.Time) (AccessResult, error) {
	clean, err := canonicalPath(path)
	if err != nil {
		return AccessResult{}, err
	}
	primary, fallback := s.routeFor(clean)
	res, err := primary.srv.AccessAt(clean, at)
	if fallback != nil && errors.Is(err, dfs.ErrNotFound) {
		return fallback.srv.AccessAt(clean, at)
	}
	return res, err
}

// AccessAs records a tenant's access on the owning shard.
func (s *ShardedServer) AccessAs(path string, tenant storage.TenantID) (AccessResult, error) {
	clean, err := canonicalPath(path)
	if err != nil {
		return AccessResult{}, err
	}
	primary, fallback := s.routeFor(clean)
	res, err := primary.srv.AccessAs(clean, tenant)
	if fallback != nil && errors.Is(err, dfs.ErrNotFound) {
		return fallback.srv.AccessAs(clean, tenant)
	}
	return res, err
}

// AccessAtAs records a tenant's access at an explicit virtual time.
func (s *ShardedServer) AccessAtAs(path string, at time.Time, tenant storage.TenantID) (AccessResult, error) {
	clean, err := canonicalPath(path)
	if err != nil {
		return AccessResult{}, err
	}
	primary, fallback := s.routeFor(clean)
	res, err := primary.srv.AccessAtAs(clean, at, tenant)
	if fallback != nil && errors.Is(err, dfs.ErrNotFound) {
		return fallback.srv.AccessAtAs(clean, at, tenant)
	}
	return res, err
}

// Stat returns the metadata snapshot of a served file.
func (s *ShardedServer) Stat(path string) (FileInfo, error) {
	clean, err := canonicalPath(path)
	if err != nil {
		return FileInfo{}, err
	}
	primary, fallback := s.routeFor(clean)
	info, err := primary.srv.Stat(clean)
	if fallback != nil && errors.Is(err, dfs.ErrNotFound) {
		return fallback.srv.Stat(clean)
	}
	return info, err
}

// Exists reports whether a served file exists.
func (s *ShardedServer) Exists(path string) bool {
	clean, err := canonicalPath(path)
	if err != nil {
		return false
	}
	primary, fallback := s.routeFor(clean)
	if primary.srv.Exists(clean) {
		return true
	}
	return fallback != nil && fallback.srv.Exists(clean)
}

// List returns the sorted file names directly under dir. Under static
// routing every child of a directory routes to the same shard; during a
// migration epoch the subtree is split between destination and hash owner,
// so the two sorted listings merge (deduplicated — a name can briefly
// appear on both sides around a recreate).
func (s *ShardedServer) List(dir string) []string {
	clean, err := canonicalPath(dir)
	if err != nil {
		return nil
	}
	primary, fallback := s.routeDir(clean)
	names := primary.srv.List(clean)
	if fallback == nil {
		return names
	}
	other := fallback.srv.List(clean)
	if len(other) == 0 {
		return names
	}
	merged := make([]string, 0, len(names)+len(other))
	i, j := 0, 0
	for i < len(names) && j < len(other) {
		switch {
		case names[i] == other[j]:
			merged = append(merged, names[i])
			i++
			j++
		case names[i] < other[j]:
			merged = append(merged, names[i])
			i++
		default:
			merged = append(merged, other[j])
			j++
		}
	}
	merged = append(merged, names[i:]...)
	return append(merged, other[j:]...)
}

// Flush fences every shard: all published access events drained, in-flight
// creates committed, movement executors idle. Open migration epochs get a
// straggler drain — files that were mid-create or in transition during the
// live sweeps can move now that the system is quiescing — then the shards
// fence again to absorb the moves.
func (s *ShardedServer) Flush() {
	for _, sh := range s.shards {
		sh.srv.Flush()
	}
	if s.reb == nil || !s.running {
		return
	}
	open := false
	for _, e := range s.routes.entries() {
		if e.state == routeMigrating || e.state == routeDraining {
			open = true
			break
		}
	}
	if !open {
		return
	}
	s.reb.drain()
	for _, sh := range s.shards {
		sh.srv.Flush()
	}
}

// Exec runs fn inside each shard's loop in shard order, with exclusive
// access to that shard's file system — the escape hatch for perturbations
// and final-state inspection.
func (s *ShardedServer) Exec(fn func(shard int, fs *dfs.FileSystem)) {
	for i, sh := range s.shards {
		if !s.running {
			fn(i, sh.fs)
			continue
		}
		i := i
		sh.srv.Exec(func(fs *dfs.FileSystem) { fn(i, fs) })
	}
}

// --- Node membership (global state, fanned out) ---

// FailNode removes the worker with the given id from every shard's view and
// settles the departed capacity against the ledger totals: the quota that
// lived on the node's devices leaves the shards' capacity terms, and the
// node's pooled share is retired — debited from the free pool where it can
// be, recorded as a deficit that future quota Returns pay down where it is
// still out on loan — so dead-node capacity can never be borrowed back
// into existence.
func (s *ShardedServer) FailNode(id int) {
	var removed [3]int64
	for _, sh := range s.shards {
		sh := sh
		sh.srv.Exec(func(fs *dfs.FileSystem) {
			if n := fs.Cluster().Node(id); n != nil {
				r := fs.FailNode(n)
				for t := range removed {
					removed[t] += r[t]
				}
				sh.quota.clampBaseline()
			}
		})
	}
	pooled := s.nodePooled[id]
	delete(s.nodePooled, id)
	for _, m := range storage.AllMedia {
		s.ledger.ShrinkTotal(m, removed[m])
		s.ledger.Retire(m, pooled[m])
	}
}

// AddNode joins a fresh worker to every shard's view, splitting its
// capacity into per-shard grants plus a pooled remainder exactly like
// construction did. Node ids stay aligned across shards because every
// membership change fans out to all of them.
func (s *ShardedServer) AddNode(spec storage.NodeSpec, slots int) {
	shardSpec, nodeTotal, nodeGrant, nodePooled := splitSpec(spec, len(s.shards), s.cfg.Quota.InitialFraction)
	newID := -1
	for _, sh := range s.shards {
		sh := sh
		sh.srv.Exec(func(fs *dfs.FileSystem) {
			n := fs.AddNode(shardSpec, slots)
			sh.quota.nodeJoined(nodeGrant)
			newID = n.ID()
		})
	}
	if newID >= 0 {
		s.nodePooled[newID] = nodePooled
	}
	for _, m := range storage.AllMedia {
		s.ledger.AddCapacity(m, nodeTotal[m], nodePooled[m])
	}
}

// --- Aggregated state, verification, and reporting ---

// TierResidency merges the per-shard residency snapshots (namespaces are
// disjoint by construction).
func (s *ShardedServer) TierResidency() map[string][3]bool {
	out := make(map[string][3]bool)
	s.Exec(func(_ int, fs *dfs.FileSystem) {
		for path, res := range fs.TierResidency() {
			out[path] = res
		}
	})
	return out
}

// LiveReplicaBytes sums the live replica bytes across shards.
func (s *ShardedServer) LiveReplicaBytes() int64 {
	var total int64
	s.Exec(func(_ int, fs *dfs.FileSystem) { total += fs.LiveReplicaBytes() })
	return total
}

// TierUsage aggregates used and quota-granted capacity across shards. Note
// capacity here is the granted side only; the tier's physical total is
// granted + ledger free + ledger reserved (see Ledger).
func (s *ShardedServer) TierUsage(m storage.Media) (used, capacity int64) {
	s.Exec(func(_ int, fs *dfs.FileSystem) {
		u, c := fs.Cluster().TierUsage(m)
		used += u
		capacity += c
	})
	return used, capacity
}

// Verify runs the full invariant suite — per-shard capacity accounting,
// deep structural checks, candidate-index audits, and the global ledger
// conservation equation — and returns every violation found. Call at a
// quiescent point (after Flush with clients stopped, or after Close) for
// exact results.
func (s *ShardedServer) Verify() []string {
	var violations []string
	s.Exec(func(i int, fs *dfs.FileSystem) {
		if err := fs.CheckAccounting(); err != nil {
			violations = append(violations, fmt.Sprintf("shard %d: %v", i, err))
		}
		if err := fs.CheckInvariants(); err != nil {
			violations = append(violations, fmt.Sprintf("shard %d: %v", i, err))
		}
		if sh := s.shards[i]; sh.mgr != nil {
			if err := sh.mgr.Context().Index().Audit(); err != nil {
				violations = append(violations, fmt.Sprintf("shard %d index: %v", i, err))
			}
		}
	})
	// The conservation equation sums per-shard capacities through
	// sequential per-shard fences. While shard loops are live (pacers,
	// reconcile tickers, policy-tick borrows), capacity can legitimately
	// move between the snapshot of one shard and the next, so a transient
	// mismatch is re-snapshotted before being declared a divergence; a real
	// leak fails every attempt.
	var ledgerErr error
	for attempt := 0; attempt < 3; attempt++ {
		var granted [3]int64
		s.Exec(func(_ int, fs *dfs.FileSystem) {
			for _, m := range storage.AllMedia {
				_, c := fs.Cluster().TierUsage(m)
				granted[m] += c
			}
		})
		if ledgerErr = s.ledger.Check(granted); ledgerErr == nil {
			break
		}
	}
	if ledgerErr != nil {
		violations = append(violations, ledgerErr.Error())
	}
	for i, sh := range s.shards {
		if v := sh.srv.Executor().Stats().CheckBudgets(); v != "" {
			violations = append(violations, fmt.Sprintf("shard %d: %s", i, v))
		}
	}
	// Invariant failures are exactly what the flight recorder exists for:
	// record each one so a dump carries the violation next to the spans and
	// movement records that led up to it.
	for _, v := range violations {
		s.cfg.Inner.Obs.EmitEvent(&obs.Event{What: "invariant-violation", Detail: v})
	}
	return violations
}

// Stats sums the serving counters across shards.
func (s *ShardedServer) Stats() ServeStats {
	var out ServeStats
	for _, sh := range s.shards {
		out.add(sh.srv.Stats())
	}
	return out
}

// ShardStats returns each shard's serving counters individually, in shard
// order — the per-shard view behind the imbalance ratio.
func (s *ShardedServer) ShardStats() []ServeStats {
	out := make([]ServeStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.srv.Stats()
	}
	return out
}

// RebalanceStats snapshots the rebalancer's counters (zero value when the
// rebalancer is off).
func (s *ShardedServer) RebalanceStats() RebalanceStats {
	if s.reb == nil {
		return RebalanceStats{}
	}
	return s.reb.snapshot()
}

// RebalanceTick runs one detection round synchronously — the replay-mode
// and test entry point (live mode runs the same round on a wall ticker).
func (s *ShardedServer) RebalanceTick() {
	if s.reb != nil {
		s.reb.tick()
	}
}

// ExecutorStats sums the movement-executor counters across shards; the
// virtual-time sample is the maximum over shards. Bucket capacities and
// refill rates are summed too, so the aggregate snapshot pairs the summed
// AdmittedBytes with the fleet-wide budget (and CheckBudgets on it stays
// sound: each shard obeys burst_i + rate_i*t_i with t_i <= the reported
// maximum). Per-shard budget bounds are checked individually in Verify.
func (s *ShardedServer) ExecutorStats() ExecutorStats {
	var out ExecutorStats
	for _, sh := range s.shards {
		st := sh.srv.Executor().Stats()
		if st.VirtualSeconds > out.VirtualSeconds {
			out.VirtualSeconds = st.VirtualSeconds
		}
		out.Defers += st.Defers
		for i := range out.PerTier {
			a, b := &out.PerTier[i], st.PerTier[i]
			a.Scheduled += b.Scheduled
			a.Completed += b.Completed
			a.Failed += b.Failed
			a.Shed += b.Shed
			a.AdmittedBytes += b.AdmittedBytes
			// High-water marks do not sum (shards peak at different times);
			// report the largest per-shard peak.
			if b.MaxInFlightBytes > a.MaxInFlightBytes {
				a.MaxInFlightBytes = b.MaxInFlightBytes
			}
			a.BudgetBytes += b.BudgetBytes
			a.RateBytesPerSec += b.RateBytesPerSec
		}
	}
	return out
}

// QuotaStats sums the ledger-protocol traffic across shards.
func (s *ShardedServer) QuotaStats() QuotaStats {
	var out QuotaStats
	for _, sh := range s.shards {
		st := sh.quota.stats()
		out.Borrows += st.Borrows
		out.BorrowFailures += st.BorrowFailures
		out.BorrowedBytes += st.BorrowedBytes
		out.ReturnedBytes += st.ReturnedBytes
	}
	return out
}

// AccessLatency merges the per-shard access-path histograms.
func (s *ShardedServer) AccessLatency() *Histogram {
	out := &Histogram{}
	for _, sh := range s.shards {
		out.AddFrom(sh.srv.AccessLatency())
	}
	return out
}

// MutateLatency merges the per-shard create/delete histograms.
func (s *ShardedServer) MutateLatency() *Histogram {
	out := &Histogram{}
	for _, sh := range s.shards {
		out.AddFrom(sh.srv.MutateLatency())
	}
	return out
}

// ReadLatency merges the per-shard tier-real read-latency histograms for
// one tier.
func (s *ShardedServer) ReadLatency(m storage.Media) *Histogram {
	out := &Histogram{}
	for _, sh := range s.shards {
		out.AddFrom(sh.srv.ReadLatency(m))
	}
	return out
}

// TenantReadLatency merges the per-shard read-latency histograms of one
// configured tenant (nil for an unknown tenant).
func (s *ShardedServer) TenantReadLatency(t storage.TenantID) *Histogram {
	var out *Histogram
	for _, sh := range s.shards {
		h := sh.srv.TenantReadLatency(t)
		if h == nil {
			continue
		}
		if out == nil {
			out = &Histogram{}
		}
		out.AddFrom(h)
	}
	return out
}

// SLOStats sums the admission-controller counters across shards.
func (s *ShardedServer) SLOStats() SLOStats {
	var out SLOStats
	for _, sh := range s.shards {
		st := sh.srv.SLOStats()
		out.add(st)
	}
	return out
}

// Plane returns the data plane shared by every shard's cluster view (nil
// when none is attached).
func (s *ShardedServer) Plane() storage.DataPlane { return s.cfg.Cluster.Plane }

// Service is the client-facing surface shared by the single-writer Server
// and the ShardedServer, so drivers like cmd/octoload switch between them
// with a flag.
type Service interface {
	Create(path string, size int64) error
	CreateAs(path string, size int64, tenant storage.TenantID) error
	Delete(path string) error
	Access(path string) (AccessResult, error)
	AccessAs(path string, tenant storage.TenantID) (AccessResult, error)
	Stat(path string) (FileInfo, error)
	Exists(path string) bool
	List(dir string) []string
	Flush()
	// Stamped variants and the wall-mapped virtual clock: open-loop drivers
	// stamp each op with its intended arrival time so the policy layer sees
	// the arrival process, not the dispatch process.
	Clock() time.Time
	CreateAt(path string, size int64, at time.Time) <-chan error
	CreateAtAs(path string, size int64, at time.Time, tenant storage.TenantID) <-chan error
	DeleteAt(path string, at time.Time) <-chan error
	AccessAt(path string, at time.Time) (AccessResult, error)
	AccessAtAs(path string, at time.Time, tenant storage.TenantID) (AccessResult, error)
}

var (
	_ Service = (*Server)(nil)
	_ Service = (*ShardedServer)(nil)
)
