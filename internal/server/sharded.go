package server

import (
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
// its CandidateIndex and tracker, dirty list of accessed files, and movement
// executor — drained by its own dedicated single-writer loop (shard, in
// server.go).
// Mutations and policy ticks in different shards never share a goroutine, a
// lock, or an engine, so structural write throughput scales with cores
// instead of serializing through one writer.
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
//     shard's view (same node ids everywhere). Each shard's membership
//     hook settles the capacity that left or joined its own view against
//     the ledger totals, on its own loop; the fan-out settles only the
//     node's pooled remainder.
//   - Device bandwidth lives behind the storage.DataPlane: every shard's
//     view of one physical device shares that device's virtual-clock
//     channel (keyed by the device ID, identical across views), so serve
//     reads and movement in different shards contend for the physical
//     channel the same way capacity contends through the ledger. The plane
//     rides in on Cluster.Plane, which every shard's view inherits.
//
// Paths route to shards by a hash of the parent directory, so files in one
// directory share a shard. The route decides only where a create lands; one
// namespace (nsShards) names the shard holding each file, whatever the route
// table says, and every op on an existing file — read, stat, delete —
// resolves there. shards=1 is the degenerate case, not a second type: one
// single-writer loop with the full quota, an empty pool and no protocol
// traffic.

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
	// Inner is the per-shard serving configuration (stripe count, pacing,
	// executor).
	Inner Config
	// Rebalance tunes the dynamic shard rebalancer (default off: static
	// parent-dir-hash routing with no tracking cost).
	Rebalance RebalanceConfig
}

// ShardedServer is the serving layer — the only one. Construct with
// NewSharded, Start it, then any number of goroutines may use the client
// API; shard routing is deterministic by parent directory. Close drains
// outstanding work and stops the shard loops; afterwards the caller may
// touch the file systems directly again (through Exec).
type ShardedServer struct {
	cfg    ShardedConfig
	shards []*shard
	ns     *nsShards // every shard publishes its files here; reads resolve here
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
	// running is true between Start and Close.
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
// cluster views, file systems, managers (via cfg.Build), and shard loops,
// plus the global capacity ledger.
func NewSharded(cfg ShardedConfig) (*ShardedServer, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	cfg.Quota.applyDefaults(cfg.Shards)
	shardSpec, nodeTotal, nodeGrant, nodePooled := splitSpec(cfg.Cluster.Spec, cfg.Shards, cfg.Quota.InitialFraction)

	s := &ShardedServer{cfg: cfg, ns: newNSShards(nsStripes * cfg.Shards), ledger: cluster.NewTierLedger(), nodePooled: make(map[int][3]int64)}
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
		// Whoever applies node churn to this shard's view — the fan-out API
		// or a scenario perturbation running inside the loop — the ledger
		// total and the quota baseline follow in the same step.
		fs.AddMembershipHook(quota.membershipChanged)
		if mgr != nil {
			// Policies see quota + borrowable pool when sizing decisions;
			// watermarks stay quota-local (soft-quota contract).
			mgr.Context().SetTierHeadroom(s.ledger.FreeBytes)
		}
		// Each shard labels its metrics and spans with its index on the
		// shared hub (which rides in on cfg.Inner.Obs).
		sh := newShard(i, fs, mgr, cfg.Inner, s.ns)
		sh.quota = quota
		// Movement destinations borrow quota right before each admitted
		// move, on the shard loop, through the two-phase protocol.
		sh.exec.preMove = func(tier storage.Media, bytes int64) bool {
			return quota.EnsureSpreadFor(storage.DefaultTenant, tier, bytes, 1)
		}
		s.shards = append(s.shards, sh)
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
// serving metrics register inside each shard's startAt.
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

// Clock returns the wall-mapped virtual time (zero in replay mode, meaning
// "at the shard loop's current virtual time"): what an Op with a zero At is
// stamped with, and the base open-loop drivers add intended arrival offsets
// to. Start gives every shard the same pacing origin, so any shard's clock
// is the clock of all of them.
func (s *ShardedServer) Clock() time.Time { return s.shards[0].clock() }

// Ledger exposes the global capacity ledger (all reads are atomic).
func (s *ShardedServer) Ledger() *cluster.TierLedger { return s.ledger }

// Start launches every shard: managers, shard loops (which pace themselves
// under live load), and the quota reconciliation tickers.
func (s *ShardedServer) Start() {
	if s.running {
		return
	}
	s.running = true
	// One pacing origin for all shards: a per-shard time.Now() would skew the
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
		sh.startAt(wall, virt)
		if len(s.shards) > 1 {
			sh := sh
			sh.inLoop(func(*dfs.FileSystem) {
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
		// Halt the rebalancer first: a round mid-migration runs on the
		// shard loops (so they must still be up), and inLoop reads each
		// shard's started flag — stopping a shard must not race a live round
		// into taking the direct-access path while its loop is still open.
		s.reb.halt()
	}
	s.running = false
	for _, sh := range s.shards {
		sh.stop()
		if sh.reconcile != nil {
			sh.reconcile.Stop() // loop stopped; direct access is safe now
			sh.reconcile = nil
		}
		if sh.mgr != nil {
			sh.mgr.Stop()
		}
	}
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

// routeDir resolves a directory to the one shard its creates go to. The
// route table overrides the hash for whole subtrees: a migrating or committed
// entry sends the subtree to its destination, and a draining entry (a
// subtree folding back to static routing) sends it to the per-dir hash owner
// again. Without an override — including always when the rebalancer is off —
// this is exactly the static parent-dir hash. Where a file already lives is
// the namespace's to say, not the route's.
func (s *ShardedServer) routeDir(dir string) *shard {
	if e := s.routes.lookup(dir); e != nil && e.state != routeDraining {
		return s.shards[e.dst]
	}
	return s.shards[fnv32(dir)%uint32(len(s.shards))]
}

// route canonicalises the path of a create or delete and resolves its
// primary, the shard creates go to. Routing is by the parent directory; it
// also feeds the rebalancer's load tracker. dfs.CleanPath fast-paths
// already-canonical input without allocating, so routed ops pay one scan
// here.
func (s *ShardedServer) route(path string) (clean string, primary *shard, err error) {
	if clean, err = dfs.CleanPath(path); err != nil {
		return "", nil, err
	}
	return clean, s.routePath(clean), nil
}

// routePath is route for a canonical path.
func (s *ShardedServer) routePath(clean string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	dir, _ := parentOf(clean)
	primary := s.routeDir(dir)
	if s.reb != nil {
		s.reb.tracker.note(dir, primary.idx)
	}
	return primary
}

// lookup resolves a canonical path to its handle in the one namespace (nil
// when no shard holds it). It routes only where it must: on a miss, for the
// primary to book it on, and while the rebalancer runs, to note the op for
// the load tracker under its primary, so rebalance decisions do not depend
// on where the namespace found the file.
func (s *ShardedServer) lookup(clean string) (h *handle, primary *shard) {
	if h, _ = s.ns.get(clean); h == nil || s.reb != nil {
		primary = s.routePath(clean)
	}
	return h, primary
}

func notFound(path string) error {
	return fmt.Errorf("server: %w: %q", dfs.ErrNotFound, path)
}

// failed returns an already-resolved outcome channel.
func failed(err error) <-chan error {
	res := make(chan error, 1)
	res <- err
	return res
}

// --- Client API ---

// Do runs one op and blocks for its outcome.
//
// An access records the read on the shard holding the file and returns the
// serving tier; the hot path is one namespace lookup (which names that
// shard, even while the rebalancer moves the file) and the handle's access
// accumulator, so clients never block on a move. With a zero At it is
// stamped with Clock() and observes the access-path latency histogram.
//
// A create or delete is Submit's, waited for: a create until the shard's
// write pipeline commits (see shard.applyCreate for its one quota borrow).
// It resolves its shard like a read: the one the namespace names for the
// path, or the primary when none holds it (see submit).
func (s *ShardedServer) Do(op Op) (AccessResult, error) {
	if op.Kind == OpAccess {
		clean, err := dfs.CleanPath(op.Path)
		if err != nil {
			return AccessResult{}, err
		}
		op.Path = clean
		if !op.At.IsZero() {
			res, _, err := s.access(op)
			return res, err
		}
		start := time.Now()
		op.At = s.Clock()
		res, sh, err := s.access(op)
		sh.accessHist.Observe(time.Since(start))
		return res, err
	}
	return AccessResult{}, <-s.Submit(op)
}

// Submit enqueues a create or delete on its shard and returns a buffered
// channel that receives the outcome — the non-blocking form replay and
// open-loop drivers pipeline (in replay mode virtual time only advances
// inside Flush, so receiving before fencing would deadlock). The op is on
// its shard's loop when Submit returns, so ops submitted to one path run in
// submission order and Flush fences them; only a delete's follow-up on the
// shard a moved file landed on completes asynchronously.
func (s *ShardedServer) Submit(op Op) <-chan error {
	clean, primary, err := s.route(op.Path)
	if err != nil {
		return failed(err)
	}
	op.Path = clean
	return s.submit(op, primary)
}

// submit is the routed half of Submit. It resolves the path's owner: the
// shard the namespace names, or the primary when none holds it yet or when
// no file can live off its route (no rebalancer and an empty route table).
func (s *ShardedServer) submit(op Op, primary *shard) <-chan error {
	if op.At.IsZero() {
		op.At = s.Clock()
	}
	owner := primary
	if s.reb != nil || s.routes.entries() != nil {
		if h, ok := s.ns.get(op.Path); ok {
			owner = h.sh
		}
	}
	switch op.Kind {
	case OpCreate:
		// A file another shard holds — not yet moved under a route, or created
		// through a route that went stale — exists all the same, and creating
		// over it must fail the way a single shard would. (A file on the
		// primary fails inside fs.Create.)
		if owner != primary {
			return failed(fmt.Errorf("server: %w: %q", dfs.ErrExists, op.Path))
		}
		return primary.create(op)
	case OpDelete:
		return s.delete(op, owner)
	}
	return failed(fmt.Errorf("server: op kind %d cannot be submitted", op.Kind))
}

// access is the router's half of an access: hand the file's handle to the
// shard holding it, or book the miss on the primary, and return the shard
// booked. Every shard shares the hub; finishSpan stamps the shard.
func (s *ShardedServer) access(op Op) (AccessResult, *shard, error) {
	sp, spStart := s.shards[0].sampleSpan("access", op.Path, op.Tenant)
	h, primary := s.lookup(op.Path)
	if h == nil {
		primary.counters.accessMisses.Add(1)
		primary.finishSpan(sp, spStart, op.At, "not found")
		return AccessResult{}, primary, notFound(op.Path)
	}
	return h.sh.access(h, op, sp, spStart), h.sh, nil
}

// delete is the router's half of a delete. Its first attempt, on the owner
// submit resolved, is enqueued before delete returns, so whatever the
// caller submits next (a pipelined re-create, a Flush) orders behind it on
// the shard loop. If the file moved since, the attempt misses and the
// namespace names another shard, which is asked next — each shard at most
// once (see shard.applyDelete).
func (s *ShardedServer) delete(op Op, owner *shard) <-chan error {
	res := make(chan error, 1)
	owner.enqueue(command{kind: cmdDelete, at: op.At, path: op.Path, res: res, start: monoNow()})
	return res
}

// AccessAt records an access at an explicit virtual time (replay and
// open-loop drivers); it does not observe the access-path histogram. It,
// CreateAt and DeleteAt stay beside Op because the repository's benchmark
// (bench/) calls them; frozen_api_test.go pins all three.
func (s *ShardedServer) AccessAt(path string, at time.Time) (AccessResult, error) {
	return s.Do(Op{Kind: OpAccess, Path: path, At: at})
}

// CreateAt submits a creation stamped with an explicit virtual time; see
// Submit. Kept for bench/, like AccessAt.
func (s *ShardedServer) CreateAt(path string, size int64, at time.Time) <-chan error {
	return s.Submit(Op{Kind: OpCreate, Path: path, Size: size, At: at})
}

// DeleteAt submits a deletion stamped with an explicit virtual time; see
// Submit. Kept for bench/, like AccessAt.
func (s *ShardedServer) DeleteAt(path string, at time.Time) <-chan error {
	return s.Submit(Op{Kind: OpDelete, Path: path, At: at})
}

// Stat returns the metadata snapshot of a served file (stripe-only).
func (s *ShardedServer) Stat(path string) (FileInfo, error) {
	clean, err := dfs.CleanPath(path)
	if err != nil {
		return FileInfo{}, err
	}
	h, primary := s.lookup(clean)
	if h == nil {
		primary.counters.stats.Add(1)
		return FileInfo{}, notFound(clean)
	}
	h.sh.counters.stats.Add(1)
	return FileInfo{Path: h.path, Size: h.size, Residency: h.residency()}, nil
}

// List returns the sorted file names directly under dir, whichever shards
// hold the files: a scan of the one namespace stripe every child of dir
// hashes to, under its read lock. The list is booked on the shard the
// directory's children route to.
func (s *ShardedServer) List(dir string) []string {
	clean, err := dfs.CleanPath(dir)
	if err != nil {
		return nil
	}
	s.routeDir(clean).counters.lists.Add(1)
	return s.ns.list(clean)
}

// Flush fences every shard: all noted accesses applied, in-flight
// creates committed, movement executors idle. Open migration epochs get a
// straggler drain — files mid-create or in transition during the live
// sweeps can move, and stale copies go, now that the system is quiescing —
// then the shards fence again to absorb the moves.
func (s *ShardedServer) Flush() {
	for _, sh := range s.shards {
		sh.flush()
	}
	if s.reb == nil || !s.running || !s.reb.drain() {
		return
	}
	for _, sh := range s.shards {
		sh.flush()
	}
}

// Exec runs fn inside each shard's loop in shard order, with exclusive
// access to that shard's file system — the escape hatch for perturbations
// and final-state inspection.
func (s *ShardedServer) Exec(fn func(shard int, fs *dfs.FileSystem)) {
	for i, sh := range s.shards {
		i := i
		sh.inLoop(func(fs *dfs.FileSystem) { fn(i, fs) })
	}
}

// --- Node membership (global state, fanned out) ---

// FailNode removes the worker with the given id from every shard's view.
// Each shard's membership hook takes the quota that lived on the node's
// devices out of the ledger total on its own loop; what is settled here is
// the node's pooled share, retired — debited from the free pool where it
// can be, recorded as a deficit that future quota Returns pay down where it
// is still out on loan — so dead-node capacity can never be borrowed back
// into existence.
func (s *ShardedServer) FailNode(id int) {
	s.Exec(func(_ int, fs *dfs.FileSystem) {
		if n := fs.Cluster().Node(id); n != nil {
			fs.FailNode(n)
		}
	})
	pooled := s.nodePooled[id]
	delete(s.nodePooled, id)
	for _, m := range storage.AllMedia {
		s.ledger.Retire(m, pooled[m])
	}
}

// AddNode joins a fresh worker to every shard's view, splitting its
// capacity into per-shard grants (which each shard's membership hook adds to
// the ledger total and its quota baseline) plus a pooled remainder, exactly
// like construction did. Node ids stay aligned across shards because every
// membership change fans out to all of them.
func (s *ShardedServer) AddNode(spec storage.NodeSpec, slots int) {
	shardSpec, _, _, nodePooled := splitSpec(spec, len(s.shards), s.cfg.Quota.InitialFraction)
	newID := -1
	s.Exec(func(_ int, fs *dfs.FileSystem) { newID = fs.AddNode(shardSpec, slots).ID() })
	s.nodePooled[newID] = nodePooled
	for _, m := range storage.AllMedia {
		s.ledger.AddCapacity(m, nodePooled[m], nodePooled[m])
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
// deep structural checks, candidate-index audits, the access accounting
// identity, namespace coherence, and the global ledger conservation
// equation — and returns every violation found. Call at a quiescent point
// (after Flush with clients stopped, or after Close) for exact results.
func (s *ShardedServer) Verify() []string {
	var violations []string
	s.Exec(func(i int, fs *dfs.FileSystem) {
		if err := fs.CheckAccounting(); err != nil {
			violations = append(violations, fmt.Sprintf("shard %d: %v", i, err))
		}
		if err := fs.CheckInvariants(); err != nil {
			violations = append(violations, fmt.Sprintf("shard %d: %v", i, err))
		}
		sh := s.shards[i]
		// The namespace and the shards agree both ways: every handle it
		// names on this shard is live here, and outside open (migrating or
		// draining) route entries the shard holds no copy it stopped naming.
		s.ns.each(func(h *handle) {
			if h.sh == sh && fs.FileAt(h.file.Slot(), h.id) == nil {
				violations = append(violations, fmt.Sprintf("shard %d: namespace names %s, which the shard does not hold", i, h.path))
			}
		})
		// Every indexed handle's device pointers are its file's residency:
		// one on exactly the tiers holding a full replica set, each a device
		// of its tier.
		for _, h := range sh.handles {
			if h == nil || h.file == nil {
				continue // no slot, or a create in flight
			}
			for _, m := range storage.AllMedia {
				if d, resident := h.device(m), h.file.HasReplicaOn(m); (d != nil) != resident {
					violations = append(violations, fmt.Sprintf("shard %d: %s publishes a %v device: %v, resident: %v", i, h.path, m, d != nil, resident))
				} else if d != nil && d.Media() != m {
					violations = append(violations, fmt.Sprintf("shard %d: %s publishes %s as its %v device", i, h.path, d.ID(), m))
				}
			}
		}
		for _, f := range fs.LiveFiles() {
			dir, _ := parentOf(f.Path())
			if e := s.routes.lookup(dir); sh.stale(f) && (e == nil || e.state == routeCommitted) {
				violations = append(violations, fmt.Sprintf("shard %d: stale copy of %s outside a migration", i, f.Path()))
			}
		}
		if sh.mgr != nil {
			if err := sh.mgr.Context().Index().Audit(); err != nil {
				violations = append(violations, fmt.Sprintf("shard %d index: %v", i, err))
			}
		}
		// Every access a client was served is either applied to the policy
		// layer or on record as discarded, and what the loop counts as
		// applied is what the file system counted.
		st := sh.stats()
		if st.Accesses != st.EventsDrained+st.AccessesDiscarded {
			violations = append(violations, fmt.Sprintf("shard %d: %d accesses served, %d applied + %d discarded",
				i, st.Accesses, st.EventsDrained, st.AccessesDiscarded))
		}
		if grown := fs.Stats().FileAccesses - sh.accessBase; grown != st.EventsDrained+sh.directAccesses {
			violations = append(violations, fmt.Sprintf("shard %d: file system recorded %d accesses since start, the loop applied %d (+%d recorded in-loop)",
				i, grown, st.EventsDrained, sh.directAccesses))
		}
	})
	// The conservation equation sums per-shard capacities through
	// sequential per-shard fences. While shard loops are live (pacing,
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
		if v := sh.exec.Stats().CheckBudgets(); v != "" {
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

// fold merges one value per shard into a fresh accumulator — the one loop
// behind every cross-shard statistic below.
func fold[T any](s *ShardedServer, merge func(acc *T, sh *shard)) *T {
	acc := new(T)
	for _, sh := range s.shards {
		merge(acc, sh)
	}
	return acc
}

// Stats sums the serving counters across shards.
func (s *ShardedServer) Stats() ServeStats {
	return *fold(s, func(acc *ServeStats, sh *shard) { acc.add(sh.stats()) })
}

// ShardStats returns each shard's serving counters individually, in shard
// order — the per-shard view behind the imbalance ratio.
func (s *ShardedServer) ShardStats() []ServeStats {
	out := make([]ServeStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.stats()
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

// ExecutorStats sums the movement-executor counters across shards (see
// ExecutorStats.add for how budgets and high-water marks combine).
// Per-shard budget bounds are checked individually in Verify.
func (s *ShardedServer) ExecutorStats() ExecutorStats {
	return *fold(s, func(acc *ExecutorStats, sh *shard) { acc.add(sh.exec.Stats()) })
}

// QuotaStats sums the ledger-protocol traffic across shards.
func (s *ShardedServer) QuotaStats() QuotaStats {
	return *fold(s, func(acc *QuotaStats, sh *shard) { acc.add(sh.quota.stats()) })
}

// SLOStats sums the admission-controller counters across shards.
func (s *ShardedServer) SLOStats() SLOStats {
	return *fold(s, func(acc *SLOStats, sh *shard) { acc.add(sh.sloStats()) })
}

// AccessLatency merges the per-shard access-path histograms.
func (s *ShardedServer) AccessLatency() *Histogram {
	return fold(s, func(acc *Histogram, sh *shard) { acc.AddFrom(&sh.accessHist) })
}

// MutateLatency merges the per-shard create/delete histograms.
func (s *ShardedServer) MutateLatency() *Histogram {
	return fold(s, func(acc *Histogram, sh *shard) { acc.AddFrom(&sh.mutateHist) })
}

// ReadLatency merges the per-shard tier-real virtual read-latency
// histograms for one tier: the data-plane service times (queue + base +
// transfer) of accesses served from it. Empty without an attached plane.
func (s *ShardedServer) ReadLatency(m storage.Media) *Histogram {
	return fold(s, func(acc *Histogram, sh *shard) { acc.AddFrom(&sh.readLat[m]) })
}

// TenantReadLatency merges the per-shard read-latency histograms of one
// configured tenant across all tiers (nil for an unknown tenant).
func (s *ShardedServer) TenantReadLatency(t storage.TenantID) *Histogram {
	slot, ok := s.shards[0].tenantSlot[t] // every shard shares one tenant table
	if !ok {
		return nil
	}
	return fold(s, func(acc *Histogram, sh *shard) { acc.AddFrom(&sh.tenantLat[slot]) })
}

// Plane returns the data plane shared by every shard's cluster view (nil
// when none is attached).
func (s *ShardedServer) Plane() storage.DataPlane { return s.cfg.Cluster.Plane }
