// Package server is the concurrent serving layer over the tiered DFS: one
// ShardedServer that any number of client goroutines drive simultaneously,
// while the deterministic single-threaded simulation cores underneath stay
// untouched. The file systems are partitioned into N shards (see
// sharded.go); this file is one shard — a single-writer loop with a striped
// read path over the one namespace:
//
//   - A dedicated shard-loop goroutine owns the sim.Engine, the FileSystem,
//     and the Manager. Structural operations (create, delete, node churn,
//     quiesce) are commands applied there in arrival order, each clamped
//     forward to its virtual timestamp.
//   - Every shard publishes its files into one server-wide namespace
//     striped by a hash of the parent directory (nsShards), each entry
//     naming the shard that holds the file. Reads and the serving tier
//     decision run on client goroutines under per-stripe read locks and
//     resolve the owner in one lookup, even mid-migration; only a delete
//     still walks a migration epoch (see ShardedServer.delete).
//   - Accesses accumulate per file: every handle carries an atomic count of
//     accesses not yet applied and the latest virtual instant any of them
//     was stamped with. The client hot path is a stripe lookup plus two
//     atomics on the handle; only the access that takes a handle's count
//     from 0 to 1 touches shard-shared state, pushing the handle on the
//     shard's lock-free dirty list and ringing the loop's doorbell. The
//     shard loop takes the whole list, orders it by (stamp, file id), and
//     per file runs the engine to the stamp and applies one
//     dfs.RecordAccessN(file, n) — tracker, candidate index, upgrade hook —
//     off the client's critical path. A drain costs O(distinct files
//     touched); nothing is bounded, so no access is ever dropped.
//   - Replica movement runs on the MovementExecutor (per-tier pools,
//     bounded queues whose fullness parks the Manager's selection loop,
//     per-tier token-bucket byte budgets) installed as the Manager's Mover,
//     so upgrades/downgrades overlap with serving instead of competing with
//     it.
//
// Virtual time: under live load (Config.TimeScale > 0) a pacer maps wall
// time onto the virtual clock so device transfers, periodic policy ticks,
// and movement all progress while clients hammer the service. With
// TimeScale == 0 the server is replay-driven: callers stamp each operation
// with an explicit virtual time (Op.At) and fence with Flush, which is how
// the differential tests replay one trace through the sequential simulator
// and through the server and compare final states.
//
// What the policy layer sees of accesses: fenced (a Flush between two
// accesses of one file) it sees each access at its own stamp, which is what
// keeps the differential suites bit-identical to the sequential simulator.
// Under concurrent load it sees each file's accesses at drain granularity —
// the exact count, at the latest stamp, with the intermediate stamps
// collapsed onto it: the k-last window gets the instants a drain applied,
// and processes an access triggers (the upgrade hook, XGB's positive sample)
// run once per file per drain.
package server

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"octostore/internal/backend"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/obs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// Config tunes each shard's serving loop.
type Config struct {
	// TimeScale maps wall time to virtual time for live traffic: a scale of
	// 60 advances the simulation one virtual minute per wall second. Zero
	// disables the pacer; operations then carry explicit virtual
	// timestamps (replay mode).
	TimeScale float64
	// Executor tunes the async movement executor.
	Executor ExecutorConfig
	// Tenants declares the multi-tenant workload: per-tenant read-latency
	// histograms, and — for tenants with a ReadSLO — the latency-SLO
	// admission controller. Empty keeps the server tenant-blind, and a
	// tenant list without SLOs adds no engine events (the differential
	// suite relies on both).
	Tenants []TenantConfig
	// SLO tunes the admission controller (used only when a tenant sets a
	// ReadSLO).
	SLO SLOConfig
	// Obs attaches the observability hub: metric registration at Start,
	// sampled per-op spans, and movement-provenance records from the
	// executor. Nil (the default) disables every hook behind a single
	// pointer check, leaving the differential suites bit-for-bit.
	Obs *obs.Hub
}

const (
	// cmdBuffer is the command channel depth.
	cmdBuffer = 256
	// paceInterval is how often (wall clock) the pacer advances virtual time
	// under live load.
	paceInterval = time.Millisecond
)

// OpKind selects what an Op does.
type OpKind uint8

const (
	// OpAccess records a client read and returns the tier that serves it.
	OpAccess OpKind = iota
	// OpCreate writes a new file of Op.Size bytes.
	OpCreate
	// OpDelete removes a file.
	OpDelete
)

// Op is one client request: the single value the router and the shard loops
// take. The zero At means "now on the server's clock" (Clock()), the zero
// Tenant is storage.DefaultTenant (untagged traffic).
type Op struct {
	Kind OpKind
	Path string
	// Size is the file size of a create.
	Size int64
	// At is the virtual time the op happens at. Open-loop and replay drivers
	// stamp it with the intended arrival so the policy layer sees the
	// arrival process, not the dispatch process.
	At time.Time
	// Tenant tags the op end to end: plane charges (weighted-fair
	// arbitration on a multi-tenant plane), the tenant's read-latency
	// histogram, and — for creates — the ledger budget a capacity borrow is
	// admitted against.
	Tenant storage.TenantID
}

// AccessResult describes how an access was served.
type AccessResult struct {
	// Tier is the fastest tier holding a full replica set at serve time.
	Tier storage.Media
	// Served is false when no tier had full residency (e.g. mid-churn); the
	// access is still recorded for the policies.
	Served bool
	// Latency is the tier-real virtual service time of the read (device
	// queueing + base latency + transfer) charged against the data plane's
	// shared physical channel. Zero when no plane is attached.
	Latency time.Duration
}

// FileInfo is the client-visible metadata snapshot of a served file.
type FileInfo struct {
	Path      string
	Size      int64
	Residency [3]bool
}

// command is one unit of shard-loop work, applied at virtual time >= at.
type command struct {
	at  time.Time
	run func()
}

// shard is one namespace partition: a private simulation stack — engine,
// file system, manager, dirty list, movement executor — drained by its own
// single-writer loop, plus the quota agent that grows the shard's capacity
// slice out of the global ledger. ShardedServer routes client ops to shards;
// nothing outside the loop goroutine touches fs, engine or mgr between
// startAt and stop.
type shard struct {
	idx    int // position in ShardedServer.shards; labels metrics and spans
	cfg    Config
	fs     *dfs.FileSystem
	engine *sim.Engine
	mgr    *core.Manager // nil for unmanaged serving
	// quota and reconcile are the shard's side of the sharded capacity
	// accounting, set by NewSharded and Start.
	quota     *shardQuota
	reconcile *sim.Ticker

	ns   *nsShards // the server-wide namespace, shared by every shard
	exec *MovementExecutor
	cmds chan command
	// wake is the loop's doorbell: a client try-sends after making a handle
	// dirty, and the capacity of one collapses any number of rings into a
	// single wakeup.
	wake chan struct{}
	// plane is the file system's data plane, cached at start so the client
	// read path charges tier-real service times without touching the
	// loop-owned fs. Nil disables latency modeling (free reads).
	plane storage.DataPlane
	// backend is the file system's physical backend, cached at start like
	// the plane but only when it performs real I/O: the client read path
	// then streams real bytes per access and the measured wall-clock
	// latencies feed the read histograms. Nil (or an attached backend.Sim)
	// keeps the access path untouched.
	backend backend.Backend

	// Loop-owned state. accessBase is the file system's access count when
	// the shard was built and directAccesses what other callers (scenario
	// clients running inside the loop) have recorded on it since, not
	// through a handle; Verify balances the two against the drain's count.
	byID            map[dfs.FileID]*handle
	createsInFlight int
	batch           []pendingAccess
	applying        bool
	accessBase      int64
	directAccesses  int64
	closed          bool

	// dirty holds the handles with accesses to apply (see handle.pending).
	dirty      dirtyList
	counters   serveCounters
	accessHist Histogram
	mutateHist Histogram
	readLat    [3]Histogram // tier-real virtual read latencies, by tier served

	// tenantSlot maps configured tenant ids to tenantLat indices; both are
	// immutable after newShard, so client goroutines read them lock-free.
	tenantSlot map[storage.TenantID]int
	tenantLat  []Histogram
	slo        *sloController // nil unless a tenant declares a ReadSLO
	sloTicker  *sim.Ticker

	wallStart time.Time
	virtStart time.Time

	// obs mirrors cfg.Obs (nil = disabled); loopBusyNS accumulates the
	// loop's busy wall time for the utilization gauge, written only when obs
	// is enabled so the disabled loop stays free of clock reads.
	obs        *obs.Hub
	loopBusyNS atomic.Int64

	pacerStop chan struct{}
	wg        sync.WaitGroup
	started   bool
}

// newShard wraps a file system (and optional manager) as shard idx's serving
// loop, publishing its files into ns. When mgr is non-nil its movement
// requests are rerouted through the shard's MovementExecutor.
func newShard(idx int, fs *dfs.FileSystem, mgr *core.Manager, cfg Config, ns *nsShards) *shard {
	// Unless overridden, movement starts after the same command-path
	// latency the manager's core config models, so the serving path's
	// movement timing matches the sequential path's.
	if cfg.Executor.MoveLatency <= 0 && mgr != nil {
		cfg.Executor.MoveLatency = mgr.Context().Cfg.MoveLatency
	}
	sh := &shard{
		idx:    idx,
		cfg:    cfg,
		fs:     fs,
		engine: fs.Engine(),
		mgr:    mgr,
		ns:     ns,
		exec:   NewMovementExecutor(fs, cfg.Executor),
		cmds:   make(chan command, cmdBuffer),
		wake:   make(chan struct{}, 1),
		byID:   make(map[dfs.FileID]*handle),

		accessBase: fs.Stats().FileAccesses,
	}
	if len(cfg.Tenants) > 0 {
		sh.tenantSlot = make(map[storage.TenantID]int, len(cfg.Tenants))
		sh.tenantLat = make([]Histogram, len(cfg.Tenants))
		for i, t := range cfg.Tenants {
			sh.tenantSlot[t.ID] = i
		}
		sh.slo = newSLOController(sh, cfg.SLO, cfg.Tenants)
	}
	sh.obs = cfg.Obs
	sh.exec.setObs(cfg.Obs, idx)
	if mgr != nil {
		mgr.SetMover(sh.exec)
	}
	fs.AddListener(shardListener{sh})
	// Node loss can remove a tier's representative replica without a
	// residency flip (the file stays fully resident via other nodes), so
	// membership changes re-publish every handle's per-tier device. The
	// hook runs on whatever goroutine applies the churn — always the shard
	// loop while it runs (inLoop, scenario perturbations, the fan-out API).
	fs.AddMembershipHook(func([3]int64) { sh.refreshDevices() })
	return sh
}

// stats snapshots the serving counters.
func (sh *shard) stats() ServeStats { return sh.counters.snapshot() }

// sloStats snapshots the admission controller (zero without one).
func (sh *shard) sloStats() SLOStats {
	if sh.slo == nil {
		return SLOStats{}
	}
	return sh.slo.stats()
}

// startAt indexes pre-existing files and launches the shard loop (and, under
// live pacing, the wall-clock pacer) with the pacer's origin given: wall
// instant `wall` maps to virtual instant `virt`. ShardedServer.Start hands
// every shard the same pair, so all shards' clocks are one function of wall
// time.
func (sh *shard) startAt(wall, virt time.Time) {
	if sh.started {
		return
	}
	sh.started = true
	sh.plane = sh.fs.DataPlane()
	if b := sh.fs.Backend(); b != nil && b.Physical() {
		sh.backend = b
	}
	for _, f := range sh.fs.LiveFiles() {
		if sh.fs.Complete(f) {
			sh.indexFile(f)
		}
	}
	sh.wallStart = wall
	sh.virtStart = virt
	sh.registerObs()
	if sh.slo != nil {
		// Installed before the loop launches (the engine still belongs to
		// this goroutine here); ticks then run as engine events on the loop.
		sh.sloTicker = sh.engine.Every(sh.slo.cfg.Interval, sh.slo.tick)
	}
	sh.wg.Add(1)
	go sh.loop()
	if sh.cfg.TimeScale > 0 {
		sh.pacerStop = make(chan struct{})
		sh.wg.Add(1)
		go sh.pace()
	}
}

// stop quiesces and shuts the loop down. All client goroutines must have
// stopped issuing operations first.
func (sh *shard) stop() {
	if !sh.started {
		return
	}
	if sh.pacerStop != nil {
		close(sh.pacerStop)
	}
	sh.flush()
	sh.cmds <- command{run: func() { sh.closed = true }}
	sh.wg.Wait()
	sh.started = false
	if sh.sloTicker != nil {
		// The loop has stopped; the engine belongs to this goroutine again.
		sh.sloTicker.Stop()
		sh.sloTicker = nil
	}
	if sh.mgr != nil {
		sh.mgr.SetMover(nil)
	}
}

// clock maps wall time to the virtual timeline under live pacing; in replay
// mode it returns the zero time, meaning "at the loop's current virtual
// time".
func (sh *shard) clock() time.Time {
	if sh.cfg.TimeScale <= 0 {
		return time.Time{}
	}
	return sh.virtStart.Add(time.Duration(float64(time.Since(sh.wallStart)) * sh.cfg.TimeScale))
}

// pace periodically advances virtual time to the wall-mapped clock so
// transfers complete and periodic policy ticks fire while clients drive
// live load.
func (sh *shard) pace() {
	defer sh.wg.Done()
	t := time.NewTicker(paceInterval)
	defer t.Stop()
	for {
		select {
		case <-sh.pacerStop:
			return
		case <-t.C:
			select {
			case sh.cmds <- command{at: sh.clock(), run: func() {}}:
			case <-sh.pacerStop:
				return
			}
		}
	}
}

// loop is the shard loop: the only goroutine that touches the engine, the
// file system, and the manager while the shard runs.
func (sh *shard) loop() {
	defer sh.wg.Done()
	for !sh.closed {
		select {
		case c := <-sh.cmds:
			t0 := sh.busyStart()
			sh.drainAccesses()
			sh.applyCmd(c)
			sh.busyEnd(t0)
		case <-sh.wake:
			t0 := sh.busyStart()
			sh.drainAccesses()
			sh.busyEnd(t0)
		}
	}
	// Final drain so no noted access is silently lost.
	sh.drainAccesses()
}

// applyCmd advances virtual time to the command's stamp and runs it.
func (sh *shard) applyCmd(c command) {
	if !c.at.IsZero() && c.at.After(sh.engine.Now()) {
		sh.engine.RunUntil(c.at)
	}
	if c.run != nil {
		c.run()
	}
}

// drainAccesses applies every access noted since the last drain: it takes the
// dirty list, zeroes each handle's count, and in (stamp, file id) order runs
// the engine to the stamp and replays the file's n accesses as one
// dfs.RecordAccessN, which feeds the tracker, the candidate index, and the
// manager's upgrade hook. Accesses left on a handle whose file was deleted
// or migrated away in the meantime are counted as discarded.
func (sh *shard) drainAccesses() {
	batch := sh.dirty.collect(sh.batch[:0])
	if len(batch) == 0 {
		return
	}
	slices.SortFunc(batch, func(a, b pendingAccess) int {
		if c := cmp.Compare(a.stamp, b.stamp); c != 0 {
			return c
		}
		return cmp.Compare(a.h.id, b.h.id)
	})
	var drained, applied int64
	for _, p := range batch {
		if at := sim.AtNanos(p.stamp); at.After(sh.engine.Now()) {
			sh.engine.RunUntil(at)
		}
		if p.h.file.Deleted() {
			reason := discardDeleted
			if p.h.migrated {
				reason = discardMigrated
			}
			sh.counters.discarded[reason].Add(p.n)
			continue
		}
		sh.applying = true
		sh.fs.RecordAccessN(p.h.file, p.n)
		sh.applying = false
		drained += p.n
		applied++
	}
	clear(batch) // the buffer outlives the drain; the handles in it need not
	sh.batch = batch
	// One Add per counter per drain: the clients' counters share this struct
	// (see serveCounters), and a per-entry Add would keep pulling its cache
	// line over to the loop.
	sh.counters.batches.Add(1)
	sh.counters.drained.Add(drained)
	sh.counters.applied.Add(applied)
}

// indexFile publishes a completed file to the namespace as this shard's,
// replacing any other shard's entry for the path. Shard loop only.
func (sh *shard) indexFile(f *dfs.File) {
	h := &handle{id: f.ID(), path: f.Path(), size: f.Size(), sh: sh, file: f, blk0: -1}
	if blocks := f.Blocks(); len(blocks) > 0 {
		h.blk0, h.blk0Size = blocks[0].ID(), blocks[0].Size()
	}
	for _, m := range storage.AllMedia {
		if f.HasReplicaOn(m) {
			h.setDevice(m, tierDevice(f, m))
			h.setResident(m, true)
		}
	}
	sh.byID[f.ID()] = h
	sh.ns.put(h)
}

// refreshDevices re-publishes every handle's per-tier representative
// device; the membership hook runs it after node churn (see newShard).
// O(files), and churn is rare. Shard loop only.
func (sh *shard) refreshDevices() {
	// Guard on the shard's cached plane/backend (the ones access uses), not
	// the fs's live ones: pre-start churn may skip the walk (startAt
	// re-indexes every handle anyway), and swapping either after start is
	// unsupported.
	if sh.plane == nil && sh.backend == nil {
		return // pointers are only read for plane charging and real reads
	}
	for _, h := range sh.byID {
		for _, m := range storage.AllMedia {
			if h.file.HasReplicaOn(m) {
				h.setDevice(m, tierDevice(h.file, m))
			}
		}
	}
}

// tierDevice picks the file's representative device on a tier (the first
// block's replica) for data-plane charging. Shard loop only.
func tierDevice(f *dfs.File, m storage.Media) *storage.Device {
	blocks := f.Blocks()
	if len(blocks) == 0 {
		return nil
	}
	if r := blocks[0].ReplicaOn(m); r != nil {
		return r.Device()
	}
	return nil
}

// shardListener keeps the namespace coherent with the core: residency flips
// update handle masks, deletions unindex.
type shardListener struct{ sh *shard }

// FileCreated implements dfs.Listener; indexing happens in the create
// command's completion (which runs right after this notification), so
// nothing to do here.
func (shardListener) FileCreated(*dfs.File) {}

// FileAccessed implements dfs.Listener: accesses recorded on the file system
// by anyone but the drain (scenario clients running inside the loop) are
// tallied so Verify can tell them from drained ones.
func (l shardListener) FileAccessed(_ *dfs.File, n int64) {
	if !l.sh.applying {
		l.sh.directAccesses += n
	}
}

// FileDeleted implements dfs.Listener.
func (l shardListener) FileDeleted(f *dfs.File) {
	if h, ok := l.sh.byID[f.ID()]; ok {
		delete(l.sh.byID, f.ID())
		l.sh.ns.remove(h)
	}
}

// FileTierChanged implements dfs.Listener: publish the flip to the handle
// so client reads pick their serving tier lock-free. The representative
// device is published before the residency bit turns on (and cleared after
// it turns off), so a reader that observes the bit finds a device.
func (l shardListener) FileTierChanged(f *dfs.File, media storage.Media, resident bool) {
	if h, ok := l.sh.byID[f.ID()]; ok {
		if resident {
			h.setDevice(media, tierDevice(f, media))
			h.setResident(media, true)
		} else {
			h.setResident(media, false)
			h.setDevice(media, nil)
		}
	}
}

// TierDataAdded implements dfs.Listener.
func (shardListener) TierDataAdded(storage.Media) {}

// --- The op path: one implementation per kind. Paths arrive canonical
// (ShardedServer.route cleaned them), the form the namespace indexes. ---

// create submits a file creation stamped with op.At and returns a buffered
// channel that receives the final outcome once the write pipeline commits
// (or fails). The write pipeline's plane charges are tagged with op.Tenant:
// initial block writes happen synchronously inside the create call, so
// scoping the file system's active tenant around it suffices.
func (sh *shard) create(op Op) <-chan error {
	res := make(chan error, 1)
	sp, spStart := sh.sampleSpan("create", op.Path, op.Tenant)
	if sp != nil {
		sp.Bytes = op.Size
	}
	start := time.Now()
	sh.cmds <- command{at: op.At, run: func() {
		if sp != nil {
			// Time from submission until the loop picks the command up — the
			// create's queueing delay behind other commands and drains.
			sp.RingNS = time.Since(spStart).Nanoseconds()
		}
		sh.createsInFlight++
		sh.fs.SetActiveTenant(op.Tenant)
		sh.fs.Create(op.Path, op.Size, func(f *dfs.File, err error) {
			sh.createsInFlight--
			if err != nil {
				sh.counters.createErrors.Add(1)
			} else {
				sh.counters.creates.Add(1)
				sh.indexFile(f)
			}
			sh.mutateHist.Observe(time.Since(start))
			if sp != nil {
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				sh.finishSpan(sp, spStart, sh.engine.Now(), msg)
			}
			res <- err
		})
		sh.fs.SetActiveTenant(storage.DefaultTenant)
	}}
	return res
}

// delete submits a deletion stamped with op.At; done receives the outcome on
// the shard loop. Nothing is counted here: whether a miss is the client's
// outcome or one side of a migration epoch is the router's to know, so the
// router books the one logical deletion (countDelete).
func (sh *shard) delete(op Op, done func(error)) {
	sh.cmds <- command{at: op.At, run: func() { done(sh.fs.Delete(op.Path)) }}
}

// countDelete books one client deletion's outcome and latency (safe off the
// shard loop: atomic counters, lock-free histogram).
func (sh *shard) countDelete(err error, start time.Time) {
	if err != nil {
		sh.counters.deleteErrors.Add(1)
	} else {
		sh.counters.deletes.Add(1)
	}
	sh.mutateHist.Observe(time.Since(start))
}

// detach removes a file at the stamped virtual time via the migration-
// teardown path: DetachFile releases the replicas and drops the handle
// without counting a client deletion. The router uses it to clear the
// fallback copy during a migration epoch after the primary delete already
// counted the client's one logical deletion.
func (sh *shard) detach(op Op) <-chan error {
	res := make(chan error, 1)
	sh.cmds <- command{at: op.At, run: func() { res <- sh.fs.DetachFile(op.Path) }}
	return res
}

// publish hands one access of h to the next drain, rings the loop's
// doorbell if the handle was clean, and stamps the span's ring stage. Any
// goroutine, after the access's latency is on record: the loop it hands the
// access to runs the SLO ticker, which must never judge a window whose
// samples have not landed.
func (sh *shard) publish(h *handle, at time.Time, sp *obs.Span, spStart time.Time) {
	if sh.dirty.note(h, at) {
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
	if sp != nil {
		sp.RingNS = time.Since(spStart).Nanoseconds()
	}
}

// migrateOut detaches a file whose copy has landed on another shard (the
// commit half of rebalancer.migrateFile). Accesses still pending on its
// handle are discarded as "migrated", not "deleted". Shard loop only.
func (sh *shard) migrateOut(path string) error {
	f, err := sh.fs.Namespace().GetFile(path)
	if err == nil {
		h := sh.byID[f.ID()]
		if err = sh.fs.DetachFile(path); err == nil && h != nil {
			h.migrated = true
		}
	}
	return err
}

// access serves one client read of a resolved file at op.At and returns the
// tier that serves it, with the tier-real read latency when a data plane is
// attached. This is the hot path: one atomic charge against the shared
// device channel, then the handle's access accumulator (the shard's dirty
// list only when the handle was clean), zero shard-loop involvement.
// The plane charge carries op.Tenant and the read latency lands in the
// tenant's histogram as well as the tier's. Span capture costs one nil
// check when obs is off; the stage stamps are all guarded on sp.
func (sh *shard) access(h *handle, op Op, sp *obs.Span, spStart time.Time) AccessResult {
	at := op.At
	if sp != nil {
		sp.ResolveNS = time.Since(spStart).Nanoseconds()
	}
	sh.counters.accesses.Add(1)
	tier, served := h.bestTier()
	if !served {
		sh.counters.noReplica.Add(1)
		sh.publish(h, at, sp, spStart)
		sh.finishSpan(sp, spStart, at, "no resident tier")
		return AccessResult{}
	}
	sh.counters.servedByTier[tier].Add(1)
	sh.counters.bytesServed.Add(h.size)
	res := AccessResult{Tier: tier, Served: true}
	if sp != nil {
		sp.DecideNS = time.Since(spStart).Nanoseconds()
		sp.Tier = tier.String()
		sp.Bytes = h.size
	}
	// Charge the read's service time against the physical device channel.
	// A zero stamp (replay mode with no pacer) carries no usable virtual
	// instant, so those reads stay unmodeled. With a physical backend
	// attached the histograms record the measured wall-clock read below
	// instead of the virtual grant (the grant still books the channel for
	// contention accounting).
	measured := false
	if sh.plane != nil && !at.IsZero() {
		if dev := h.device(tier); dev != nil {
			g := sh.plane.Serve(storage.IORequest{
				DeviceID: dev.ID(),
				Media:    tier,
				Dir:      storage.Read,
				Class:    storage.ClassServe,
				Tenant:   op.Tenant,
				Bytes:    h.size,
				At:       at,
			})
			res.Latency, measured = g.Latency(), sh.backend == nil
			if sp != nil {
				sp.QueueNS = g.Queue.Nanoseconds()
				sp.BaseNS = g.Base.Nanoseconds()
				sp.TransferNS = g.Transfer.Nanoseconds()
				sp.Saturated = g.Saturated
			}
		}
	}
	// Physical read: stream the representative block's real bytes from the
	// serving tier on the client goroutine, so the latencies recorded are
	// real, not modeled. A failed read (e.g. the replica moved between the
	// residency load and the open) is counted in the backend's stats and
	// served virtually.
	if sh.backend != nil && h.blk0 >= 0 {
		if dev := h.device(tier); dev != nil {
			d, err := sh.backend.Read(backend.Request{
				Media: tier, Class: storage.ClassServe, Tenant: op.Tenant,
				DeviceID: dev.ID(), BlockID: h.blk0, Bytes: h.blk0Size,
			})
			if err == nil {
				res.Latency, measured = d, true
			}
		}
	}
	if measured {
		sh.readLat[tier].Observe(res.Latency)
		if slot, ok := sh.tenantSlot[op.Tenant]; ok {
			sh.tenantLat[slot].Observe(res.Latency)
			if sh.slo != nil {
				sh.slo.observe(slot, at, res.Latency)
			}
		}
	}
	sh.publish(h, at, sp, spStart)
	sh.finishSpan(sp, spStart, at, "")
	return res
}

// inLoop runs fn inside the shard loop with exclusive access to the file
// system — how perturbations (node churn), quota borrows, migration halves
// and final-state inspection reach loop-owned state. It blocks until fn
// returns.
func (sh *shard) inLoop(fn func(*dfs.FileSystem)) {
	done := make(chan struct{})
	sh.cmds <- command{at: sh.clock(), run: func() {
		fn(sh.fs)
		close(done)
	}}
	<-done
}

// flush fences the shard: it blocks until every access noted before the
// call is applied, all in-flight creates commit, and the movement executor
// is idle, stepping the simulation forward as needed.
// Under live load this is a best-effort barrier (new traffic may arrive
// concurrently); with clients stopped it is a full quiescence point.
func (sh *shard) flush() {
	done := make(chan struct{})
	sh.cmds <- command{at: sh.clock(), run: func() {
		sh.quiesce()
		close(done)
	}}
	<-done
}

// quiesce drains outstanding asynchronous work inside the shard loop. The
// manager's periodic ticker keeps the event queue non-empty forever, so the
// loop steps the engine only while real work (creates, movement) is
// pending, exactly like the sequential harness's "step until the workload
// completes" pattern. A downgrade pass waiting for executor room is pending
// work too — the executor's backlog and its room wake count as busy — so the
// fence returns with the pass finished, not parked. There is no step bound:
// a pass takes each candidate out of selection order once, a full queue parks
// the pass rather than its candidates, and a last copy is examined once per
// residency change; the liveness tests in internal/loadgen hold the fence to
// fewer engine steps than ops submitted at 20 000 and 200 000 files. What is
// left to keep a fence going is a tier over its watermark whose every move
// out keeps failing for longer than the one-minute failure cooldown.
func (sh *shard) quiesce() {
	for {
		sh.drainAccesses()
		// Absorb queued commands without blocking: concurrent client ops
		// and pacer ticks must not starve behind a flush.
		for absorbed := true; absorbed; {
			select {
			case c := <-sh.cmds:
				sh.applyCmd(c)
			default:
				absorbed = false
			}
		}
		if sh.createsInFlight == 0 && sh.exec.Idle() && sh.dirty.empty() && len(sh.cmds) == 0 {
			return
		}
		if sh.engine.Step() {
			continue
		}
		// Outstanding work but no runnable event: wait for a command or a
		// newly dirty handle to make progress.
		select {
		case c := <-sh.cmds:
			sh.applyCmd(c)
		case <-sh.wake:
		}
	}
}
