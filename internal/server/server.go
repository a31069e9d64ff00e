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
//     resolve the owner in one lookup, even mid-migration; a delete
//     resolves the same way (see ShardedServer.delete).
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
// Virtual time: under live load (Config.TimeScale > 0) each shard loop runs a
// wall-clock ticker that advances its engine to the wall-mapped virtual clock,
// so device transfers, periodic policy ticks, and movement all progress while
// clients hammer the service; there is no second goroutine per shard. With
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
	"errors"
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
	// disables the loop's pacing ticker; operations then carry explicit
	// virtual timestamps (replay mode).
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
	// paceInterval is how often (wall clock) a live shard loop's ticker
	// advances virtual time to the wall-mapped clock.
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

// cmdKind selects what a command does once the loop has advanced to its
// stamp.
type cmdKind uint8

const (
	// cmdRun runs the command's func: inLoop and stop.
	cmdRun cmdKind = iota
	// cmdCreate creates a file (see shard.create).
	cmdCreate
	// cmdDelete deletes a file (see ShardedServer.delete).
	cmdDelete
	// cmdFlush quiesces the shard and counts a fence done (see flush).
	cmdFlush
)

// command is one unit of shard-loop work, applied at virtual time >= at. It
// travels by value, so submitting a create or delete allocates nothing beyond
// what the op keeps: the create's handle and the outcome channel.
type command struct {
	kind cmdKind
	at   time.Time
	// path, size and tenant are the create's or delete's op.
	path   string
	size   int64
	tenant storage.TenantID
	// h is a create's handle, which carries its outcome channel and submit
	// time until the write commits or fails.
	h  *handle
	sp *obs.Span // a sampled create's span
	// res, start and asked are a delete's outcome channel, submit time (see
	// monoNow) and the shards already asked (see applyDelete).
	res   chan error
	start int64
	asked shardSet
	run   func()
}

// shardSet is a set of shard indices, the first 64 kept inline.
type shardSet struct {
	low  uint64
	high []uint64 // bits for shards 64 and up, grown on first use
}

func (s *shardSet) add(i int) {
	if i < 64 {
		s.low |= 1 << i
		return
	}
	w := i/64 - 1
	for len(s.high) <= w {
		s.high = append(s.high, 0)
	}
	s.high[w] |= 1 << (i % 64)
}

func (s *shardSet) has(i int) bool {
	if i < 64 {
		return s.low&(1<<i) != 0
	}
	w := i/64 - 1
	return w < len(s.high) && s.high[w]&(1<<(i%64)) != 0
}

// monoBase anchors monoNow.
var monoBase = time.Now()

// monoNow is the wall clock in monotonic nanoseconds since monoBase: the
// one-word submit time an op in flight keeps for its latency.
func monoNow() int64 { return int64(time.Since(monoBase)) }

// sinceMono is the wall time elapsed since a monoNow reading.
func sinceMono(start int64) time.Duration { return time.Duration(monoNow() - start) }

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
	// fencesAsked counts the flushes sent to the loop and fencesDone, under
	// fenceMu, the ones it has completed; a flush whose ticket is n returns
	// once n are done, as every fence sent after its ticket was taken covers
	// it (see flush).
	fencesAsked atomic.Uint64
	fenceMu     sync.Mutex
	fenceCond   sync.Cond
	fencesDone  uint64
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
	// blockSize is the file system's block size: a file's first block holds
	// min(size, blockSize) bytes (every shard's file system, and so every
	// migrated file, shares one dfs.Config).
	blockSize int64

	// Loop-owned state. accessBase is the file system's access count when
	// the shard was built and directAccesses what other callers (scenario
	// clients running inside the loop) have recorded on it since, not
	// through a handle; Verify balances the two against the drain's count.
	// handles holds the shard's handles by slot (see dfs.File.Slot), nil
	// for a slot with none: an indexed file's (handleOf resolves one), or an
	// in-flight create's, not yet indexed, which the create's completion
	// finds here. created is that completion, bound once; createSpans holds
	// sampled in-flight creates' spans.
	handles         []*handle
	created         func(*dfs.File, error)
	createSpans     map[*handle]*obs.Span
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

	wg      sync.WaitGroup
	started bool
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

		blockSize:  fs.BlockSize(),
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
	sh.created = sh.commitCreate
	sh.fenceCond.L = &sh.fenceMu
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

// startAt indexes pre-existing files and launches the shard loop with its
// pacing origin given: wall instant `wall` maps to virtual instant `virt`.
// ShardedServer.Start hands every shard the same pair, so all shards' clocks
// are one function of wall time.
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
}

// stop quiesces and shuts the loop down. All client goroutines must have
// stopped issuing operations first.
func (sh *shard) stop() {
	if !sh.started {
		return
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

// loop is the shard loop: the only goroutine that touches the engine, the
// file system, and the manager while the shard runs. Under live pacing its
// ticker advances virtual time to the wall-mapped clock so transfers
// complete and periodic policy ticks fire between client commands; in
// replay mode the tick channel is nil and only stamps move the clock.
func (sh *shard) loop() {
	defer sh.wg.Done()
	var tick <-chan time.Time
	if sh.cfg.TimeScale > 0 {
		t := time.NewTicker(paceInterval)
		defer t.Stop()
		tick = t.C
	}
	for !sh.closed {
		select {
		case c := <-sh.cmds:
			t0 := sh.busyStart()
			sh.drainAccesses()
			sh.applyCmd(&c)
			sh.busyEnd(t0)
		case <-sh.wake:
			t0 := sh.busyStart()
			sh.drainAccesses()
			sh.busyEnd(t0)
		case <-tick:
			t0 := sh.busyStart()
			sh.drainAccesses()
			sh.advance(sh.clock())
			sh.busyEnd(t0)
		}
	}
	// Final drain so no noted access is silently lost.
	sh.drainAccesses()
}

// advance runs the engine forward to at. The zero time (replay mode's "at
// the loop's current virtual time") and instants already passed leave it
// where it is.
func (sh *shard) advance(at time.Time) {
	if !at.IsZero() && at.After(sh.engine.Now()) {
		sh.engine.RunUntil(at)
	}
}

// applyCmd advances virtual time to the command's stamp and runs it.
func (sh *shard) applyCmd(c *command) {
	sh.advance(c.at)
	switch c.kind {
	case cmdCreate:
		sh.applyCreate(c)
	case cmdDelete:
		sh.applyDelete(c)
	case cmdFlush:
		sh.quiesce()
		sh.fenceMu.Lock()
		sh.fencesDone++
		sh.fenceMu.Unlock()
		sh.fenceCond.Broadcast()
	default:
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
		sh.advance(sim.AtNanos(p.stamp))
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
// replacing any other shard's entry for the path: under the handle its
// create left in its slot, or a new one. Shard loop only.
func (sh *shard) indexFile(f *dfs.File) {
	var h *handle
	if slot := int(f.Slot()); slot < len(sh.handles) {
		h = sh.handles[slot] // an in-flight create's, or nil
	}
	if h == nil {
		h = &handle{sh: sh}
	}
	h.id, h.path, h.size, h.file = f.ID(), f.Path(), f.Size(), f
	if blocks := f.Blocks(); len(blocks) > 0 {
		h.blk0 = blocks[0].ID()
	}
	for _, m := range storage.AllMedia {
		h.setDevice(m, tierDevice(f, m))
	}
	sh.setHandle(f.Slot(), h)
	sh.ns.put(h)
}

// setHandle files h under slot. Shard loop only.
func (sh *shard) setHandle(slot int32, h *handle) {
	for int(slot) >= len(sh.handles) {
		sh.handles = append(sh.handles, nil)
	}
	sh.handles[slot] = h
}

// handleOf returns the handle indexed for f, or nil. Shard loop only.
func (sh *shard) handleOf(f *dfs.File) *handle {
	if slot := int(f.Slot()); slot < len(sh.handles) {
		if h := sh.handles[slot]; h != nil && h.file == f {
			return h
		}
	}
	return nil
}

// refreshDevices re-publishes every handle's per-tier representative
// device; the membership hook runs it after node churn (see newShard).
// O(files), and churn is rare. Shard loop only.
func (sh *shard) refreshDevices() {
	// Which tiers hold a device is residency, and FileTierChanged keeps it
	// right through churn; only which device a pointer names can go stale,
	// and only the data plane and the physical backend read that. Guard on
	// the shard's cached plane/backend (the ones access uses), not the fs's
	// live ones: pre-start churn may skip the walk (startAt re-indexes every
	// handle anyway), and swapping either after start is unsupported.
	if sh.plane == nil && sh.backend == nil {
		return
	}
	for _, h := range sh.handles {
		if h == nil || h.file == nil {
			continue // no slot, or a create in flight
		}
		for _, m := range storage.AllMedia {
			h.setDevice(m, tierDevice(h.file, m))
		}
	}
}

// tierDevice picks the file's representative device on a tier (the first
// block's replica), nil unless the tier holds a full replica set. Shard loop
// only.
func tierDevice(f *dfs.File, m storage.Media) *storage.Device {
	if !f.HasReplicaOn(m) {
		return nil
	}
	return f.Blocks()[0].ReplicaOn(m).Device()
}

// shardListener keeps the namespace coherent with the core: residency flips
// update handle devices, deletions unindex.
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
	if h := l.sh.handleOf(f); h != nil {
		l.sh.handles[f.Slot()] = nil
		l.sh.ns.remove(h)
	}
}

// FileTierChanged implements dfs.Listener: publish the flip to the handle
// so client reads pick their serving tier lock-free. dfs notifies after the
// flip, so tierDevice already reads it: the tier's representative device on
// a flip on, nil on a flip off.
func (l shardListener) FileTierChanged(f *dfs.File, media storage.Media, _ bool) {
	if h := l.sh.handleOf(f); h != nil {
		h.setDevice(media, tierDevice(f, media))
	}
}

// TierDataAdded implements dfs.Listener.
func (shardListener) TierDataAdded(storage.Media) {}

// --- The op path: one implementation per kind. Paths arrive canonical
// (ShardedServer.route cleaned them), the form the namespace indexes. ---

// create submits a file creation stamped with op.At and returns a buffered
// channel that receives the final outcome once the write pipeline commits
// (or fails). The file's handle is made here and carries the outcome channel
// and the submit time through the write (see applyCreate).
func (sh *shard) create(op Op) <-chan error {
	out := make(chan error, 1)
	h := &handle{sh: sh, outcome: out, start: monoNow()}
	sp, _ := sh.sampleSpan("create", op.Path, op.Tenant)
	if sp != nil {
		sp.Bytes = op.Size
	}
	sh.cmds <- command{kind: cmdCreate, at: op.At, path: op.Path, size: op.Size, tenant: op.Tenant, h: h, sp: sp}
	return out
}

// applyCreate starts a create on the loop. The write pipeline's plane
// charges are tagged with the op's tenant: initial block writes happen
// synchronously inside the create call, so scoping the file system's active
// tenant around it suffices. A create that finds no capacity borrows once
// and retries: each of `replication` distinct nodes needs room for one full
// copy, and placement falls back across tiers in every mode, so growing the
// lowest tier admits the write while the physical tier has room. The borrow
// is admitted against the op's tenant's ledger budget: a tenant at quota
// gets dfs.ErrNoCapacity even while the pool has room. The retry is clean,
// as a create fails only synchronously and a failed one consumes no file id.
// A create that fails, fails here; one in flight leaves its handle under the
// file's slot for commitCreate. Shard loop only.
func (sh *shard) applyCreate(c *command) {
	if c.sp != nil {
		// Time from submission until the loop picks the command up — the
		// create's queueing delay behind other commands and drains.
		c.sp.RingNS = sinceMono(c.h.start).Nanoseconds()
	}
	sh.fs.SetActiveTenant(c.tenant)
	f, err := sh.fs.CreateFile(c.path, c.size, sh.created)
	if errors.Is(err, dfs.ErrNoCapacity) && sh.quota.EnsureSpreadFor(c.tenant, storage.HDD, c.size, sh.fs.Replication()) {
		f, err = sh.fs.CreateFile(c.path, c.size, sh.created)
	}
	sh.fs.SetActiveTenant(storage.DefaultTenant)
	if err != nil {
		sh.counters.createErrors.Add(1)
		sh.finishCreate(c.h, c.sp, err)
		return
	}
	sh.createsInFlight++
	sh.setHandle(f.Slot(), c.h)
	if c.sp != nil {
		if sh.createSpans == nil {
			sh.createSpans = make(map[*handle]*obs.Span)
		}
		sh.createSpans[c.h] = c.sp
	}
}

// commitCreate is the completion of every create the shard starts (bound
// once as created): the file is written, so its handle, found by the file's
// slot, is indexed. Shard loop only.
func (sh *shard) commitCreate(f *dfs.File, _ error) {
	h := sh.handles[f.Slot()]
	sh.createsInFlight--
	sh.counters.creates.Add(1)
	sh.indexFile(f)
	sp := sh.createSpans[h]
	if sp != nil {
		delete(sh.createSpans, h)
	}
	sh.finishCreate(h, sp, nil)
}

// finishCreate books a create's outcome and latency and delivers it.
func (sh *shard) finishCreate(h *handle, sp *obs.Span, err error) {
	sh.mutateHist.Observe(sinceMono(h.start))
	if sp != nil {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		sh.finishSpan(sp, monoBase.Add(time.Duration(h.start)), sh.engine.Now(), msg)
	}
	out := h.outcome
	h.outcome = nil
	out <- err
}

// applyDelete runs a delete on the loop (see ShardedServer.delete). The
// path is resolved once: to the file of the handle the namespace names when
// that is this shard's, otherwise on the shard's own tree, where a copy this
// shard indexed is stale (see stale) — not the file, so it misses like an
// absent one. A miss whose path the namespace names on a shard not yet asked
// is handed there, from a fresh goroutine: an op on one loop must never
// block on another loop, or two opposite-direction deletes could deadlock
// the loops. The one outcome is booked once, by the shard that answers
// (countDelete). Shard loop only.
func (sh *shard) applyDelete(c *command) {
	h, _ := sh.ns.get(c.path)
	var err error
	if h != nil && h.sh == sh {
		err = sh.fs.Delete(h.file)
	} else if f, gerr := sh.fs.Namespace().GetFile(c.path); gerr != nil {
		err = gerr
	} else if sh.handleOf(f) != nil {
		err = notFound(c.path)
	} else {
		err = sh.fs.Delete(f)
	}
	if errors.Is(err, dfs.ErrNotFound) && h != nil && h.sh != sh && !c.asked.has(h.sh.idx) {
		next := *c
		next.asked.add(sh.idx)
		go h.sh.enqueue(next)
		return
	}
	sh.countDelete(err, c.start)
	c.res <- err
}

// enqueue hands c to the shard's loop.
func (sh *shard) enqueue(c command) { sh.cmds <- c }

// countDelete books one client deletion's outcome and latency (safe off the
// shard loop: atomic counters, lock-free histogram).
func (sh *shard) countDelete(err error, start int64) {
	if err != nil {
		sh.counters.deleteErrors.Add(1)
	} else {
		sh.counters.deletes.Add(1)
	}
	sh.mutateHist.Observe(sinceMono(start))
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

// stale reports whether f is a copy the namespace has stopped naming: this
// shard indexed it, and its path now resolves to another handle or to none
// (see rebalancer.migrateFile). A file the shard never indexed (mid-create,
// or created inside the loop by a scenario) is not stale. Shard loop only.
func (sh *shard) stale(f *dfs.File) bool {
	h := sh.handleOf(f)
	if h == nil {
		return false
	}
	named, _ := sh.ns.get(f.Path())
	return named != h
}

// migrateOut looks up path's copy for rebalancer.migrateFile and detaches
// it — with onlyStale, only if the copy is stale — and reports the copy it
// looked up, whether it detached it, and the lookup's or the detach's error
// (dfs.ErrBusy: a transfer holds it). No client deletion is counted, and
// accesses still pending on the handle are discarded as "migrated", not
// "deleted". Shard loop only.
func (sh *shard) migrateOut(path string, onlyStale bool) (f *dfs.File, dropped bool, err error) {
	if f, err = sh.fs.Namespace().GetFile(path); err != nil || onlyStale && !sh.stale(f) {
		return f, false, err
	}
	h := sh.handleOf(f)
	if err = sh.fs.DetachFile(f); err == nil && h != nil {
		h.migrated = true
	}
	return f, err == nil, err
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
	tier, dev := h.bestTier()
	if dev == nil {
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
	// A zero stamp (replay mode, no pacing) carries no usable virtual
	// instant, so those reads stay unmodeled. With a physical backend
	// attached the histograms record the measured wall-clock read below
	// instead of the virtual grant (the grant still books the channel for
	// contention accounting).
	measured := false
	if sh.plane != nil && !at.IsZero() {
		g := sh.plane.Serve(storage.IORequest{
			Device: dev,
			Dir:    storage.Read,
			Class:  storage.ClassServe,
			Tenant: op.Tenant,
			Bytes:  h.size,
			At:     at,
		})
		res.Latency, measured = g.Latency(), sh.backend == nil
		if sp != nil {
			sp.QueueNS = g.Queue.Nanoseconds()
			sp.BaseNS = g.Base.Nanoseconds()
			sp.TransferNS = g.Transfer.Nanoseconds()
			sp.Saturated = g.Saturated
		}
	}
	// Physical read: stream the representative block's real bytes from the
	// serving tier on the client goroutine, so the latencies recorded are
	// real, not modeled. A failed read (e.g. the replica moved between the
	// device load and the open) is counted in the backend's stats and
	// served virtually.
	if sh.backend != nil {
		d, err := sh.backend.Read(backend.Request{
			Media: tier, Class: storage.ClassServe, Tenant: op.Tenant,
			DeviceID: dev.ID(), BlockID: h.blk0, Bytes: min(h.size, sh.blockSize),
		})
		if err == nil {
			res.Latency, measured = d, true
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

// inLoop runs fn with exclusive access to the shard's file system — how
// perturbations (node churn), migration halves and final-state inspection
// reach loop-owned state. While the shard runs, fn runs inside its loop and
// inLoop blocks until fn returns; before Start and after Close the caller's
// goroutine is the only one near the shard, so fn runs directly.
func (sh *shard) inLoop(fn func(*dfs.FileSystem)) {
	if !sh.started {
		fn(sh.fs)
		return
	}
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
	ticket := sh.fencesAsked.Add(1)
	sh.cmds <- command{kind: cmdFlush, at: sh.clock()}
	sh.fenceMu.Lock()
	for sh.fencesDone < ticket {
		sh.fenceCond.Wait()
	}
	sh.fenceMu.Unlock()
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
		// must not starve behind a flush.
		for absorbed := true; absorbed; {
			select {
			case c := <-sh.cmds:
				sh.applyCmd(&c)
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
			sh.applyCmd(&c)
		case <-sh.wake:
		}
	}
}
