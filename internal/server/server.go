// Package server is the concurrent serving layer over the tiered DFS: it
// wraps a dfs.FileSystem (plus an optional core.Manager) as a thread-safe
// service that any number of client goroutines drive simultaneously, while
// the deterministic single-threaded simulation core underneath stays
// untouched.
//
// The architecture is a single-writer core with a sharded read path:
//
//   - A dedicated core-loop goroutine owns the sim.Engine, the FileSystem,
//     and the Manager. Structural operations (create, delete, node churn,
//     quiesce) are commands applied there in arrival order, each clamped
//     forward to its virtual timestamp.
//   - The namespace is mirrored into striped shards keyed by a hash of the
//     parent directory (nsShards): resolve/stat/exists/list and the serving
//     tier decision run entirely on client goroutines under per-stripe read
//     locks, so metadata traffic in independent directories never
//     serializes.
//   - Access events ride a bounded MPSC ring (eventRing): the client hot
//     path is a shard lookup plus a lock-free push, and the core loop
//     drains the ring in batches, feeding the tracker, the candidate
//     index, and the upgrade hook off the client's critical path.
//   - Replica movement runs on the MovementExecutor (per-tier pools,
//     bounded queues, per-tier in-flight byte budgets, shedding) installed
//     as the Manager's Mover, so upgrades/downgrades overlap with serving
//     instead of competing with it.
//
// Virtual time: under live load (Config.TimeScale > 0) a pacer maps wall
// time onto the virtual clock so device transfers, periodic policy ticks,
// and movement all progress while clients hammer the service. With
// TimeScale == 0 the server is replay-driven: callers stamp each operation
// with an explicit virtual time (CreateAt/AccessAt/DeleteAt) and fence with
// Flush, which is how the differential tests replay one trace through the
// sequential simulator and through the server and compare final states.
package server

import (
	"fmt"
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

// Config tunes the serving layer.
type Config struct {
	// Shards is the namespace stripe count (rounded up to a power of two,
	// default 64).
	Shards int
	// RingCapacity is the access-event ring size (rounded up to a power of
	// two, default 16384). When full, events are dropped and counted.
	RingCapacity int
	// CmdBuffer is the command channel depth (default 256).
	CmdBuffer int
	// TimeScale maps wall time to virtual time for live traffic: a scale of
	// 60 advances the simulation one virtual minute per wall second. Zero
	// disables the pacer; operations then carry explicit virtual
	// timestamps (replay mode).
	TimeScale float64
	// PaceInterval is how often (wall clock) the pacer advances virtual
	// time under live load (default 1ms).
	PaceInterval time.Duration
	// Executor tunes the async movement executor.
	Executor ExecutorConfig
	// QuiesceMaxSteps bounds how many engine events one Flush drains before
	// giving up (policy ping-pong protection; default 5,000,000).
	QuiesceMaxSteps int
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
	// ObsShard labels this server's metrics and spans when several shards
	// share one hub.
	ObsShard int
}

func (c *Config) applyDefaults() {
	if c.Shards <= 0 {
		c.Shards = 64
	}
	if c.RingCapacity <= 0 {
		c.RingCapacity = 1 << 14
	}
	if c.CmdBuffer <= 0 {
		c.CmdBuffer = 256
	}
	if c.PaceInterval <= 0 {
		c.PaceInterval = time.Millisecond
	}
	if c.QuiesceMaxSteps <= 0 {
		c.QuiesceMaxSteps = 5_000_000
	}
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

// command is one unit of core-loop work, applied at virtual time >= at.
type command struct {
	at  time.Time
	run func()
}

// Server is the concurrent front end. Construct with New, call Start, then
// any number of goroutines may use the client API concurrently. Close
// drains outstanding work and stops the core loop; afterwards the caller
// may touch the FileSystem directly again.
type Server struct {
	cfg    Config
	fs     *dfs.FileSystem
	engine *sim.Engine
	mgr    *core.Manager // nil for unmanaged serving

	ns   *nsShards
	ring *eventRing
	exec *MovementExecutor
	cmds chan command
	// plane is the file system's data plane, cached at Start so the client
	// read path charges tier-real service times without touching the
	// core-loop-owned fs. Nil disables latency modeling (free reads).
	plane storage.DataPlane
	// backend is the file system's physical backend, cached at Start like
	// the plane but only when it performs real I/O: the client read path
	// then streams real bytes per access and the measured wall-clock
	// latencies feed the read histograms. Nil (or an attached backend.Sim)
	// keeps the access path untouched.
	backend backend.Backend

	// Core-loop-owned state.
	byID            map[dfs.FileID]*handle
	createsInFlight int
	evBuf           []accessEvent
	closed          bool

	counters   serveCounters
	accessHist Histogram
	mutateHist Histogram
	readLat    [3]Histogram // tier-real virtual read latencies, by tier served

	// tenantSlot maps configured tenant ids to tenantLat indices; both are
	// immutable after New, so client goroutines read them lock-free.
	tenantSlot map[storage.TenantID]int
	tenantLat  []Histogram
	slo        *sloController // nil unless a tenant declares a ReadSLO
	sloTicker  *sim.Ticker

	wallStart time.Time
	virtStart time.Time

	// obs mirrors cfg.Obs (nil = disabled); loopBusyNS accumulates the core
	// loop's busy wall time for the utilization gauge, written only when obs
	// is enabled so the disabled loop stays free of clock reads.
	obs        *obs.Hub
	loopBusyNS atomic.Int64

	pacerStop chan struct{}
	wg        sync.WaitGroup
	started   bool
}

// New wraps a file system (and optional manager) as a serving layer. The
// caller must not touch fs, its engine, or mgr between Start and Close —
// the core loop owns them. When mgr is non-nil its movement requests are
// rerouted through the server's MovementExecutor.
func New(fs *dfs.FileSystem, mgr *core.Manager, cfg Config) *Server {
	cfg.applyDefaults()
	// Unless overridden, movement starts after the same command-path
	// latency the manager's core config models, so the serving path's
	// movement timing matches the sequential path's.
	if cfg.Executor.MoveLatency <= 0 && mgr != nil {
		cfg.Executor.MoveLatency = mgr.Context().Cfg.MoveLatency
	}
	s := &Server{
		cfg:    cfg,
		fs:     fs,
		engine: fs.Engine(),
		mgr:    mgr,
		ns:     newNSShards(cfg.Shards),
		ring:   newEventRing(cfg.RingCapacity),
		exec:   NewMovementExecutor(fs, cfg.Executor),
		cmds:   make(chan command, cfg.CmdBuffer),
		byID:   make(map[dfs.FileID]*handle),
	}
	if len(cfg.Tenants) > 0 {
		s.tenantSlot = make(map[storage.TenantID]int, len(cfg.Tenants))
		s.tenantLat = make([]Histogram, len(cfg.Tenants))
		for i, t := range cfg.Tenants {
			s.tenantSlot[t.ID] = i
		}
		s.slo = newSLOController(s, cfg.SLO, cfg.Tenants)
	}
	s.obs = cfg.Obs
	s.exec.setObs(cfg.Obs, cfg.ObsShard)
	if mgr != nil {
		mgr.SetMover(s.exec)
	}
	fs.AddListener(serverListener{s})
	// Node loss can remove a tier's representative replica without a
	// residency flip (the file stays fully resident via other nodes), so
	// membership changes re-publish every handle's per-tier device. The
	// hook runs on whatever loop applies the churn — always the core loop
	// while the server runs (Exec, scenario perturbations, shard fan-out).
	fs.AddMembershipHook(s.refreshDevices)
	return s
}

// Executor exposes the movement executor (stats are goroutine-safe).
func (s *Server) Executor() *MovementExecutor { return s.exec }

// Stats snapshots the serving counters.
func (s *Server) Stats() ServeStats { return s.counters.snapshot(s.ring.Dropped()) }

// AccessLatency returns the access-path latency histogram.
func (s *Server) AccessLatency() *Histogram { return &s.accessHist }

// MutateLatency returns the create/delete latency histogram.
func (s *Server) MutateLatency() *Histogram { return &s.mutateHist }

// ReadLatency returns the tier-real virtual read-latency histogram for one
// tier: the data-plane service times (queue + base + transfer) of accesses
// served from it. Empty without an attached plane.
func (s *Server) ReadLatency(m storage.Media) *Histogram { return &s.readLat[m] }

// TenantReadLatency returns the configured tenant's read-latency histogram
// across all tiers, or nil for an unknown tenant.
func (s *Server) TenantReadLatency(t storage.TenantID) *Histogram {
	if slot, ok := s.tenantSlot[t]; ok {
		return &s.tenantLat[slot]
	}
	return nil
}

// SLOStats snapshots the admission controller (zero without one).
func (s *Server) SLOStats() SLOStats {
	if s.slo == nil {
		return SLOStats{}
	}
	return s.slo.stats()
}

// Start indexes pre-existing files and launches the core loop (and, under
// live pacing, the wall-clock pacer).
func (s *Server) Start() { s.startAt(time.Now(), s.engine.Now()) }

// startAt is Start with the pacer's origin given: wall instant `wall` maps
// to virtual instant `virt`. ShardedServer.Start hands every shard the same
// pair, so all shards' clocks are one function of wall time.
func (s *Server) startAt(wall, virt time.Time) {
	if s.started {
		return
	}
	s.started = true
	s.plane = s.fs.DataPlane()
	if b := s.fs.Backend(); b != nil && b.Physical() {
		s.backend = b
	}
	for _, f := range s.fs.LiveFiles() {
		if s.fs.Complete(f) {
			s.indexFile(f)
		}
	}
	s.wallStart = wall
	s.virtStart = virt
	s.registerObs()
	if s.slo != nil {
		// Installed before the core loop launches (the engine still belongs
		// to this goroutine here); ticks then run as engine events on the
		// core loop.
		s.sloTicker = s.engine.Every(s.slo.cfg.Interval, s.slo.tick)
	}
	s.wg.Add(1)
	go s.loop()
	if s.cfg.TimeScale > 0 {
		s.pacerStop = make(chan struct{})
		s.wg.Add(1)
		go s.pace()
	}
}

// Close quiesces and shuts the server down. All client goroutines must have
// stopped issuing operations first.
func (s *Server) Close() {
	if !s.started {
		return
	}
	if s.pacerStop != nil {
		close(s.pacerStop)
	}
	s.Flush()
	s.cmds <- command{run: func() { s.closed = true }}
	s.wg.Wait()
	s.started = false
	if s.sloTicker != nil {
		// The core loop has stopped; the engine belongs to this goroutine
		// again.
		s.sloTicker.Stop()
		s.sloTicker = nil
	}
	if s.mgr != nil {
		s.mgr.SetMover(nil)
	}
}

// Clock returns the current wall-mapped virtual time (zero in replay mode,
// meaning "at the core loop's current virtual time"). Open-loop drivers use
// it as the base for stamping intended arrival times onto submitted ops.
func (s *Server) Clock() time.Time { return s.clock() }

// clock maps wall time to the virtual timeline under live pacing; in replay
// mode it returns the zero time, meaning "at the core loop's current
// virtual time".
func (s *Server) clock() time.Time {
	if s.cfg.TimeScale <= 0 {
		return time.Time{}
	}
	return s.virtStart.Add(time.Duration(float64(time.Since(s.wallStart)) * s.cfg.TimeScale))
}

// pace periodically advances virtual time to the wall-mapped clock so
// transfers complete and periodic policy ticks fire while clients drive
// live load.
func (s *Server) pace() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.PaceInterval)
	defer t.Stop()
	for {
		select {
		case <-s.pacerStop:
			return
		case <-t.C:
			select {
			case s.cmds <- command{at: s.clock(), run: func() {}}:
			case <-s.pacerStop:
				return
			}
		}
	}
}

// loop is the core loop: the only goroutine that touches the engine, the
// file system, and the manager while the server runs.
func (s *Server) loop() {
	defer s.wg.Done()
	for !s.closed {
		select {
		case c := <-s.cmds:
			t0 := s.busyStart()
			s.drainRing()
			s.applyCmd(c)
			s.busyEnd(t0)
		case <-s.ring.wake:
			t0 := s.busyStart()
			s.drainRing()
			s.busyEnd(t0)
		}
	}
	// Final drain so no published event is silently lost.
	s.drainRing()
}

// applyCmd advances virtual time to the command's stamp and runs it.
func (s *Server) applyCmd(c command) {
	if !c.at.IsZero() && c.at.After(s.engine.Now()) {
		s.engine.RunUntil(c.at)
	}
	if c.run != nil {
		c.run()
	}
}

// drainRing applies published access events in batch: each event advances
// virtual time to its stamp and replays through dfs.RecordAccess, which
// feeds the tracker, the candidate index, and the manager's upgrade hook.
func (s *Server) drainRing() {
	s.evBuf = s.evBuf[:0]
	for {
		ev, ok := s.ring.pop()
		if !ok {
			break
		}
		s.evBuf = append(s.evBuf, ev)
	}
	if len(s.evBuf) == 0 {
		return
	}
	s.counters.batches.Add(1)
	for _, ev := range s.evBuf {
		if ev.at.After(s.engine.Now()) {
			s.engine.RunUntil(ev.at)
		}
		if f, ok := s.byID[ev.id]; ok && !f.file.Deleted() {
			s.fs.RecordAccess(f.file)
			s.counters.drained.Add(1)
		}
	}
}

// indexFile publishes a completed file to the striped namespace. Core loop
// only.
func (s *Server) indexFile(f *dfs.File) {
	h := &handle{id: f.ID(), path: f.Path(), size: f.Size(), file: f, blk0: -1}
	if blocks := f.Blocks(); len(blocks) > 0 {
		h.blk0, h.blk0Size = blocks[0].ID(), blocks[0].Size()
	}
	for _, m := range storage.AllMedia {
		if f.HasReplicaOn(m) {
			h.setDevice(m, tierDevice(f, m))
			h.setResident(m, true)
		}
	}
	s.byID[f.ID()] = h
	s.ns.put(h)
}

// refreshDevices re-publishes every handle's per-tier representative
// device; the membership hook runs it after node churn (see New). O(files),
// and churn is rare. Core loop only.
func (s *Server) refreshDevices() {
	// Guard on the server's cached plane/backend (the ones AccessAt uses),
	// not the fs's live ones: pre-Start churn may skip the walk (Start
	// re-indexes every handle anyway), and swapping either after Start is
	// unsupported.
	if s.plane == nil && s.backend == nil {
		return // pointers are only read for plane charging and real reads
	}
	for _, h := range s.byID {
		for _, m := range storage.AllMedia {
			if h.file.HasReplicaOn(m) {
				h.setDevice(m, tierDevice(h.file, m))
			}
		}
	}
}

// tierDevice picks the file's representative device on a tier (the first
// block's replica) for data-plane charging. Core loop only.
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

// serverListener keeps the striped namespace coherent with the core:
// residency flips update handle masks, deletions unindex.
type serverListener struct{ s *Server }

// FileCreated implements dfs.Listener; indexing happens in the create
// command's completion (which runs right after this notification), so
// nothing to do here.
func (serverListener) FileCreated(*dfs.File) {}

// FileAccessed implements dfs.Listener.
func (serverListener) FileAccessed(*dfs.File) {}

// FileDeleted implements dfs.Listener.
func (l serverListener) FileDeleted(f *dfs.File) {
	if _, ok := l.s.byID[f.ID()]; ok {
		delete(l.s.byID, f.ID())
		l.s.ns.remove(f.Path())
	}
}

// FileTierChanged implements dfs.Listener: publish the flip to the handle
// so client reads pick their serving tier lock-free. The representative
// device is published before the residency bit turns on (and cleared after
// it turns off), so a reader that observes the bit finds a device.
func (l serverListener) FileTierChanged(f *dfs.File, media storage.Media, resident bool) {
	if h, ok := l.s.byID[f.ID()]; ok {
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
func (serverListener) TierDataAdded(storage.Media) {}

// --- Client API ---

// CreateAt submits a file creation stamped with the given virtual time and
// returns a buffered channel that receives the final outcome once the write
// pipeline commits (or fails). The zero time means "now".
func (s *Server) CreateAt(path string, size int64, at time.Time) <-chan error {
	return s.CreateAtAs(path, size, at, storage.DefaultTenant)
}

// CreateAtAs is CreateAt with a tenant identity: the write pipeline's plane
// charges are tagged with the tenant (initial block writes happen
// synchronously inside the create call, so scoping the file system's active
// tenant around it suffices).
func (s *Server) CreateAtAs(path string, size int64, at time.Time, tenant storage.TenantID) <-chan error {
	res := make(chan error, 1)
	sp, spStart := s.sampleSpan("create", path, tenant)
	if sp != nil {
		sp.Bytes = size
	}
	start := time.Now()
	s.cmds <- command{at: at, run: func() {
		if sp != nil {
			// Time from submission until the core loop picks the command up —
			// the create's queueing delay behind other commands and drains.
			sp.RingNS = time.Since(spStart).Nanoseconds()
		}
		s.createsInFlight++
		s.fs.SetActiveTenant(tenant)
		s.fs.Create(path, size, func(f *dfs.File, err error) {
			s.createsInFlight--
			if err != nil {
				s.counters.createErrors.Add(1)
			} else {
				s.counters.creates.Add(1)
				s.indexFile(f)
			}
			s.mutateHist.Observe(time.Since(start))
			if sp != nil {
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				s.finishSpan(sp, spStart, s.engine.Now(), msg)
			}
			res <- err
		})
		s.fs.SetActiveTenant(storage.DefaultTenant)
	}}
	return res
}

// Create writes a file and blocks until the write pipeline completes.
func (s *Server) Create(path string, size int64) error {
	return <-s.CreateAt(path, size, s.clock())
}

// CreateAs writes a file on behalf of a tenant, blocking for the outcome.
func (s *Server) CreateAs(path string, size int64, tenant storage.TenantID) error {
	return <-s.CreateAtAs(path, size, s.clock(), tenant)
}

// DeleteAt submits a deletion stamped with the given virtual time.
func (s *Server) DeleteAt(path string, at time.Time) <-chan error {
	res := make(chan error, 1)
	clean, err := dfs.CleanPath(path)
	if err != nil {
		res <- err
		return res
	}
	start := time.Now()
	s.cmds <- command{at: at, run: func() {
		err := s.fs.Delete(clean)
		if err != nil {
			s.counters.deleteErrors.Add(1)
		} else {
			s.counters.deletes.Add(1)
		}
		s.mutateHist.Observe(time.Since(start))
		res <- err
	}}
	return res
}

// Delete removes a file, blocking for the outcome.
func (s *Server) Delete(path string) error {
	return <-s.DeleteAt(path, s.clock())
}

// detachAt removes a file at the stamped virtual time via the migration-
// teardown path: DetachFile releases the replicas and unindexes the handle
// without counting a client deletion. The sharded delete path uses it to
// clear the secondary copy during a migration epoch after the primary
// delete already counted the client's one logical deletion.
func (s *Server) detachAt(path string, at time.Time) <-chan error {
	res := make(chan error, 1)
	s.cmds <- command{at: at, run: func() {
		_, err := s.fs.DetachFile(path)
		res <- err
	}}
	return res
}

// resolve looks a path up in the striped namespace. Paths are indexed in
// canonical form, so a miss retries once through CleanPath — every
// metadata entry point shares this, keeping non-canonical spellings
// consistent across Access/Stat/Exists and the mutation paths (which
// canonicalize inside dfs).
func (s *Server) resolve(path string) (*handle, bool) {
	h, ok := s.ns.get(path)
	if !ok {
		if clean, err := dfs.CleanPath(path); err == nil && clean != path {
			h, ok = s.ns.get(clean)
		}
	}
	return h, ok
}

// AccessAt records a client access at the given virtual time and returns
// the tier that serves it, with the tier-real read latency when a data
// plane is attached. This is the hot path: one striped-shard lookup, one
// lock-free ring push, one atomic charge against the shared device
// channel, zero core-loop involvement.
func (s *Server) AccessAt(path string, at time.Time) (AccessResult, error) {
	return s.AccessAtAs(path, at, storage.DefaultTenant)
}

// AccessAtAs is AccessAt with a tenant identity: the plane charge carries
// the tenant (weighted-fair arbitration on a multi-tenant plane) and the
// read latency lands in the tenant's histogram as well as the tier's.
func (s *Server) AccessAtAs(path string, at time.Time, tenant storage.TenantID) (AccessResult, error) {
	// Span capture costs one nil-check call when obs is off; the stage
	// stamps below are all guarded on sp.
	sp, spStart := s.sampleSpan("access", path, tenant)
	h, ok := s.resolve(path)
	if !ok {
		s.counters.accessMisses.Add(1)
		s.finishSpan(sp, spStart, at, "not found")
		return AccessResult{}, fmt.Errorf("server: %w: %q", dfs.ErrNotFound, path)
	}
	if sp != nil {
		sp.ResolveNS = time.Since(spStart).Nanoseconds()
	}
	s.counters.accesses.Add(1)
	s.ring.push(accessEvent{id: h.id, at: at})
	if sp != nil {
		sp.RingNS = time.Since(spStart).Nanoseconds()
	}
	tier, served := h.bestTier()
	if !served {
		s.counters.noReplica.Add(1)
		s.finishSpan(sp, spStart, at, "no resident tier")
		return AccessResult{}, nil
	}
	s.counters.servedByTier[tier].Add(1)
	s.counters.bytesServed.Add(h.size)
	res := AccessResult{Tier: tier, Served: true}
	if sp != nil {
		sp.DecideNS = time.Since(spStart).Nanoseconds()
		sp.Tier = tier.String()
		sp.Bytes = h.size
	}
	// Charge the read's service time against the physical device channel.
	// A zero stamp (replay-mode Access with no pacer) carries no usable
	// virtual instant, so those reads stay unmodeled.
	if s.plane != nil && !at.IsZero() {
		if dev := h.device(tier); dev != nil {
			g := s.plane.Serve(storage.IORequest{
				DeviceID: dev.ID(),
				Media:    tier,
				Dir:      storage.Read,
				Class:    storage.ClassServe,
				Tenant:   tenant,
				Bytes:    h.size,
				At:       at,
			})
			res.Latency = g.Latency()
			// With a physical backend attached the histograms record the
			// measured wall-clock read below instead of the virtual grant
			// (the grant still books the channel for contention accounting).
			if s.backend == nil {
				s.readLat[tier].Observe(res.Latency)
				if slot, ok := s.tenantSlot[tenant]; ok {
					s.tenantLat[slot].Observe(res.Latency)
				}
			}
			if sp != nil {
				sp.QueueNS = g.Queue.Nanoseconds()
				sp.BaseNS = g.Base.Nanoseconds()
				sp.TransferNS = g.Transfer.Nanoseconds()
				sp.Saturated = g.Saturated
			}
		}
	}
	// Physical read: stream the representative block's real bytes from the
	// serving tier on the client goroutine, and feed the measured wall time
	// into the read histograms — the latencies are real, not modeled. A
	// failed read (e.g. the replica moved between the residency load and
	// the open) is counted in the backend's stats and served virtually.
	if s.backend != nil && h.blk0 >= 0 {
		if dev := h.device(tier); dev != nil {
			d, err := s.backend.Read(backend.Request{
				Media: tier, Class: storage.ClassServe, Tenant: tenant,
				DeviceID: dev.ID(), BlockID: h.blk0, Bytes: h.blk0Size,
			})
			if err == nil {
				res.Latency = d
				s.readLat[tier].Observe(d)
				if slot, ok := s.tenantSlot[tenant]; ok {
					s.tenantLat[slot].Observe(d)
				}
			}
		}
	}
	s.finishSpan(sp, spStart, at, "")
	return res, nil
}

// Access records an access now and returns the serving tier, observing the
// access-path latency histogram.
func (s *Server) Access(path string) (AccessResult, error) {
	return s.AccessAs(path, storage.DefaultTenant)
}

// AccessAs records a tenant's access now and returns the serving tier.
func (s *Server) AccessAs(path string, tenant storage.TenantID) (AccessResult, error) {
	start := time.Now()
	res, err := s.AccessAtAs(path, s.clock(), tenant)
	s.accessHist.Observe(time.Since(start))
	return res, err
}

// Stat returns the metadata snapshot of a served file (shard-only).
func (s *Server) Stat(path string) (FileInfo, error) {
	s.counters.stats.Add(1)
	h, ok := s.resolve(path)
	if !ok {
		return FileInfo{}, fmt.Errorf("server: %w: %q", dfs.ErrNotFound, path)
	}
	return FileInfo{Path: h.path, Size: h.size, Residency: h.residency()}, nil
}

// Exists reports whether a served file exists (shard-only).
func (s *Server) Exists(path string) bool {
	_, ok := s.resolve(path)
	return ok
}

// List returns the sorted file names directly under dir (shard-only).
func (s *Server) List(dir string) []string {
	s.counters.lists.Add(1)
	if names := s.ns.list(dir); len(names) > 0 {
		return names
	}
	if clean, err := dfs.CleanPath(dir); err == nil && clean != dir {
		return s.ns.list(clean)
	}
	return nil
}

// Exec runs fn inside the core loop with exclusive access to the file
// system — the escape hatch for perturbations (node churn) and final-state
// inspection in tests and tools. It blocks until fn returns.
func (s *Server) Exec(fn func(*dfs.FileSystem)) {
	done := make(chan struct{})
	s.cmds <- command{at: s.clock(), run: func() {
		fn(s.fs)
		close(done)
	}}
	<-done
}

// Flush fences the serving layer: it blocks until every access event
// published before the call is drained, all in-flight creates commit, and
// the movement executor is idle, stepping the simulation forward as needed.
// Under live load this is a best-effort barrier (new traffic may arrive
// concurrently); with clients stopped it is a full quiescence point.
func (s *Server) Flush() {
	done := make(chan struct{})
	s.cmds <- command{at: s.clock(), run: func() {
		s.quiesce()
		close(done)
	}}
	<-done
}

// quiesce drains outstanding asynchronous work inside the core loop. The
// manager's periodic ticker keeps the event queue non-empty forever, so the
// loop steps the engine only while real work (creates, movement) is
// pending, exactly like the sequential harness's "step until the workload
// completes" pattern.
func (s *Server) quiesce() {
	steps := 0
	for {
		s.drainRing()
		// Absorb queued commands without blocking: concurrent client ops
		// and pacer ticks must not starve behind a flush.
		for absorbed := true; absorbed; {
			select {
			case c := <-s.cmds:
				s.applyCmd(c)
			default:
				absorbed = false
			}
		}
		if s.createsInFlight == 0 && s.exec.Idle() && s.ring.empty() && len(s.cmds) == 0 {
			return
		}
		if steps >= s.cfg.QuiesceMaxSteps {
			return // policy ping-pong protection; invariants hold regardless
		}
		if s.engine.Step() {
			steps++
			continue
		}
		// Outstanding work but no runnable event: wait for a command or a
		// ring publication to make progress.
		select {
		case c := <-s.cmds:
			s.applyCmd(c)
		case <-s.ring.wake:
		}
	}
}
