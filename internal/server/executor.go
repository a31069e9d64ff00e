package server

import (
	"errors"
	"math"
	"sync/atomic"
	"time"

	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/obs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// The executor's own refusals, in the movement vocabulary of dfs.MoveReason.
var (
	// ErrOversize refuses, at Enqueue, a request larger than the destination
	// tier's whole burst budget: waiting for tokens would never admit it.
	ErrOversize = dfs.NewMoveError(dfs.ReasonOversize, "server: move larger than the tier's burst budget")
	// errBorrowRefused replaces a destination's "no capacity" when the move
	// had asked the ledger for the room first and was turned down.
	errBorrowRefused = dfs.NewMoveError(dfs.ReasonBorrowRefused, "server: no capacity and the ledger refused the borrow")
)

// ExecutorConfig tunes the async movement executor.
type ExecutorConfig struct {
	// WorkersPerTier bounds how many moves execute concurrently into each
	// destination tier (default 2).
	WorkersPerTier int
	// QueueDepth bounds each destination tier's waiting queue: at the bound
	// Room reports none, and the manager's loop waits for the room wake
	// instead of selecting further (default 128).
	QueueDepth int
	// BudgetBytes is each destination tier's token-bucket capacity — the
	// largest burst of admissions the tier allows, and the hard ceiling on a
	// single request's size (defaults: 1 GB memory, 2 GB SSD, 4 GB HDD).
	// The bucket starts full.
	BudgetBytes [3]int64
	// RateBytesPerSec refills each tier's bucket against the virtual clock:
	// over any virtual window of w seconds the executor admits at most
	// BudgetBytes + RateBytesPerSec*w bytes into the tier — a true
	// bytes/second movement budget with bounded bursts, rather than the
	// bandwidth-delay-product in-flight cap it replaces (defaults:
	// 256 MB/s memory, 512 MB/s SSD, 1 GB/s HDD). Use math.Inf(1) to
	// unmeter a tier (the bucket then never empties).
	RateBytesPerSec [3]float64
	// MoveLatency delays each admitted transfer's start, modelling the
	// command path through worker heartbeats. newShard defaults it to
	// the manager's core.Config.MoveLatency so serving-path movement
	// timing matches the sequential path; a bare executor falls back to
	// the paper's 5 s.
	MoveLatency time.Duration
}

func (c *ExecutorConfig) applyDefaults() {
	if c.WorkersPerTier <= 0 {
		c.WorkersPerTier = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	burst := [3]int64{1 * storage.GB, 2 * storage.GB, 4 * storage.GB}
	for i := range c.BudgetBytes {
		if c.BudgetBytes[i] <= 0 {
			c.BudgetBytes[i] = burst[i]
		}
	}
	rate := [3]float64{float64(256 * storage.MB), float64(512 * storage.MB), float64(1 * storage.GB)}
	for i := range c.RateBytesPerSec {
		if c.RateBytesPerSec[i] <= 0 {
			c.RateBytesPerSec[i] = rate[i]
		}
	}
	if c.MoveLatency <= 0 {
		c.MoveLatency = 5 * time.Second
	}
}

// TierMoveStats is the per-destination-tier executor activity record.
type TierMoveStats struct {
	Scheduled        int64   // admitted into the tier pool
	Completed        int64   // committed moves
	Failed           int64   // moves that errored (placement, capacity, churn, deleted while queued)
	Shed             int64   // refused at Enqueue: larger than the tier's whole budget
	AdmittedBytes    int64   // bytes admitted through the token bucket
	MaxInFlightBytes int64   // high-water mark of concurrently moving bytes
	BudgetBytes      int64   // the configured bucket capacity, for reporting
	RateBytesPerSec  float64 // the configured refill rate, for reporting
	// FailedBy breaks Failed + Shed down by dfs.MoveReason.
	FailedBy [len(dfs.MoveReasons)]int64 `json:"-"`
}

// ExecutorStats snapshots the executor's counters.
type ExecutorStats struct {
	PerTier [3]TierMoveStats
	// VirtualSeconds is how much virtual time the executor has observed
	// since construction (sampled at token refills). Together with the
	// per-tier bucket parameters it bounds admissions:
	// AdmittedBytes <= BudgetBytes + RateBytesPerSec*VirtualSeconds.
	VirtualSeconds float64
	// Defers counts how many times admission was pushed out by Defer (the
	// SLO controller's shed-background-work lever).
	Defers int64
}

// add accumulates another shard's snapshot. The virtual-time sample is the
// maximum over shards; bucket capacities and refill rates are summed, so the
// aggregate pairs the summed AdmittedBytes with the fleet-wide budget (and
// CheckBudgets on it stays sound: each shard obeys burst_i + rate_i*t_i with
// t_i <= the reported maximum).
func (s *ExecutorStats) add(o ExecutorStats) {
	if o.VirtualSeconds > s.VirtualSeconds {
		s.VirtualSeconds = o.VirtualSeconds
	}
	s.Defers += o.Defers
	for i := range s.PerTier {
		a, b := &s.PerTier[i], o.PerTier[i]
		a.Scheduled += b.Scheduled
		a.Completed += b.Completed
		a.Failed += b.Failed
		a.Shed += b.Shed
		for r := range a.FailedBy {
			a.FailedBy[r] += b.FailedBy[r]
		}
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

// Queued sums admitted requests across tiers.
func (s ExecutorStats) Queued() int64 {
	var n int64
	for _, t := range s.PerTier {
		n += t.Scheduled
	}
	return n
}

// CheckBudgets verifies the token-bucket admission invariant for every tier
// against the observed virtual time, returning a violation description or
// "" when all tiers are within budget.
func (s ExecutorStats) CheckBudgets() string {
	for i, t := range s.PerTier {
		if math.IsInf(t.RateBytesPerSec, 1) {
			continue
		}
		bound := float64(t.BudgetBytes) + t.RateBytesPerSec*s.VirtualSeconds
		if float64(t.AdmittedBytes) > bound {
			return storage.Media(i).String() + " executor exceeded its movement budget"
		}
	}
	return ""
}

// MovementExecutor is the serving layer's async replica-movement engine: a
// per-destination-tier pool of movement slots with a bounded FIFO queue and
// a token-bucket bandwidth budget per tier, refilled against the virtual
// clock. It implements core.Mover, so a core.Manager routes its
// upgrade/downgrade requests here instead of the inline Replication Monitor;
// transfers then overlap with serving — they execute as engine events while
// the core loop keeps absorbing client commands and access batches.
//
// Backpressure, not shedding: a full queue answers Room with false, the
// manager stops selecting for that destination, and the first slot to free up
// afterwards schedules the room wake (an engine event of its own) that lets it
// continue. A queued request whose file has been deleted is dropped when it
// reaches the head, before it costs tokens, a worker or the command latency.
//
// All mutable pool state is owned by the core loop (Enqueue must only be
// called from it — the Manager's callbacks already run there); the counters
// are atomics so load drivers and tests read them from other goroutines.
type MovementExecutor struct {
	fs        *dfs.FileSystem
	engine    *sim.Engine
	cfg       ExecutorConfig
	virtStart time.Time // virtual construction time, origin of VirtualSeconds
	// preMove, when set, runs right before each admitted move starts, on the
	// loop that owns the executor. The sharded serving layer uses it to grow
	// the shard's tier quota from the global ledger so the move's
	// destination reservation can succeed; false says the ledger refused.
	preMove func(tier storage.Media, bytes int64) bool
	// onRoom is the manager's room callback (core.Mover.OnRoom).
	onRoom func(to storage.Media)

	tiers [3]tierPool
	// deferUntil, while in the future, holds every tier's admissions back —
	// the SLO admission controller's lever for shedding background movement
	// when a tenant drifts past its latency target. Core-loop-owned; queued
	// requests stay queued (not shed) and a wake event at the deadline
	// guarantees the queue drains without further prodding.
	deferUntil time.Time
	defers     atomic.Int64
	// busy counts admitted-but-unfinished requests across all tiers, plus the
	// room wakes scheduled and not yet run; the quiesce loop uses it to
	// decide whether movement work is outstanding.
	busy atomic.Int64
	// virtualNS is the last virtual-time sample (nanoseconds since virtStart),
	// updated on the owning loop at refills and read by Stats from any
	// goroutine.
	virtualNS atomic.Int64

	// hub, when non-nil, receives a movement-provenance record per request
	// at admission (queued/shed) and at completion (completed/failed);
	// obsShard labels the records on a sharded hub.
	hub      *obs.Hub
	obsShard int
}

type tierPool struct {
	queue         []pendingMove // core-loop-owned FIFO
	active        int           // moves currently executing
	inFlightBytes int64
	tokens        float64   // current bucket level in bytes
	lastRefill    time.Time // virtual time of the last refill
	wake          bool      // a re-pump is scheduled and has not run
	// refused: Room said no since the last room wake was scheduled, so the
	// next slot to free up owes the manager one. roomWake: that wake is
	// scheduled and has not run.
	refused, roomWake bool

	scheduled   atomic.Int64
	completed   atomic.Int64
	failedBy    [len(dfs.MoveReasons)]atomic.Int64 // every request that ended in an error
	admitted    atomic.Int64
	maxInFlight atomic.Int64
	// depth mirrors len(queue) atomically so observability scrapes read the
	// backlog from other goroutines without touching core-loop-owned state.
	depth atomic.Int64
}

type pendingMove struct {
	req  core.MoveRequest
	size int64
}

// NewMovementExecutor builds an executor over the file system. Buckets
// start full.
func NewMovementExecutor(fs *dfs.FileSystem, cfg ExecutorConfig) *MovementExecutor {
	cfg.applyDefaults()
	e := &MovementExecutor{fs: fs, engine: fs.Engine(), cfg: cfg, virtStart: fs.Engine().Now()}
	for i := range e.tiers {
		e.tiers[i].tokens = float64(cfg.BudgetBytes[i])
		e.tiers[i].lastRefill = e.virtStart
	}
	return e
}

// setObs attaches the observability hub (nil = disabled). Called by
// newShard before any request flows.
func (e *MovementExecutor) setObs(hub *obs.Hub, shard int) {
	e.hub = hub
	e.obsShard = shard
}

// emitMove publishes one movement-provenance record. The file's path is
// read here, so callers must be on the loop that owns the executor (they
// already are — admission and completion both run there).
func (e *MovementExecutor) emitMove(r core.MoveRequest, size int64, outcome string, err error) {
	if e.hub == nil {
		return
	}
	rec := &obs.MoveRecord{
		Shard:       e.obsShard,
		VirtNS:      e.engine.Now().Sub(e.virtStart).Nanoseconds(),
		Path:        r.File.Path(),
		From:        r.From.String(),
		To:          r.To.String(),
		Bytes:       size,
		Policy:      r.Policy,
		Trigger:     r.Trigger,
		AccessCount: r.AccessCount,
		Outcome:     outcome,
	}
	if !r.LastAccess.IsZero() {
		rec.LastAccessNS = r.LastAccess.Sub(e.virtStart).Nanoseconds()
	}
	if err != nil {
		rec.Err = dfs.ReasonOf(err).String()
	}
	e.hub.EmitMove(rec)
}

// Room implements core.Mover: whether the destination tier's queue has a free
// slot. A refusal is remembered, and the next slot to free up schedules the
// room wake. Size plays no part: a request no wait could admit is refused by
// Enqueue itself (ErrOversize), so Room cannot hold a loop back for one.
func (e *MovementExecutor) Room(to storage.Media) bool {
	pool := &e.tiers[to]
	if len(pool.queue) < e.cfg.QueueDepth {
		return true
	}
	pool.refused = true
	return false
}

// OnRoom implements core.Mover.
func (e *MovementExecutor) OnRoom(fn func(to storage.Media)) { e.onRoom = fn }

// Enqueue implements core.Mover. Core loop only; the caller has seen Room for
// the tier, so a queue already at QueueDepth here is a caller bug.
func (e *MovementExecutor) Enqueue(r core.MoveRequest) {
	if r.Done == nil {
		r.Done = func(error) {}
	}
	pool := &e.tiers[r.To]
	// MoveFileReplicas relocates one replica per block: the file's size.
	size := r.File.Size()
	if size > e.cfg.BudgetBytes[r.To] {
		pool.failedBy[dfs.ReasonOversize].Add(1)
		e.emitMove(r, size, "shed", ErrOversize)
		r.Done(ErrOversize)
		return
	}
	if len(pool.queue) >= e.cfg.QueueDepth {
		panic("server: MovementExecutor.Enqueue on a full queue; ask Room first")
	}
	pool.queue = append(pool.queue, pendingMove{req: r, size: size})
	pool.depth.Store(int64(len(pool.queue)))
	pool.scheduled.Add(1)
	e.busy.Add(1)
	e.emitMove(r, size, "queued", nil)
	e.pump(r.To)
}

// dequeue takes the head request off the tier's queue. The freed slot pays
// the room wake a refused Room is owed: one engine event, however many slots
// free up before it runs, so the manager's loops are never re-entered from
// inside Enqueue, pump or a Done closure.
func (e *MovementExecutor) dequeue(tier storage.Media) pendingMove {
	pool := &e.tiers[tier]
	head := pool.queue[0]
	pool.queue = pool.queue[1:]
	pool.depth.Store(int64(len(pool.queue)))
	if pool.refused && !pool.roomWake && e.onRoom != nil {
		pool.refused, pool.roomWake = false, true
		e.busy.Add(1)
		e.engine.Schedule(0, func() {
			pool.roomWake = false
			e.busy.Add(-1)
			e.onRoom(tier)
		})
	}
	return head
}

// fail closes an admitted request that did not move.
func (e *MovementExecutor) fail(tier storage.Media, pm pendingMove, err error) {
	e.tiers[tier].failedBy[dfs.ReasonOf(err)].Add(1)
	e.emitMove(pm.req, pm.size, "failed", err)
	pm.req.Done(err)
	e.busy.Add(-1)
}

// refill settles the tier's token bucket to the current virtual time and
// publishes the virtual-clock sample for Stats readers.
func (e *MovementExecutor) refill(tier storage.Media) {
	pool := &e.tiers[tier]
	now := e.engine.Now()
	elapsed := now.Sub(e.virtStart)
	if ns := elapsed.Nanoseconds(); ns > e.virtualNS.Load() {
		e.virtualNS.Store(ns)
	}
	dt := now.Sub(pool.lastRefill).Seconds()
	if dt <= 0 {
		return
	}
	pool.lastRefill = now
	burst := float64(e.cfg.BudgetBytes[tier])
	pool.tokens += e.cfg.RateBytesPerSec[tier] * dt
	if pool.tokens > burst || math.IsInf(pool.tokens, 1) {
		pool.tokens = burst
	}
}

// pump starts queued moves while the tier has a free slot and the token
// bucket covers the head request. The queue stays FIFO: a large move at the
// head waits for tokens rather than being bypassed, so sustained small moves
// cannot starve it. When tokens are the binding constraint, a wake event is
// scheduled at the virtual time the bucket refills enough for the head. A head
// whose file is gone is dropped whatever the slots, tokens or deferral say.
func (e *MovementExecutor) pump(tier storage.Media) {
	pool := &e.tiers[tier]
	e.refill(tier)
	now := e.engine.Now()
	for len(pool.queue) > 0 {
		head := pool.queue[0]
		switch {
		case head.req.File.Deleted():
			e.fail(tier, e.dequeue(tier), dfs.ErrSuperseded)
			continue
		case e.deferUntil.After(now):
			// SLO deferral: hold admissions but keep the queue; the wake at the
			// deadline re-pumps, so quiesce can still drain by stepping the
			// engine (movement work stays runnable, just postponed).
			e.wakeAt(tier, e.deferUntil.Sub(now))
			return
		case pool.active >= e.cfg.WorkersPerTier:
			return
		case pool.tokens < float64(head.size):
			e.wakeWhenRefilled(tier, float64(head.size))
			return
		}
		pool.tokens -= float64(head.size)
		pool.admitted.Add(head.size)
		e.start(tier, e.dequeue(tier))
	}
}

// Defer pushes the admission deadline out to `until` (never pulls it in):
// queued and future requests start only once the virtual clock passes it.
// Core loop only — the SLO controller's tick runs there.
func (e *MovementExecutor) Defer(until time.Time) {
	if !until.After(e.deferUntil) {
		return
	}
	e.deferUntil = until
	e.defers.Add(1)
	for _, m := range storage.AllMedia {
		if len(e.tiers[m].queue) > 0 {
			e.wakeAt(m, until.Sub(e.engine.Now()))
		}
	}
}

// DeferredUntil returns the current admission deadline (zero when movement
// was never deferred). Core loop only.
func (e *MovementExecutor) DeferredUntil() time.Time { return e.deferUntil }

// wakeWhenRefilled schedules one engine event at the virtual time the tier's
// bucket reaches `need` bytes, so a blocked queue makes progress even when
// no completion re-pumps it.
func (e *MovementExecutor) wakeWhenRefilled(tier storage.Media, need float64) {
	rate := e.cfg.RateBytesPerSec[tier]
	// Round up a whole nanosecond so the refill at the wake time covers the
	// deficit despite float truncation.
	need -= e.tiers[tier].tokens
	e.wakeAt(tier, time.Duration(math.Ceil(need/rate*float64(time.Second)))+time.Nanosecond)
}

// wakeAt schedules one engine event after `delay` that re-pumps the tier; a
// pending wake is left in place (the earlier of the two re-pumps, and pump
// re-schedules as needed).
func (e *MovementExecutor) wakeAt(tier storage.Media, delay time.Duration) {
	pool := &e.tiers[tier]
	if pool.wake {
		return
	}
	if delay < time.Nanosecond {
		delay = time.Nanosecond
	}
	pool.wake = true
	e.engine.Schedule(delay, func() {
		pool.wake = false
		e.pump(tier)
	})
}

func (e *MovementExecutor) start(tier storage.Media, pm pendingMove) {
	pool := &e.tiers[tier]
	pool.active++
	pool.inFlightBytes += pm.size
	if pool.inFlightBytes > pool.maxInFlight.Load() {
		pool.maxInFlight.Store(pool.inFlightBytes)
	}
	borrowed := e.preMove == nil || e.preMove(tier, pm.size)
	finish := func(err error) {
		pool.active--
		pool.inFlightBytes -= pm.size
		if err != nil {
			if !borrowed && errors.Is(err, dfs.ErrNoCapacity) {
				err = errBorrowRefused
			}
			e.fail(tier, pm, err)
		} else {
			pool.completed.Add(1)
			e.emitMove(pm.req, pm.size, "completed", nil)
			pm.req.Done(nil)
			e.busy.Add(-1)
		}
		e.pump(tier)
	}
	e.engine.Schedule(e.cfg.MoveLatency, func() {
		err := e.fs.MoveFileReplicas(pm.req.File, pm.req.From, pm.req.To, finish)
		if err != nil {
			finish(err)
		}
	})
}

// Idle reports whether no request is queued or in flight.
func (e *MovementExecutor) Idle() bool { return e.busy.Load() == 0 }

// Stats snapshots the executor counters. Safe from any goroutine. The
// virtual clock is read last: every admission counted was made after a
// refill published a clock at least as late, so the snapshot never pairs
// an admission with a clock older than it (CheckBudgets relies on that).
func (e *MovementExecutor) Stats() ExecutorStats {
	var out ExecutorStats
	out.Defers = e.defers.Load()
	for i := range e.tiers {
		p := &e.tiers[i]
		st := &out.PerTier[i]
		*st = TierMoveStats{
			Scheduled:        p.scheduled.Load(),
			Completed:        p.completed.Load(),
			AdmittedBytes:    p.admitted.Load(),
			MaxInFlightBytes: p.maxInFlight.Load(),
			BudgetBytes:      e.cfg.BudgetBytes[i],
			RateBytesPerSec:  e.cfg.RateBytesPerSec[i],
		}
		for r := range p.failedBy {
			st.FailedBy[r] = p.failedBy[r].Load()
			st.Failed += st.FailedBy[r]
		}
		// An oversize request never got in: it is the one refusal left to Shed.
		st.Shed = st.FailedBy[dfs.ReasonOversize]
		st.Failed -= st.Shed
	}
	out.VirtualSeconds = time.Duration(e.virtualNS.Load()).Seconds()
	return out
}
