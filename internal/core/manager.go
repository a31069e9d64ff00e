package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// failureCooldown is how long a file is skipped after a failed move, so
// selection loops do not spin on files that cannot currently be placed.
const failureCooldown = time.Minute

// Metrics counts the manager's activity.
type Metrics struct {
	DowngradesScheduled int64
	UpgradesScheduled   int64
	ReplicaDeletes      int64
	DowngradeErrors     int64
	UpgradeErrors       int64
	Ticks               int64
}

// CooldownReason says why the manager put a file in a failure cooldown.
type CooldownReason int

const (
	// CooldownMoveFailed: the mover attempted (or refused outright) the move
	// and reported an error.
	CooldownMoveFailed CooldownReason = iota
	// CooldownDeleteFailed: dropping the file's replicas on a tier failed for
	// a reason that passes (the file is mid-transition); a last-copy refusal
	// is not one, see pinLastCopy.
	CooldownDeleteFailed
)

// CooldownReasons lists every reason, for per-reason metric registration.
var CooldownReasons = []CooldownReason{CooldownMoveFailed, CooldownDeleteFailed}

// String is the reason's metric label.
func (r CooldownReason) String() string {
	return [...]string{"move_failed", "delete_failed"}[r]
}

// Mover executes the manager's data-movement requests. The Replication
// Monitor is the default implementation (inline, engine-scheduled, global
// concurrency bound); the concurrent serving layer substitutes its async
// movement executor (per-tier pools with bounded queues and bandwidth
// budgets) via SetMover.
//
// The seam is a two-way contract. Before it commits to a move the manager asks
// Room for the destination tier and, told there is none, leaves the file a
// candidate and parks the loop that selected it; the mover owes it one call of
// the OnRoom callback once that destination can take a request again. The
// callback must run as an event of its own, never from inside Enqueue or a
// Done closure: it re-enters the selection loops. Enqueue must not block, and
// reports every outcome, a refusal at the door included, through
// MoveRequest.Done.
type Mover interface {
	Enqueue(MoveRequest)
	// Room reports whether a request into tier `to` would be queued now.
	Room(to storage.Media) bool
	// OnRoom installs the callback announcing that a destination which
	// refused Room has room again.
	OnRoom(func(to storage.Media))
}

// Manager is the Replication Manager (Section 3.3): it listens to file
// system notifications, maintains per-file statistics, and orchestrates the
// downgrade (Algorithm 1) and upgrade (Algorithm 2) processes through the
// configured policies. Movement requests execute asynchronously on the
// configured Mover (the Replication Monitor by default).
type Manager struct {
	ctx     *Context
	down    DowngradePolicy
	up      UpgradePolicy
	monitor *Monitor
	mover   Mover
	engine  *sim.Engine

	// The eligibility record. A file is on record while it is busy (a move
	// of it is queued or in flight) or has a failure cooldown, and exactly
	// then the context's candidate indexes hold it parked. cooling holds one
	// entry per cooling file under (0, until, id), the cooldown running out
	// strictly after until; it is a standalone heap (nothing parks in it), so
	// its top is the next cooldown to run out.
	busy           map[dfs.FileID]bool
	cooling        *FileHeap
	pendingRelease [3]int64
	// lastCopy is the per-tier part of the record: the tiers (a bit per
	// storage.Media) whose replicas of the file a delete verdict was refused
	// for, because some block has no other readable copy. On those tiers
	// alone the file is parked, and it stays so until its residency changes —
	// nothing else can give the block a second copy.
	lastCopy map[dfs.FileID]uint8
	// waiting[tier] is 1 + the destination tier whose room the tier's
	// downgrade loop stopped for (0: it is not waiting). A waiting loop is a
	// pass in progress: triggers leave it alone and roomAvailable continues
	// it.
	waiting [3]uint8

	// Scrape-side mirrors of the record, readable from any goroutine.
	busyCount     atomic.Int64
	cooldownCount atomic.Int64
	cooldowns     [2]atomic.Int64 // by CooldownReason, monotonic

	ticker  *sim.Ticker
	metrics Metrics
}

// NewManager wires a manager with the given policies into the context's
// file system. Either policy may be nil to disable that direction
// (Sections 7.3 and 7.4 evaluate each side in isolation).
func NewManager(ctx *Context, down DowngradePolicy, up UpgradePolicy) *Manager {
	m := &Manager{
		ctx:      ctx,
		down:     down,
		up:       up,
		monitor:  NewMonitor(ctx.FS, ctx.Cfg.MonitorConcurrency, ctx.Cfg.MoveLatency),
		engine:   ctx.FS.Engine(),
		busy:     make(map[dfs.FileID]bool),
		cooling:  NewFileHeap(nil, ctx.FS.FileAt),
		lastCopy: make(map[dfs.FileID]uint8),
	}
	m.SetMover(nil)
	ctx.mgr = m
	ctx.FS.AddListener(m)
	return m
}

// Context returns the policy context.
func (m *Manager) Context() *Context { return m.ctx }

// Monitor returns the replication monitor. It keeps executing replication
// repairs even when a custom Mover handles tier movements.
func (m *Manager) Monitor() *Monitor { return m.monitor }

// SetMover routes subsequent movement requests through mv instead of the
// inline Replication Monitor; nil restores the monitor. In-flight requests
// are unaffected. Loops parked on the previous mover's room are forgotten:
// the next trigger starts them afresh against the new one.
func (m *Manager) SetMover(mv Mover) {
	if mv == nil {
		mv = m.monitor
	}
	m.mover = mv
	m.waiting = [3]uint8{}
	mv.OnRoom(m.roomAvailable)
}

// Metrics returns a snapshot of the manager's counters.
func (m *Manager) Metrics() Metrics { return m.metrics }

// Start begins the periodic loop: policy ticks (model sampling), proactive
// upgrades, threshold re-checks, and replication repair.
func (m *Manager) Start() {
	if m.ticker != nil {
		return
	}
	m.ticker = m.engine.Every(m.ctx.Cfg.PeriodicInterval, m.tick)
}

// Stop halts the periodic loop; in-flight moves complete.
func (m *Manager) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
}

func (m *Manager) tick() {
	m.metrics.Ticks++
	if t, ok := m.down.(Ticker); ok {
		t.Tick()
	}
	if t, ok := m.up.(Ticker); ok {
		t.Tick()
	}
	// Proactive decisions do not wait for external events (Section 3.2):
	// re-check tier pressure and let the upgrade policy act without an
	// accessed file.
	for _, tier := range storage.AllMedia {
		m.runDowngrade(tier, "tick")
	}
	m.runUpgrade(nil, "tick")
	m.monitor.CheckReplication()
}

// ParkedFiles returns how many files are currently busy and how many hold a
// failure cooldown on record (a file can be both). Goroutine-safe.
func (m *Manager) ParkedFiles() (busy, cooldown int64) {
	return m.busyCount.Load(), m.cooldownCount.Load()
}

// Cooldowns returns how many failure cooldowns were set for the reason since
// construction. Goroutine-safe.
func (m *Manager) Cooldowns(r CooldownReason) int64 { return m.cooldowns[r].Load() }

func (m *Manager) isBusy(f *dfs.File) bool { return m.busy[f.ID()] }

// inCooldown reports whether the file's failure cooldown is still running.
func (m *Manager) inCooldown(f *dfs.File) bool {
	k, cooling := m.cooling.Key(f)
	return cooling && timeKey(m.ctx.Clock.Now()) <= k.T
}

// onRecord reports whether the file is busy or has a cooldown on record,
// expired-but-unreleased ones included: the parked state of the indexes.
func (m *Manager) onRecord(f *dfs.File) bool {
	return m.busy[f.ID()] || m.cooling.Has(f)
}

// lastCopyOn reports whether the file is parked on the tier as a last copy.
func (m *Manager) lastCopyOn(id dfs.FileID, tier storage.Media) bool {
	return m.lastCopy[id]&(1<<tier) != 0
}

// pinLastCopy parks the file on the one tier whose replicas it must keep.
func (m *Manager) pinLastCopy(f *dfs.File, tier storage.Media) {
	m.lastCopy[f.ID()] |= 1 << tier
	m.ctx.index.parkOn(f, tier)
}

// markBusy records a move of the file as queued or in flight.
func (m *Manager) markBusy(f *dfs.File) {
	m.busy[f.ID()] = true
	m.busyCount.Add(1)
	m.ctx.index.park(f)
}

// moveDone closes the busy mark of a finished move: a failure turns into a
// cooldown (the file stays parked), a clean completion returns the file to
// selection order unless an earlier cooldown is still on record.
func (m *Manager) moveDone(f *dfs.File, err error) {
	id := f.ID()
	if m.busy[id] { // FileDeleted may have dropped the mark already
		delete(m.busy, id)
		m.busyCount.Add(-1)
	}
	if err != nil {
		m.setCooldown(f, CooldownMoveFailed)
	}
	if !m.onRecord(f) {
		m.ctx.index.unpark(f)
	}
}

// setCooldown keeps the file out of selection for failureCooldown. A deleted
// file gets none: nothing would ever ask about it again.
func (m *Manager) setCooldown(f *dfs.File, reason CooldownReason) {
	if f.Deleted() {
		return
	}
	if !m.cooling.Has(f) {
		m.cooldownCount.Add(1)
	}
	m.cooling.Update(f, 0, m.ctx.Clock.Now().Add(failureCooldown))
	m.cooldowns[reason].Add(1)
	m.ctx.index.park(f)
}

// releaseExpired drops every cooldown that has run out (strictly: now is
// after its until), in ascending (until, id) order, and returns the files to
// selection order. The candidate heaps call it at the start of every
// selection.
func (m *Manager) releaseExpired() {
	for len(m.cooling.items) > 0 && m.cooling.items[0].t < timeKey(m.ctx.Clock.Now()) {
		e := m.cooling.items[0]
		m.cooling.remove(e.slot(), e.id())
		m.cooldownCount.Add(-1)
		if f := m.ctx.FS.FileAt(e.slot(), e.id()); f != nil && !m.busy[f.ID()] {
			m.ctx.index.unpark(f)
		}
	}
}

// auditRecord checks that the scrape counts mirror the eligibility record.
func (m *Manager) auditRecord() error {
	if b, c := m.ParkedFiles(); b != int64(len(m.busy)) || c != int64(m.cooling.Len()) {
		return fmt.Errorf("core: parked counts (%d busy, %d cooldown) drifted from the record (%d, %d)",
			b, c, len(m.busy), m.cooling.Len())
	}
	return nil
}

// --- dfs.Listener ---

// FileCreated implements dfs.Listener. The context's own listener, which
// registered first, records the file in the tracker and the candidate index;
// the manager has nothing to add.
func (m *Manager) FileCreated(*dfs.File) {}

// FileAccessed implements dfs.Listener; it fires before the data is read
// and triggers the upgrade process (Algorithm 2 "invoked every time a file
// is accessed, before it is actually read"). A notification that stands for
// several accesses at one instant runs the callbacks and the process once;
// the statistics (the context's listener) count all of them.
func (m *Manager) FileAccessed(f *dfs.File, _ int64) {
	if m.down != nil {
		m.down.OnFileAccessed(f)
	}
	if m.up != nil {
		m.up.OnFileAccessed(f)
	}
	m.runUpgrade(f, "access")
}

// FileDeleted implements dfs.Listener.
func (m *Manager) FileDeleted(f *dfs.File) {
	if m.busy[f.ID()] {
		delete(m.busy, f.ID())
		m.busyCount.Add(-1)
	}
	if m.cooling.Has(f) {
		m.cooling.Remove(f)
		m.cooldownCount.Add(-1)
	}
	delete(m.lastCopy, f.ID())
}

// FileTierChanged implements dfs.Listener. Residency flips feed the
// context's candidate index (and, through it, subscribed policies); the
// manager reacts to tier pressure via TierDataAdded, and here only forgets the
// file's last-copy marks: with its residency changed it may be examined as a
// delete candidate again.
func (m *Manager) FileTierChanged(f *dfs.File, _ storage.Media, _ bool) {
	id := f.ID()
	if m.lastCopy[id] == 0 {
		return
	}
	delete(m.lastCopy, id)
	if !m.onRecord(f) {
		m.ctx.index.unpark(f)
	}
}

// TierDataAdded implements dfs.Listener; data arriving on a tier is the
// trigger for the downgrade process (Algorithm 1 "invoked every time some
// data is added to a storage tier").
func (m *Manager) TierDataAdded(tier storage.Media) {
	m.runDowngrade(tier, "tier-data-added")
}

// --- Algorithm 1: downgrade process ---

// runDowngrade starts the downgrade process for the tier, unless a pass is
// already in progress there, waiting for the mover.
func (m *Manager) runDowngrade(tier storage.Media, trigger string) {
	if m.down == nil || m.waiting[tier] != 0 || !m.down.StartDowngrade(tier) {
		return
	}
	m.downgradeLoop(tier, trigger)
}

// downgradeLoop is the body of Algorithm 1. Every iteration takes its
// candidate out of the tier's selection order — deleted from the tier, or
// parked as busy, as a last copy or in a cooldown — so a pass is bounded by
// the tier's population. A mover without room for the target ends the pass
// with the candidate untouched and the tier waiting.
func (m *Manager) downgradeLoop(tier storage.Media, trigger string) {
	for {
		f := m.down.SelectFile(tier)
		if f == nil {
			return
		}
		to, del := m.down.SelectTargetTier(f, tier)
		switch {
		case del:
			m.deleteReplicas(f, tier)
		case !m.mover.Room(to):
			m.waiting[tier] = 1 + uint8(to)
			return
		default:
			m.scheduleDowngrade(f, tier, to, trigger)
		}
		if m.down.StopDowngrade(tier) {
			return
		}
	}
}

// roomAvailable is the mover's announcement that tier `to` takes requests
// again: the downgrade passes waiting for it continue where they stopped
// (they had started, so only the stop rule is consulted). Upgrades are not
// resumed; the next access or tick that wants one asks again.
func (m *Manager) roomAvailable(to storage.Media) {
	for _, tier := range storage.AllMedia {
		if m.waiting[tier] != 1+uint8(to) {
			continue
		}
		m.waiting[tier] = 0
		if !m.down.StopDowngrade(tier) {
			m.downgradeLoop(tier, "room")
		}
	}
}

func (m *Manager) deleteReplicas(f *dfs.File, tier storage.Media) {
	switch err := m.ctx.FS.DeleteFileReplicas(f, tier); {
	case err == nil:
		m.metrics.ReplicaDeletes++
		m.ctx.FS.LowerReplication(f)
	case errors.Is(err, dfs.ErrLastCopy):
		m.metrics.DowngradeErrors++
		m.pinLastCopy(f, tier)
	default:
		m.metrics.DowngradeErrors++
		m.setCooldown(f, CooldownDeleteFailed)
	}
}

func (m *Manager) scheduleDowngrade(f *dfs.File, from, to storage.Media, trigger string) {
	released := f.BytesOn(from)
	m.markBusy(f)
	m.pendingRelease[from] += released
	m.mover.Enqueue(MoveRequest{
		File:        f,
		From:        from,
		To:          to,
		Policy:      m.down.Name(),
		Trigger:     trigger,
		AccessCount: m.ctx.AccessCount(f),
		LastAccess:  m.ctx.LastTouch(f),
		Done: func(err error) {
			m.pendingRelease[from] -= released
			m.moveDone(f, err)
			if err != nil {
				m.metrics.DowngradeErrors++
				return
			}
			m.metrics.DowngradesScheduled++
		},
	})
}

// --- Algorithm 2: upgrade process ---

// runUpgrade runs the upgrade loop; the policy's SelectFile draws from the
// batch its StartUpgrade built, so the pass is bounded by that batch. A mover
// without room for the target ends it.
func (m *Manager) runUpgrade(accessed *dfs.File, trigger string) {
	if m.up == nil {
		return
	}
	if accessed != nil && (m.busy[accessed.ID()] || accessed.Deleted()) {
		return
	}
	if !m.up.StartUpgrade(accessed) {
		return
	}
	for {
		f := m.up.SelectFile()
		if f == nil || !m.tryUpgrade(f, trigger) || m.up.StopUpgrade() {
			return
		}
	}
}

// tryUpgrade schedules the file's upgrade if it is eligible and has a target;
// it reports false only when the mover has no room for that target.
func (m *Manager) tryUpgrade(f *dfs.File, trigger string) bool {
	if f.Deleted() || m.busy[f.ID()] || m.inCooldown(f) || !m.ctx.FS.Complete(f) {
		return true
	}
	from, ok := f.HighestTier()
	if !ok {
		return true
	}
	to, ok := m.up.SelectTargetTier(f, from)
	if !ok || !to.Higher(from) {
		return true
	}
	if !m.mover.Room(to) {
		return false
	}
	m.markBusy(f)
	m.mover.Enqueue(MoveRequest{
		File:        f,
		From:        from,
		To:          to,
		Policy:      m.up.Name(),
		Trigger:     trigger,
		AccessCount: m.ctx.AccessCount(f),
		LastAccess:  m.ctx.LastTouch(f),
		Done: func(err error) {
			m.moveDone(f, err)
			if err != nil {
				m.metrics.UpgradeErrors++
				return
			}
			m.metrics.UpgradesScheduled++
		},
	})
	return true
}
