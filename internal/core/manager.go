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

// maxProcessIterations bounds one invocation of the downgrade or upgrade
// loop, protecting the simulation from a policy that never says stop.
const maxProcessIterations = 10000

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

// ErrMoveShed is what a Mover reports through MoveRequest.Done when it
// refused the request at admission (queue full, over budget) instead of
// attempting the move; the manager books the resulting cooldown under its
// own reason.
var ErrMoveShed = errors.New("core: mover shed the request at admission")

// CooldownReason says why the manager put a file in a failure cooldown.
type CooldownReason int

const (
	// CooldownShed: the mover refused the move at admission (ErrMoveShed).
	CooldownShed CooldownReason = iota
	// CooldownMoveFailed: the mover attempted the move and it failed.
	CooldownMoveFailed
	// CooldownDeleteFailed: dropping the file's replicas on a tier failed.
	CooldownDeleteFailed
)

// CooldownReasons lists every reason, for per-reason metric registration.
var CooldownReasons = []CooldownReason{CooldownShed, CooldownMoveFailed, CooldownDeleteFailed}

// String is the reason's metric label.
func (r CooldownReason) String() string {
	return [...]string{"shed", "move_failed", "delete_failed"}[r]
}

// Mover executes the manager's data-movement requests. The Replication
// Monitor is the default implementation (inline, engine-scheduled, global
// concurrency bound); the concurrent serving layer substitutes its async
// movement executor (per-tier pools with bounded queues and bandwidth
// budgets) via SetMover. Enqueue must not block: implementations shed or
// fail requests they cannot accept and report the outcome through
// MoveRequest.Done.
type Mover interface {
	Enqueue(MoveRequest)
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

	// Scrape-side mirrors of the record, readable from any goroutine.
	busyCount     atomic.Int64
	cooldownCount atomic.Int64
	cooldowns     [3]atomic.Int64 // by CooldownReason, monotonic

	ticker  *sim.Ticker
	metrics Metrics
}

// NewManager wires a manager with the given policies into the context's
// file system. Either policy may be nil to disable that direction
// (Sections 7.3 and 7.4 evaluate each side in isolation).
func NewManager(ctx *Context, down DowngradePolicy, up UpgradePolicy) *Manager {
	m := &Manager{
		ctx:     ctx,
		down:    down,
		up:      up,
		monitor: NewMonitor(ctx.FS, ctx.Cfg.MonitorConcurrency, ctx.Cfg.MoveLatency),
		engine:  ctx.FS.Engine(),
		busy:    make(map[dfs.FileID]bool),
		cooling: NewFileHeap(nil, ctx.FS.FileByID),
	}
	m.mover = m.monitor
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
// are unaffected.
func (m *Manager) SetMover(mv Mover) {
	if mv == nil {
		m.mover = m.monitor
		return
	}
	m.mover = mv
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
	k, cooling := m.cooling.Key(f.ID())
	return cooling && timeKey(m.ctx.Clock.Now()) <= k.T
}

// onRecord reports whether the file is busy or has a cooldown on record,
// expired-but-unreleased ones included: the parked state of the indexes.
func (m *Manager) onRecord(id dfs.FileID) bool {
	return m.busy[id] || m.cooling.Has(id)
}

// markBusy records a move of the file as queued or in flight.
func (m *Manager) markBusy(f *dfs.File) {
	m.busy[f.ID()] = true
	m.busyCount.Add(1)
	m.ctx.index.park(f.ID())
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
		reason := CooldownMoveFailed
		if errors.Is(err, ErrMoveShed) {
			reason = CooldownShed
		}
		m.setCooldown(f, reason)
	}
	if !m.onRecord(id) {
		m.ctx.index.unpark(id)
	}
}

// setCooldown keeps the file out of selection for failureCooldown. A deleted
// file gets none: nothing would ever ask about it again.
func (m *Manager) setCooldown(f *dfs.File, reason CooldownReason) {
	if f.Deleted() {
		return
	}
	if !m.cooling.Has(f.ID()) {
		m.cooldownCount.Add(1)
	}
	m.cooling.Update(f, 0, m.ctx.Clock.Now().Add(failureCooldown))
	m.cooldowns[reason].Add(1)
	m.ctx.index.park(f.ID())
}

// releaseExpired drops every cooldown that has run out (strictly: now is
// after its until), in ascending (until, id) order, and returns the files to
// selection order. The candidate heaps call it at the start of every
// selection.
func (m *Manager) releaseExpired() {
	for len(m.cooling.items) > 0 && m.cooling.items[0].T < timeKey(m.ctx.Clock.Now()) {
		id := m.cooling.items[0].ID
		m.cooling.Remove(id)
		m.cooldownCount.Add(-1)
		if !m.busy[id] {
			m.ctx.index.unpark(id)
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
// registered first, has already recorded the file in the tracker and the
// candidate index by the time the policies hear about it.
func (m *Manager) FileCreated(f *dfs.File) {
	if m.down != nil {
		m.down.OnFileCreated(f)
	}
	if m.up != nil {
		m.up.OnFileCreated(f)
	}
}

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
	if m.cooling.Has(f.ID()) {
		m.cooling.Remove(f.ID())
		m.cooldownCount.Add(-1)
	}
	if m.down != nil {
		m.down.OnFileDeleted(f)
	}
	if m.up != nil {
		m.up.OnFileDeleted(f)
	}
}

// FileTierChanged implements dfs.Listener. Residency flips feed the
// context's candidate index (and, through it, subscribed policies); the
// manager itself reacts to tier pressure via TierDataAdded.
func (m *Manager) FileTierChanged(*dfs.File, storage.Media, bool) {}

// TierDataAdded implements dfs.Listener; data arriving on a tier is the
// trigger for the downgrade process (Algorithm 1 "invoked every time some
// data is added to a storage tier").
func (m *Manager) TierDataAdded(tier storage.Media) {
	m.runDowngrade(tier, "tier-data-added")
}

// --- Algorithm 1: downgrade process ---

func (m *Manager) runDowngrade(tier storage.Media, trigger string) {
	if m.down == nil {
		return
	}
	if !m.down.StartDowngrade(tier) {
		return
	}
	for i := 0; i < maxProcessIterations; i++ {
		f := m.down.SelectFile(tier)
		if f == nil {
			return
		}
		to, del := m.down.SelectTargetTier(f, tier)
		if del {
			m.deleteReplicas(f, tier)
		} else {
			m.scheduleDowngrade(f, tier, to, trigger)
		}
		if m.down.StopDowngrade(tier) {
			return
		}
	}
}

func (m *Manager) deleteReplicas(f *dfs.File, tier storage.Media) {
	if err := m.ctx.FS.DeleteFileReplicas(f, tier); err != nil {
		m.metrics.DowngradeErrors++
		m.setCooldown(f, CooldownDeleteFailed)
		return
	}
	m.metrics.ReplicaDeletes++
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
	for i := 0; i < maxProcessIterations; i++ {
		f := m.up.SelectFile()
		if f == nil {
			return
		}
		m.tryUpgrade(f, trigger)
		if m.up.StopUpgrade() {
			return
		}
	}
}

func (m *Manager) tryUpgrade(f *dfs.File, trigger string) {
	if f.Deleted() || m.busy[f.ID()] || m.inCooldown(f) || !m.ctx.FS.Complete(f) {
		return
	}
	from, ok := f.HighestTier()
	if !ok {
		return
	}
	to, ok := m.up.SelectTargetTier(f, from)
	if !ok || !to.Higher(from) {
		return
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
}
