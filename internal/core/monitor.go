package core

import (
	"time"

	"octostore/internal/dfs"
	"octostore/internal/storage"
)

// MoveRequest asks the monitor to relocate a file's replicas between tiers.
type MoveRequest struct {
	File *dfs.File
	From storage.Media
	To   storage.Media
	// Done fires when the move commits or fails (never nil after Enqueue).
	Done func(error)

	// Provenance: which policy decided this move, what triggered the
	// decision, and the file's tracker stats at decision time. Inert in the
	// core (the monitor ignores them); the serving layer's executor exports
	// them as movement-provenance records so "why did this file move" is
	// answerable post-hoc.
	Policy      string
	Trigger     string
	AccessCount int64
	LastAccess  time.Time
}

// Monitor is the Replication Monitor (Section 3.3): it executes data
// movement requests from the Replication Manager asynchronously with
// bounded concurrency, and repairs under-replicated files it finds while
// monitoring the system. Its transfers run through the file system's
// movement mechanics, so with a storage.DataPlane attached every move and
// repair draws bandwidth from the shared per-physical-device channels —
// the monitor contends with the serve path and with other shards' movers
// exactly like the serving layer's MovementExecutor does.
type Monitor struct {
	fs            *dfs.FileSystem
	maxConcurrent int
	latency       time.Duration
	queue         []MoveRequest
	active        int

	movesDone   int64
	movesFailed int64
	repairs     int64
}

// NewMonitor builds a monitor over the file system. latency delays the
// start of each transfer, modelling the request's path through worker
// heartbeats; it ensures an upgrade never serves the access that triggered
// it.
func NewMonitor(fs *dfs.FileSystem, maxConcurrent int, latency time.Duration) *Monitor {
	if maxConcurrent <= 0 {
		maxConcurrent = 1
	}
	if latency < 0 {
		latency = 0
	}
	return &Monitor{fs: fs, maxConcurrent: maxConcurrent, latency: latency}
}

// QueueLen returns the number of requests waiting for a slot.
func (mo *Monitor) QueueLen() int { return len(mo.queue) }

// Active returns the number of in-flight moves.
func (mo *Monitor) Active() int { return mo.active }

// MovesDone returns the count of successfully committed moves.
func (mo *Monitor) MovesDone() int64 { return mo.movesDone }

// MovesFailed returns the count of failed move attempts: refused at the
// start, or finished without committing (a node left mid-transfer).
func (mo *Monitor) MovesFailed() int64 { return mo.movesFailed }

// Repairs returns how many re-replications the monitor has initiated.
func (mo *Monitor) Repairs() int64 { return mo.repairs }

// Enqueue schedules a move request for execution.
func (mo *Monitor) Enqueue(r MoveRequest) {
	if r.Done == nil {
		r.Done = func(error) {}
	}
	mo.queue = append(mo.queue, r)
	mo.pump()
}

// Room implements Mover: the monitor's queue is unbounded, so it always has
// room and never owes anyone a wake.
func (mo *Monitor) Room(storage.Media) bool { return true }

// OnRoom implements Mover.
func (mo *Monitor) OnRoom(func(storage.Media)) {}

// pump starts queued requests while concurrency slots are available.
func (mo *Monitor) pump() {
	for mo.active < mo.maxConcurrent && len(mo.queue) > 0 {
		r := mo.queue[0]
		mo.queue = mo.queue[1:]
		mo.start(r)
	}
}

func (mo *Monitor) start(r MoveRequest) {
	mo.active++
	mo.fs.Engine().Schedule(mo.latency, func() {
		finish := func(err error) {
			mo.active--
			if err != nil {
				mo.movesFailed++
			} else {
				mo.movesDone++
			}
			r.Done(err)
			mo.pump()
		}
		if err := mo.fs.MoveFileReplicas(r.File, r.From, r.To, finish); err != nil {
			finish(err)
		}
	})
}

// CheckReplication scans for under-replicated files and re-replicates their
// missing copies, the monitor's "monitoring the overall system for any
// over- or under-replicated blocks" duty. The copy targets the lowest tier
// that some block is missing (durability, not performance). It returns the
// number of repairs initiated.
func (mo *Monitor) CheckReplication() int {
	started := 0
	for _, f := range mo.fs.UnderReplicatedFiles() {
		tier, ok := repairTier(f)
		if !ok {
			continue
		}
		if err := mo.fs.CopyFileReplicas(f, tier, nil); err != nil {
			continue
		}
		mo.repairs++
		started++
	}
	return started
}

// repairTier picks the lowest tier missing from at least one block of the
// file, so the repair copy actually adds a replica.
func repairTier(f *dfs.File) (storage.Media, bool) {
	for i := len(storage.AllMedia) - 1; i >= 0; i-- {
		tier := storage.AllMedia[i]
		for _, b := range f.Blocks() {
			if b.ReplicaOn(tier) == nil {
				return tier, true
			}
		}
	}
	return 0, false
}
