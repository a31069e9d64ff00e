package policy

// Test helpers for making files ineligible through the manager's own path
// and nothing else: a downgrade policy that selects exactly the files a test
// queued (the manager marks them busy) and a mover that keeps every request
// pending until the test settles it (failed: the file cools down; clean: it
// returns to selection). Exported so the policy_test differentials and the
// in-package benchmarks share them.

import (
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/storage"
)

// Designator is a core.DowngradePolicy that selects the queued files, in
// order, whenever the manager runs the downgrade process on their tier.
type Designator struct {
	core.NopCallbacks
	Queue [3][]*dfs.File
}

func (d *Designator) Name() string                        { return "designator" }
func (d *Designator) StartDowngrade(m storage.Media) bool { return len(d.Queue[m]) > 0 }
func (d *Designator) StopDowngrade(m storage.Media) bool  { return len(d.Queue[m]) == 0 }
func (d *Designator) SelectFile(m storage.Media) *dfs.File {
	f := d.Queue[m][0]
	d.Queue[m] = d.Queue[m][1:]
	return f
}

// SelectTargetTier names a tier only for the record: HeldMover never moves.
func (d *Designator) SelectTargetTier(*dfs.File, storage.Media) (storage.Media, bool) {
	return storage.SSD, false
}

// HeldMover is a core.Mover that always has room and keeps every request
// pending, so a file stays busy until the test says how its move ended.
type HeldMover struct{ Held []core.MoveRequest }

// Enqueue implements core.Mover.
func (mv *HeldMover) Enqueue(r core.MoveRequest) { mv.Held = append(mv.Held, r) }

// Room implements core.Mover.
func (mv *HeldMover) Room(storage.Media) bool { return true }

// OnRoom implements core.Mover.
func (mv *HeldMover) OnRoom(func(storage.Media)) {}

// Settle reports the oldest n held requests done with err.
func (mv *HeldMover) Settle(n int, err error) {
	for ; n > 0 && len(mv.Held) > 0; n-- {
		r := mv.Held[0]
		mv.Held = mv.Held[1:]
		r.Done(err)
	}
}
