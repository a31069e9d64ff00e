package core

import (
	"octostore/internal/dfs"
	"octostore/internal/storage"
)

// DowngradePolicy plugs into the Replication Manager's downgrade process
// (Algorithm 1). The four methods map one-to-one onto the decision points
// of Section 3.2.
type DowngradePolicy interface {
	// Name identifies the policy in experiment output (Table 1 acronyms).
	Name() string
	// StartDowngrade reports whether the downgrade process should begin for
	// the tier (decision point 1).
	StartDowngrade(tier storage.Media) bool
	// SelectFile picks the next file to downgrade from the tier (decision
	// point 2), or nil when no candidate remains.
	SelectFile(tier storage.Media) *dfs.File
	// SelectTargetTier picks where the file's replica goes (decision point
	// 3). delete=true means the replica is dropped instead of moved.
	SelectTargetTier(f *dfs.File, from storage.Media) (to storage.Media, del bool)
	// StopDowngrade reports whether the process should stop (decision
	// point 4).
	StopDowngrade(tier storage.Media) bool

	FileCallbacks
}

// UpgradePolicy plugs into the upgrade process (Algorithm 2). accessed is
// the file whose access triggered the invocation, or nil for a periodic
// proactive invocation (Section 6.1).
type UpgradePolicy interface {
	// Name identifies the policy (Table 2 acronyms).
	Name() string
	// StartUpgrade reports whether the upgrade process should begin.
	StartUpgrade(accessed *dfs.File) bool
	// SelectFile picks the next file to upgrade, or nil to finish. The
	// first call receives the triggering file through StartUpgrade; most
	// policies return that file once (Section 6.2).
	SelectFile() *dfs.File
	// SelectTargetTier picks the destination tier for the file currently
	// residing no higher than `from`.
	SelectTargetTier(f *dfs.File, from storage.Media) (to storage.Media, ok bool)
	// StopUpgrade reports whether the process should stop.
	StopUpgrade() bool

	FileCallbacks
}

// FileCallbacks are the notification hooks every policy receives (Section
// 3.3 lists callbacks for file creation, access, modification and deletion;
// only the access hook has a user, XGB's guaranteed-positive sample).
type FileCallbacks interface {
	OnFileAccessed(f *dfs.File)
}

// Ticker is an optional extension for policies needing periodic work (the
// XGB policies sample training data and make proactive decisions on ticks).
type Ticker interface {
	Tick()
}

// NopCallbacks can be embedded by policies that ignore notifications.
type NopCallbacks struct{}

// OnFileAccessed implements FileCallbacks.
func (NopCallbacks) OnFileAccessed(*dfs.File) {}
