// Package core implements the paper's primary contribution: a general
// framework for automatically managing storage tiers in a distributed file
// system (Section 3). It provides
//
//   - the Replication Manager, which orchestrates replication downgrades and
//     upgrades (Definitions 1 and 2) through pluggable policies built around
//     the four decision points of Section 3.2 (when to start, which file,
//     how, when to stop), running Algorithms 1 and 2;
//   - the Replication Monitor, which executes the resulting data-movement
//     requests asynchronously with bounded concurrency and repairs
//     under-replicated files; and
//   - the shared per-file statistics (via ml.Tracker) and tier-usage
//     accounting that policies consult to make informed decisions.
//
// Attaching a Manager to a dfs.FileSystem in ModeOctopus yields the system
// the paper calls Octopus++.
package core

import (
	"time"

	"octostore/internal/storage"
)

// Config carries the framework parameters (Section 5.1, 5.4, 6.1, 6.4).
// Callers start from DefaultConfig and change what they need.
type Config struct {
	// HighWatermark starts the downgrade process for a tier when its used
	// capacity exceeds this fraction (paper: 90%).
	HighWatermark float64
	// LowWatermark stops the downgrade process when the tier's effective
	// used capacity drops below this fraction (paper: 85%).
	LowWatermark float64
	// UpgradeBatchLimit caps the total bytes of upgrades scheduled by one
	// invocation of the XGB upgrade process (paper: 1 GB).
	UpgradeBatchLimit int64
	// CandidateK bounds how many files an XGB policy scores per decision
	// (paper: k=200).
	CandidateK int
	// PeriodicInterval is how often the manager wakes up for proactive
	// upgrade checks and model sampling.
	PeriodicInterval time.Duration
	// DowngradeWindow is the class window of the downgrade model ("which
	// files have become cold"). The paper's example value is 6 hours for
	// production-length traces; the default here is scaled down so that
	// sliding the reference time one window into the past still yields
	// training data within a six-hour replay.
	DowngradeWindow time.Duration
	// MonitorConcurrency bounds simultaneous background file movements.
	MonitorConcurrency int
	// MoveLatency models the command path of a movement request (manager →
	// monitor → worker heartbeat): transfers begin this long after being
	// scheduled, so an upgrade does not serve the very access that
	// triggered it (Section 6: the move is piggybacked on the subsequent
	// read or performed asynchronously).
	MoveLatency time.Duration
}

// DefaultConfig returns the paper's parameter values.
func DefaultConfig() Config {
	return Config{
		HighWatermark:      0.90,
		LowWatermark:       0.85,
		UpgradeBatchLimit:  1 * storage.GB,
		CandidateK:         200,
		PeriodicInterval:   time.Minute,
		DowngradeWindow:    90 * time.Minute,
		MonitorConcurrency: 4,
		MoveLatency:        5 * time.Second,
	}
}
