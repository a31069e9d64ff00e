package server_test

import (
	"time"

	"octostore/internal/backend"
	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/server"
)

// The repository's benchmark (bench/, BENCHMARK.json) is its own module, so
// the root `go test ./...` never compiles it: renaming anything it uses here
// would break it silently until the CI `cd bench` step. This file pins that
// surface at compile time inside tier-1 — every name and signature below is
// used by bench/ and is frozen.

var _ interface {
	Start()
	Close()
	Flush()
	Clock() time.Time
	CreateAt(path string, size int64, at time.Time) <-chan error
	DeleteAt(path string, at time.Time) <-chan error
	AccessAt(path string, at time.Time) (server.AccessResult, error)
	Stat(path string) (server.FileInfo, error)
	Stats() server.ServeStats
	ShardStats() []server.ServeStats
	ExecutorStats() server.ExecutorStats
	QuotaStats() server.QuotaStats
	Exec(fn func(shard int, fs *dfs.FileSystem))
	Verify() []string
	TierResidency() map[string][3]bool
} = (*server.ShardedServer)(nil)

var (
	_ func(server.ShardedConfig) (*server.ShardedServer, error) = server.NewSharded
	_ func(dir string, shards int) int                          = server.RouteShard

	_ = server.ShardedConfig{
		Shards:  2,
		Cluster: cluster.Config{},
		DFS:     dfs.Config{},
		Build:   func(int, *dfs.FileSystem) (*core.Manager, error) { return nil, nil },
		Backend: (func(shard int) backend.Backend)(nil),
		Inner: server.Config{
			TimeScale: 1,
			Executor:  server.ExecutorConfig{QueueDepth: 1},
		},
	}
	_ = server.ServeStats{Accesses: 1, Creates: 1, Deletes: 1, Stats: 1, EventsDrained: 1, EventsDropped: 1, DrainBatches: 1}
	_ = server.AccessResult{Served: true, Latency: time.Nanosecond}.Tier
	_ = server.FileInfo{Path: "/", Size: 1}.Residency
	_ = server.ExecutorStats{PerTier: [3]server.TierMoveStats{{Scheduled: 1, Completed: 1, Failed: 1, Shed: 1}}}
	_ = server.QuotaStats{Borrows: 1, BorrowFailures: 1}
)
