package server_test

import (
	"time"

	"octostore/internal/backend"
	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/gbt"
	"octostore/internal/ml"
	"octostore/internal/policy"
	"octostore/internal/server"
	"octostore/internal/storage"
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

// The policy and core surface bench/ builds its systems from and decorates:
// the four constructors, the XGB policies' model pipeline, and the policy
// interfaces as embeddable fields of a wrapper that forwards Tick.
var (
	_ func(*core.Context) *policy.LRU                       = policy.NewLRU
	_ func(*core.Context) *policy.OSA                       = policy.NewOSA
	_ func(*core.Context, ml.LearnerConfig) *policy.XGBDown = policy.NewXGBDown
	_ func(*core.Context, ml.LearnerConfig) *policy.XGBUp   = policy.NewXGBUp
	_ func(*dfs.FileSystem, core.Config) *core.Context      = core.NewContext
	_ func() core.Config                                    = core.DefaultConfig

	_ func(*core.Context, core.DowngradePolicy, core.UpgradePolicy) *core.Manager = core.NewManager

	_ core.DowngradePolicy = struct{ core.DowngradePolicy }{}
	_ core.UpgradePolicy   = struct{ core.UpgradePolicy }{}
	_ core.Ticker          = (*policy.XGBDown)(nil)
	_ core.Ticker          = (*policy.XGBUp)(nil)

	_ func() *core.CandidateIndex   = (*core.Context)(nil).Index
	_ func() bool                   = (*core.CandidateIndex)(nil).HasRecency
	_ func(storage.Media) *dfs.File = (*core.CandidateIndex)(nil).SelectLRU
	_ func() error                  = (*core.CandidateIndex)(nil).Audit
	_ func() core.Metrics           = (*core.Manager)(nil).Metrics
	_                               = core.Metrics{DowngradesScheduled: 1, UpgradesScheduled: 1, ReplicaDeletes: 1, DowngradeErrors: 1, UpgradeErrors: 1, Ticks: 1}
)

func _(down *policy.XGBDown, up *policy.XGBUp) [2]*ml.Learner {
	return [2]*ml.Learner{down.Pipeline().Learner, up.Pipeline().Learner}
}

// The learner surface: the configuration fields bench/tracexgb.go sets and
// the counters it reads off the two pipelines' learners, and the gbt calls
// bench/probes.go times (train, predict one row, update on a batch).
var (
	_ func() ml.LearnerConfig = ml.DefaultLearnerConfig
	_                         = ml.LearnerConfig{Seed: 1, Params: gbt.Params{MaxTrees: 1}, MinTrainSamples: 1, UpdateBatch: 1, UpdateRounds: 1}
	_ func() time.Duration    = (*ml.Learner)(nil).TrainTime
	_ func() int64            = (*ml.Learner)(nil).Updates
	_ func() int64            = (*ml.Learner)(nil).SamplesSeen

	_ func(cols int) *gbt.Matrix                                   = gbt.NewMatrix
	_ func(row []float64)                                          = (*gbt.Matrix)(nil).AppendRow
	_ func(i int) []float64                                        = (*gbt.Matrix)(nil).Row
	_ float64                                                      = gbt.Missing
	_ func() gbt.Params                                            = gbt.PaperParams
	_ func(*gbt.Matrix, []float64, gbt.Params) (*gbt.Model, error) = gbt.Train
	_ func(x []float64) float64                                    = (*gbt.Model)(nil).Predict
	_ func(x *gbt.Matrix, y []float64, rounds int) error           = (*gbt.Model)(nil).Update
)
