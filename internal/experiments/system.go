package experiments

import (
	"fmt"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/jobs"
	"octostore/internal/policy"
	"octostore/internal/scenario"
	"octostore/internal/sim"
	"octostore/internal/workload"
)

// System names one of the compared configurations: a dfs mode plus a
// downgrade/upgrade policy pair ("" disables that side).
type System = scenario.System

// The configurations compared in the end-to-end evaluation (Section 7.2).
func endToEndSystems() []System {
	return []System{
		{Name: "HDFS", Mode: dfs.ModeHDFS},
		{Name: "OctopusFS", Mode: dfs.ModeOctopus},
		{Name: "LRU-OSA", Mode: dfs.ModeOctopus, Down: "lru", Up: "osa"},
		{Name: "LRFU", Mode: dfs.ModeOctopus, Down: "lrfu", Up: "lrfu"},
		{Name: "EXD", Mode: dfs.ModeOctopus, Down: "exd", Up: "exd"},
		{Name: "XGB", Mode: dfs.ModeOctopus, Down: "xgb", Up: "xgb"},
	}
}

// runArtifacts exposes the live components of a finished run for metric
// extraction.
type runArtifacts struct {
	fs      *dfs.FileSystem
	manager *core.Manager
	stats   *jobs.RunStats
}

// runSystem executes a trace on a freshly built system and returns the
// collected statistics.
func runSystem(sys System, tr *workload.Trace, ccfg cluster.Config, seed int64) (*runArtifacts, error) {
	engine := sim.NewEngine()
	cl, err := cluster.New(engine, ccfg)
	if err != nil {
		return nil, err
	}
	fs, err := dfs.New(cl, dfs.Config{Mode: sys.Mode, Seed: seed, ClientRate: 2000e6})
	if err != nil {
		return nil, err
	}
	art := &runArtifacts{fs: fs}
	if sys.Managed() {
		if art.manager, err = policy.NewManager(fs, sys.Down, sys.Up, scenario.LearnerConfig(seed)); err != nil {
			return nil, err
		}
		art.manager.Start()
	}
	stats, err := jobs.Run(fs, tr, jobs.Options{Seed: seed}, nil)
	if err != nil {
		return nil, fmt.Errorf("system %s: %w", sys.Name, err)
	}
	if art.manager != nil {
		art.manager.Stop()
	}
	art.stats = stats
	return art, nil
}

// endToEndRun is one (workload, system) execution.
type endToEndRun struct {
	system System
	stats  *jobs.RunStats
	arts   *runArtifacts
}

// runEndToEnd executes all end-to-end systems over a workload. Results are
// memoised per (options, workload) because Figures 6-9 share the same runs.
// Each system is an isolated deterministic simulation over the shared
// read-only trace, so the cells fan out across Options.Parallel workers
// with byte-identical results.
func runEndToEnd(o Options, workloadName string, systems []System) ([]endToEndRun, error) {
	o.applyDefaults()
	p, err := o.profile(workloadName)
	if err != nil {
		return nil, err
	}
	tr := workload.Generate(p, o.Seed)
	runs := make([]endToEndRun, len(systems))
	err = runCells(o.parallelism(), len(systems), func(i int) error {
		arts, err := runSystem(systems[i], tr, o.clusterConfig(), o.Seed)
		if err != nil {
			return err
		}
		runs[i] = endToEndRun{system: systems[i], stats: arts.stats, arts: arts}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

type memoKey struct {
	workers int
	seed    int64
	fast    bool
	name    string
}

var endToEndMemo = map[memoKey][]endToEndRun{}

// endToEndCached memoises the shared Figure 6-9 run set.
func endToEndCached(o Options, workloadName string) ([]endToEndRun, error) {
	o.applyDefaults()
	key := memoKey{workers: o.Workers, seed: o.Seed, fast: o.Fast, name: workloadName}
	if runs, ok := endToEndMemo[key]; ok {
		return runs, nil
	}
	runs, err := runEndToEnd(o, workloadName, endToEndSystems())
	if err != nil {
		return nil, err
	}
	endToEndMemo[key] = runs
	return runs, nil
}
