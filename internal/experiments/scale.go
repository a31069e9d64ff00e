package experiments

import (
	"octostore/internal/cluster"
	"octostore/internal/dfs"
	"octostore/internal/eval"
	"octostore/internal/jobs"
	"octostore/internal/workload"
)

// Fig13Scalability regenerates Figure 13: completion-time reduction and
// efficiency improvement of the XGB policies over HDFS as the cluster
// scales (the paper: 11 to 88 EC2 workers with proportionally scaled
// workloads).
func Fig13Scalability(o Options) ([]*eval.Table, error) {
	o.applyDefaults()
	scales := []int{1, 2, 4, 8}
	if o.Fast {
		scales = []int{1, 2}
	}
	tCompletion := binTable("fig13a",
		"XGB vs HDFS: percent reduction in completion time by cluster size (FB)", "Workers")
	tEfficiency := binTable("fig13b",
		"XGB vs HDFS: percent improvement in cluster efficiency by cluster size (FB)", "Workers")
	// Each (scale, system) execution is an isolated simulation; the two
	// systems of a scale share that scale's pre-generated read-only trace.
	// Fan the grid out and assemble rows in scale order.
	type cell struct {
		ccfg cluster.Config
		tr   *workload.Trace
		sys  System
	}
	cells := make([]cell, 0, 2*len(scales))
	for _, scale := range scales {
		ccfg := o.clusterConfig()
		ccfg.Workers *= scale
		p, err := o.profile("fb")
		if err != nil {
			return nil, err
		}
		// Scale the workload with the cluster, as the paper does on EC2:
		// more jobs draw on a proportionally larger file population (the
		// per-bin distinct-file factors already tie files to job counts).
		p.NumJobs *= scale
		tr := workload.Generate(p, o.Seed)
		cells = append(cells,
			cell{ccfg: ccfg, tr: tr, sys: System{Name: "HDFS", Mode: dfs.ModeHDFS}},
			cell{ccfg: ccfg, tr: tr, sys: System{Name: "XGB", Mode: dfs.ModeOctopus, Down: "xgb", Up: "xgb"}})
	}
	stats := make([]*jobs.RunStats, len(cells))
	err := runCells(o.parallelism(), len(cells), func(i int) error {
		var err error
		stats[i], err = runSystem(cells[i].sys, cells[i].tr, cells[i].ccfg, jobs.Options{Seed: o.Seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(cells); i += 2 {
		workers := cells[i].ccfg.Workers
		tCompletion.AddRow(reductionRow(workers, stats[i], stats[i+1], completionSecs)...)
		tEfficiency.AddRow(reductionRow(workers, stats[i], stats[i+1], taskSecs)...)
	}
	return []*eval.Table{tCompletion, tEfficiency}, nil
}
