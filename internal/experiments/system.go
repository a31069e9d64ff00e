package experiments

import (
	"fmt"

	"octostore/internal/cluster"
	"octostore/internal/dfs"
	"octostore/internal/eval"
	"octostore/internal/jobs"
	"octostore/internal/scenario"
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

// runSystem executes a trace on a freshly built system and returns the
// collected statistics.
func runSystem(sys System, tr *workload.Trace, ccfg cluster.Config, opts jobs.Options) (*jobs.RunStats, error) {
	rp, err := scenario.Build(sys, ccfg, opts.Seed)
	if err != nil {
		return nil, err
	}
	if rp.Manager != nil {
		defer rp.Manager.Stop()
	}
	stats, err := jobs.Run(rp.FS, tr, opts, nil)
	if err != nil {
		return nil, fmt.Errorf("system %s: %w", sys.Name, err)
	}
	return stats, nil
}

// endToEndRun is one (workload, system) execution.
type endToEndRun struct {
	system System
	stats  *jobs.RunStats
}

type memoKey struct {
	workers int
	seed    int64
	fast    bool
	set     string
}

var memo = map[memoKey][]endToEndRun{}

// comparison runs one named comparison set: "fb" and "cmu" are the
// end-to-end systems on that workload (Figures 6-9, Table 3), "downgrade"
// and "upgrade" the policy-isolation sets on FB (Figures 10-12, Table 4).
// Runs are memoised per (options, set) because several figures share each
// set. Each system is an isolated deterministic simulation over the shared
// read-only trace, so the cells fan out across Options.Parallel workers
// with byte-identical results.
func comparison(o Options, set string) ([]endToEndRun, error) {
	o.applyDefaults()
	key := memoKey{workers: o.Workers, seed: o.Seed, fast: o.Fast, set: set}
	if runs, ok := memo[key]; ok {
		return runs, nil
	}
	wl, systems := set, endToEndSystems()
	switch set {
	case "downgrade":
		wl, systems = "fb", downgradeSystems()
	case "upgrade":
		wl, systems = "fb", upgradeSystems()
	}
	p, err := o.profile(wl)
	if err != nil {
		return nil, err
	}
	tr := workload.Generate(p, o.Seed)
	runs := make([]endToEndRun, len(systems))
	err = runCells(o.parallelism(), len(systems), func(i int) error {
		stats, err := runSystem(systems[i], tr, o.clusterConfig(), jobs.Options{Seed: o.Seed})
		runs[i] = endToEndRun{system: systems[i], stats: stats}
		return err
	})
	if err != nil {
		return nil, err
	}
	memo[key] = runs
	return runs, nil
}

// eachWorkload builds one table per workload from that workload's
// end-to-end comparison set.
func eachWorkload(o Options, table func(wl string, runs []endToEndRun) *eval.Table) ([]*eval.Table, error) {
	var tables []*eval.Table
	for _, wl := range []string{"fb", "cmu"} {
		runs, err := comparison(o, wl)
		if err != nil {
			return nil, err
		}
		tables = append(tables, table(wl, runs))
	}
	return tables, nil
}

// binMetric is a per-bin measure of a run that lower is better for.
type binMetric func(*jobs.RunStats) [workload.NumBins]float64

// completionSecs is the mean job completion time per bin, in seconds.
func completionSecs(s *jobs.RunStats) (out [workload.NumBins]float64) {
	for b, d := range s.MeanCompletionByBin() {
		out[b] = d.Seconds()
	}
	return out
}

// taskSecs is the task-seconds consumed per bin: the inverse of cluster
// efficiency.
func taskSecs(s *jobs.RunStats) [workload.NumBins]float64 { return s.TaskSecondsByBin() }

// binTable is an empty table with one column per job bin after label.
func binTable(id, title, label string) *eval.Table {
	t := &eval.Table{ID: id, Title: title, Header: []string{label}}
	for b := workload.Bin(0); b < workload.NumBins; b++ {
		t.Header = append(t.Header, "Bin "+b.String())
	}
	return t
}

// reductionRow is a per-bin "reduction over the baseline" row: label, then
// for each bin the fraction by which run's metric is below base's.
func reductionRow(label any, base, run *jobs.RunStats, metric binMetric) []eval.Cell {
	b, r := metric(base), metric(run)
	row := []eval.Cell{text(label)}
	for i := range b {
		row = append(row, eval.Pct(eval.Reduction(b[i], r[i])))
	}
	return row
}

// reductionTable tabulates a comparison set against its first system, the
// baseline: one reductionRow per other system.
func reductionTable(id, title, label string, runs []endToEndRun, metric binMetric) *eval.Table {
	t := binTable(id, title, label)
	for _, run := range runs[1:] {
		t.AddRow(reductionRow(run.system.Name, runs[0].stats, run.stats, metric)...)
	}
	return t
}
