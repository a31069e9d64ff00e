package experiments

import (
	"fmt"

	"octostore/internal/dfs"
	"octostore/internal/eval"
	"octostore/internal/scenario"
)

// scenarioSystems are the configurations each scenario replays against: the
// static tiered baseline and the paper's learned policies.
func scenarioSystems() []scenario.System {
	return []scenario.System{
		{Name: "OctopusFS", Mode: dfs.ModeOctopus},
		{Name: "LRU-OSA", Mode: dfs.ModeOctopus, Down: "lru", Up: "osa"},
		{Name: "XGB", Mode: dfs.ModeOctopus, Down: "xgb", Up: "xgb"},
	}
}

// Scenarios replays the scenario catalog (or the single scenario named by
// Options.Scenario) against the compared systems with the invariant checker
// enabled, and reports throughput, completion time, policy activity, and
// the checker's verdict per replay. A non-zero violation count fails the
// experiment: a scenario result is only meaningful when every replayed
// event left the system consistent.
func Scenarios(o Options) ([]*eval.Table, error) {
	o.applyDefaults()
	catalog := scenario.Catalog()
	if o.Scenario != "" {
		sc, err := scenario.Get(o.Scenario)
		if err != nil {
			return nil, err
		}
		catalog = []scenario.Scenario{sc}
	}
	perf := &eval.Table{
		ID:    "scenarios",
		Title: "Scenario replays: workload metrics per system (invariant checker enabled)",
		Header: []string{"Scenario", "System", "Jobs", "Mean CT (min)", "P95 CT (min)",
			"Read (GB)", "MB/s", "Mem hit"},
	}
	activity := &eval.Table{
		ID:    "scenarios-activity",
		Title: "Scenario replays: policy decisions and invariant checks",
		Header: []string{"Scenario", "System", "Upgrades", "Downgrades", "Deletes",
			"Repairs", "Events", "Checks", "Violations", "Lost blocks"},
	}
	opts := o.replayOptions()
	// Each (scenario, system) replay is an isolated deterministic
	// simulation; fan the grid out and assemble rows in grid order so the
	// tables are identical at any parallelism level.
	systems := scenarioSystems()
	type cell struct {
		sc  scenario.Scenario
		sys scenario.System
	}
	var cells []cell
	for _, sc := range catalog {
		for _, sys := range systems {
			cells = append(cells, cell{sc: sc, sys: sys})
		}
	}
	results := make([]*scenario.Result, len(cells))
	err := runCells(o.parallelism(), len(cells), func(i int) error {
		res, err := scenario.Run(cells[i].sc, cells[i].sys, opts)
		if err != nil {
			return fmt.Errorf("scenarios: %w", err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		sc, sys := cells[i].sc, cells[i].sys
		if len(res.Violations) > 0 {
			return nil, fmt.Errorf("scenarios: %s on %s violated invariants: %v",
				sc.Name, sys.Name, res.Violations)
		}
		perf.AddRow(text(sc.Name), text(sys.Name), text(res.Jobs),
			minutes(res.MeanCompletion),
			minutes(res.P95Completion),
			gb(res.BytesRead),
			num("%.1f", res.ThroughputMBps),
			eval.Pct(res.MemHitRatio))
		activity.AddRow(text(sc.Name), text(sys.Name),
			text(res.Upgrades), text(res.Downgrades), text(res.ReplicaDeletes), text(res.Repairs),
			text(res.Events), text(res.AccountingChecks+res.DeepChecks),
			text(len(res.Violations)), text(res.DataLossBlocks))
	}
	return []*eval.Table{perf, activity}, nil
}
