package experiments

import (
	"octostore/internal/dfs"
	"octostore/internal/eval"
)

// downgradeSystems is the Figure 10/11 comparison set: every Table 1
// policy with upgrades disabled, isolating the downgrade decision
// (Section 7.3).
func downgradeSystems() []System {
	systems := []System{{Name: "HDFS", Mode: dfs.ModeHDFS}, {Name: "OctopusFS", Mode: dfs.ModeOctopus}}
	for _, p := range []struct{ name, acronym string }{
		{"LRU", "lru"}, {"LFU", "lfu"}, {"LRFU", "lrfu"},
		{"LIFE", "life"}, {"LFU-F", "lfuf"}, {"EXD", "exd"}, {"XGB", "xgb"},
	} {
		systems = append(systems, System{Name: p.name, Mode: dfs.ModeOctopus, Down: p.acronym})
	}
	return systems
}

// Fig10DowngradeCompletion regenerates Figure 10: percent reduction in
// completion time over HDFS for all downgrade policies in isolation (FB).
func Fig10DowngradeCompletion(o Options) ([]*eval.Table, error) {
	runs, err := comparison(o, "downgrade")
	if err != nil {
		return nil, err
	}
	return []*eval.Table{reductionTable("fig10",
		"Downgrade policies: percent reduction in completion time over HDFS (FB)",
		"Policy", runs, completionSecs)}, nil
}

// Fig11DowngradeHitRatios regenerates Figure 11: memory-tier hit ratio and
// byte hit ratio for the downgrade policies (FB).
func Fig11DowngradeHitRatios(o Options) ([]*eval.Table, error) {
	runs, err := comparison(o, "downgrade")
	if err != nil {
		return nil, err
	}
	t := &eval.Table{
		ID:     "fig11",
		Title:  "Downgrade policies: Hit Ratio and Byte Hit Ratio (FB, memory accesses)",
		Header: []string{"Policy", "Hit Ratio", "Byte Hit Ratio"},
	}
	for _, run := range runs[1:] {
		reads, memReads, _, _, bytes, memBytes := run.stats.Totals()
		t.AddRow(text(run.system.Name),
			eval.Pct(eval.HitRatio(memReads, reads)),
			eval.Pct(eval.ByteHitRatio(memBytes, bytes)))
	}
	return []*eval.Table{t}, nil
}
