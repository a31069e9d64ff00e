package experiments

import (
	"octostore/internal/dfs"
	"octostore/internal/eval"
	"octostore/internal/jobs"
	"octostore/internal/workload"
)

// TierAwareScheduling is an extension experiment beyond the paper: its
// evaluation ends by observing that "current schedulers do not account for
// the presence of multiple storage tiers" and that location-based hit
// ratios exceed access-based ones by 15-20% (Section 7.2), motivating
// tier-aware scheduling research. This experiment quantifies that headroom
// in our reproduction: the Octopus++/XGB system is run with increasing
// scheduler tier-affinity, from tier-blind (0) to fully tier-aware (1).
func TierAwareScheduling(o Options) ([]*eval.Table, error) {
	o.applyDefaults()
	p, err := o.profile("fb")
	if err != nil {
		return nil, err
	}
	tr := workload.Generate(p, o.Seed)
	t := &eval.Table{
		ID:     "tieraware",
		Title:  "Extension: scheduler tier-affinity headroom (Octopus++/XGB, FB)",
		Header: []string{"TierAffinity", "HR(access)", "BHR(access)", "HR(location)", "Mean completion (s)"},
	}
	xgb := System{Name: "XGB", Mode: dfs.ModeOctopus, Down: "xgb", Up: "xgb"}
	for _, affinity := range []float64{0.01, 0.30, 0.60, 1.00} {
		stats, err := runSystem(xgb, tr, o.clusterConfig(), jobs.Options{Seed: o.Seed, TierAffinity: affinity})
		if err != nil {
			return nil, err
		}
		reads, memReads, blocks, memLoc, bytes, memBytes := stats.Totals()
		var mean float64
		for i := range stats.Jobs {
			mean += stats.Jobs[i].CompletionTime().Seconds()
		}
		if len(stats.Jobs) > 0 {
			mean /= float64(len(stats.Jobs))
		}
		t.AddRow(
			eval.F2(affinity),
			eval.Pct(eval.HitRatio(memReads, reads)),
			eval.Pct(eval.ByteHitRatio(memBytes, bytes)),
			eval.Pct(eval.Ratio(float64(memLoc), float64(blocks))),
			num("%.1f", mean),
		)
	}
	return []*eval.Table{t}, nil
}
