package experiments

import (
	"octostore/internal/dfs"
	"octostore/internal/eval"
	"octostore/internal/storage"
)

// upgradeSystems is the Figure 12 / Table 4 comparison set: initial
// placement pinned to the HDD tier, upgrades alone decide what moves up
// (Section 7.4).
func upgradeSystems() []System {
	systems := []System{{Name: "HDFS", Mode: dfs.ModeHDFS}}
	for _, p := range []struct{ name, acronym string }{
		{"OSA", "osa"}, {"LRFU", "lrfu"}, {"EXD", "exd"}, {"XGB", "xgb"},
	} {
		systems = append(systems, System{Name: p.name, Mode: dfs.ModePinnedHDD, Up: p.acronym})
	}
	return systems
}

// Fig12UpgradeCompletion regenerates Figure 12: percent reduction in
// completion time over HDFS for the upgrade policies in isolation (FB).
func Fig12UpgradeCompletion(o Options) ([]*eval.Table, error) {
	runs, err := comparison(o, "upgrade")
	if err != nil {
		return nil, err
	}
	return []*eval.Table{reductionTable("fig12",
		"Upgrade policies: percent reduction in completion time over HDFS (FB)",
		"Policy", runs, completionSecs)}, nil
}

// Table4UpgradeStats regenerates Table 4: per upgrade policy, the GB read
// from memory, the GB upgraded to memory, Byte Accuracy (read/upgraded)
// and Byte Coverage (memory reads / all reads).
func Table4UpgradeStats(o Options) ([]*eval.Table, error) {
	runs, err := comparison(o, "upgrade")
	if err != nil {
		return nil, err
	}
	t := &eval.Table{
		ID:     "table4",
		Title:  "Upgrade policy statistics (FB)",
		Header: []string{"Policy", "GB Read from MEM", "GB Upgraded to MEM", "Byte Accuracy", "Byte Coverage"},
	}
	for _, run := range runs[1:] {
		_, _, _, _, bytes, memBytes := run.stats.Totals()
		upgraded := run.stats.FSFinal.BytesUpgradedTo[storage.Memory] -
			run.stats.FSBaseline.BytesUpgradedTo[storage.Memory]
		t.AddRow(text(run.system.Name),
			gb(memBytes),
			gb(upgraded),
			eval.F2(eval.ByteAccuracy(memBytes, upgraded)),
			eval.F2(eval.ByteCoverage(memBytes, bytes)))
	}
	return []*eval.Table{t}, nil
}
