package experiments

import (
	"octostore/internal/eval"
	"octostore/internal/storage"
	"octostore/internal/workload"
)

// Fig6CompletionTime regenerates Figure 6: percent reduction in average
// job completion time over HDFS, per bin, for each system, on both
// workloads.
func Fig6CompletionTime(o Options) ([]*eval.Table, error) {
	return eachWorkload(o, func(wl string, runs []endToEndRun) *eval.Table {
		return reductionTable("fig6-"+wl, "Percent reduction in completion time over HDFS ("+wl+")",
			"System", runs, completionSecs)
	})
}

// Fig7Efficiency regenerates Figure 7: percent improvement in cluster
// efficiency (reduction of consumed task-seconds) over HDFS per bin.
func Fig7Efficiency(o Options) ([]*eval.Table, error) {
	return eachWorkload(o, func(wl string, runs []endToEndRun) *eval.Table {
		return reductionTable("fig7-"+wl, "Percent improvement in cluster efficiency over HDFS ("+wl+")",
			"System", runs, taskSecs)
	})
}

// Fig8TierAccess regenerates Figure 8: the distribution of block reads
// across storage tiers per bin for every system.
func Fig8TierAccess(o Options) ([]*eval.Table, error) {
	return eachWorkload(o, func(wl string, runs []endToEndRun) *eval.Table {
		t := &eval.Table{
			ID:     "fig8-" + wl,
			Title:  "Storage tier access distribution (" + wl + ")",
			Header: []string{"System", "Bin", "MEM", "SSD", "HDD"},
		}
		for _, run := range runs {
			reads := run.stats.ReadsByBinMedia()
			for b := workload.Bin(0); b < workload.NumBins; b++ {
				total := float64(reads[b][0] + reads[b][1] + reads[b][2])
				if total == 0 {
					continue
				}
				t.AddRow(text(run.system.Name), text(b),
					eval.Pct(float64(reads[b][storage.Memory])/total),
					eval.Pct(float64(reads[b][storage.SSD])/total),
					eval.Pct(float64(reads[b][storage.HDD])/total))
			}
		}
		return t
	})
}

// Fig9HitRatios regenerates Figure 9: hit ratio and byte hit ratio for the
// memory tier, computed both from the tier that actually served each read
// (accesses) and from whether a memory replica existed at read time
// (locations), FB workload.
func Fig9HitRatios(o Options) ([]*eval.Table, error) {
	runs, err := comparison(o, "fb")
	if err != nil {
		return nil, err
	}
	t := &eval.Table{
		ID:     "fig9",
		Title:  "Memory-tier Hit Ratio / Byte Hit Ratio, by accesses and by locations (FB)",
		Header: []string{"System", "HR(access)", "BHR(access)", "HR(location)", "BHR(location)"},
	}
	for _, run := range runs[1:] { // skip the HDFS baseline: no memory tier use
		reads, memReads, blocks, memLoc, bytes, memBytes := run.stats.Totals()
		t.AddRow(text(run.system.Name),
			eval.Pct(eval.HitRatio(memReads, reads)),
			eval.Pct(eval.ByteHitRatio(memBytes, bytes)),
			eval.Pct(eval.Ratio(float64(memLoc), float64(blocks))),
			eval.Pct(eval.ByteHitRatio(run.stats.LocationBytes(), bytes)))
	}
	return []*eval.Table{t}, nil
}
