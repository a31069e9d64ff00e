// Policycompare runs the same generated Facebook-style workload under four
// tiering configurations — static OctopusFS placement, LRU+OSA, EXD, and
// the paper's XGB policies — and prints completion-time and efficiency
// comparisons against the plain-HDFS baseline (the Figure 6/7 methodology
// at example scale).
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/dfs"
	"octostore/internal/eval"
	"octostore/internal/jobs"
	"octostore/internal/ml"
	"octostore/internal/policy"
	"octostore/internal/sim"
	"octostore/internal/storage"
	"octostore/internal/workload"
)

type system struct {
	name string
	mode dfs.Mode
	down string
	up   string
}

func main() {
	p := workload.FB()
	p.NumJobs = 250
	p.Duration = 2 * time.Hour
	// Keep jobs within bin D so the example cluster stays small.
	p.BinFractions = [workload.NumBins]float64{0.70, 0.20, 0.05, 0.05, 0, 0}
	trace := workload.Generate(p, 7)
	fmt.Printf("workload: %d jobs, %d files, %.1f GB input\n\n",
		len(trace.Jobs), len(trace.Files), float64(trace.TotalInputBytes())/float64(storage.GB))

	systems := []system{
		{name: "HDFS", mode: dfs.ModeHDFS},
		{name: "OctopusFS", mode: dfs.ModeOctopus},
		{name: "LRU-OSA", mode: dfs.ModeOctopus, down: "lru", up: "osa"},
		{name: "EXD", mode: dfs.ModeOctopus, down: "exd", up: "exd"},
		{name: "XGB", mode: dfs.ModeOctopus, down: "xgb", up: "xgb"},
	}

	var baseline *jobs.RunStats
	table := &eval.Table{
		ID:     "policycompare",
		Title:  "policy comparison vs HDFS",
		Header: []string{"System", "Mean completion", "Reduction", "Task-hours", "Efficiency gain", "Memory hit ratio"},
	}
	for _, sys := range systems {
		stats := run(sys, trace)
		reads, memReads, _, _, _, _ := stats.Totals()
		meanAll := meanCompletion(stats)
		taskHours := totalTaskSeconds(stats) / 3600
		row := []string{
			sys.name,
			meanAll.Round(100 * time.Millisecond).String(),
			"-",
			fmt.Sprintf("%.1f", taskHours),
			"-",
			eval.Pct(eval.HitRatio(memReads, reads)),
		}
		if baseline != nil {
			row[2] = eval.Pct(eval.Reduction(meanCompletion(baseline).Seconds(), meanAll.Seconds()))
			row[4] = eval.Pct(eval.Reduction(totalTaskSeconds(baseline)/3600, taskHours))
		} else {
			baseline = stats
		}
		table.AddRow(row...)
	}
	table.Fprint(os.Stdout)
}

func run(sys system, trace *workload.Trace) *jobs.RunStats {
	engine := sim.NewEngine()
	cl := cluster.MustNew(engine, cluster.Config{
		Workers:      3,
		SlotsPerNode: 4,
		Spec: storage.NodeSpec{
			{Media: storage.Memory, Capacity: 1 * storage.GB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
			{Media: storage.SSD, Capacity: 8 * storage.GB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
			{Media: storage.HDD, Capacity: 64 * storage.GB, ReadBW: 160e6, WriteBW: 140e6, Count: 2},
		},
	})
	fs := dfs.MustNew(cl, dfs.Config{Mode: sys.mode, Seed: 7, ClientRate: 1000e6})
	if sys.down != "" || sys.up != "" {
		mgr, err := policy.NewManager(fs, sys.down, sys.up, ml.DefaultLearnerConfig())
		if err != nil {
			log.Fatal(err)
		}
		mgr.Start()
		defer mgr.Stop()
	}
	stats, err := jobs.Run(fs, trace, jobs.DefaultOptions(), nil)
	if err != nil {
		log.Fatalf("%s: %v", sys.name, err)
	}
	return stats
}

func meanCompletion(stats *jobs.RunStats) time.Duration {
	if len(stats.Jobs) == 0 {
		return 0
	}
	var total time.Duration
	for i := range stats.Jobs {
		total += stats.Jobs[i].CompletionTime()
	}
	return total / time.Duration(len(stats.Jobs))
}

func totalTaskSeconds(stats *jobs.RunStats) float64 {
	var total float64
	for i := range stats.Jobs {
		total += stats.Jobs[i].TaskSeconds
	}
	return total
}
