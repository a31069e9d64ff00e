// Command octofs runs a tiered store with a chosen policy pair over a
// generated workload and reports what the automated tier management did:
// data moved per direction, tier utilisation over time, hit ratios, and
// completion statistics. It is the quickest way to eyeball a policy's
// behaviour without the full experiment harness.
//
// Example:
//
//	octofs -workload fb -down xgb -up xgb -jobs 300
//	octofs -workload cmu -down lru -up osa
package main

import (
	"flag"
	"fmt"
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

func main() {
	var (
		wl      = flag.String("workload", "fb", "workload profile: fb or cmu")
		down    = flag.String("down", "xgb", "downgrade policy: lru,lfu,lrfu,life,lfuf,exd,xgb,none")
		up      = flag.String("up", "xgb", "upgrade policy: osa,lrfu,exd,xgb,none")
		nJobs   = flag.Int("jobs", 300, "number of jobs to replay")
		hours   = flag.Float64("hours", 2, "workload duration in hours")
		workers = flag.Int("workers", 5, "cluster workers")
		seed    = flag.Int64("seed", 1, "generation seed")
	)
	flag.Parse()

	var p workload.Profile
	switch *wl {
	case "fb":
		p = workload.FB()
	case "cmu":
		p = workload.CMU()
	default:
		fmt.Fprintf(os.Stderr, "octofs: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	p.NumJobs = *nJobs
	p.Duration = time.Duration(*hours * float64(time.Hour))
	// Bound job sizes to bin D so small clusters stay feasible.
	var capped [workload.NumBins]float64
	total := 0.0
	for b := workload.BinA; b <= workload.BinD; b++ {
		capped[b] = p.BinFractions[b]
		total += p.BinFractions[b]
	}
	for b := workload.BinA; b <= workload.BinD; b++ {
		capped[b] /= total
	}
	p.BinFractions = capped
	trace := workload.Generate(p, *seed)

	engine := sim.NewEngine()
	cl := cluster.MustNew(engine, cluster.Config{
		Workers:      *workers,
		SlotsPerNode: 8,
		Spec: storage.NodeSpec{
			{Media: storage.Memory, Capacity: 2 * storage.GB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
			{Media: storage.SSD, Capacity: 16 * storage.GB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
			{Media: storage.HDD, Capacity: 128 * storage.GB, ReadBW: 160e6, WriteBW: 140e6, Count: 3},
		},
	})
	fs := dfs.MustNew(cl, dfs.Config{Mode: dfs.ModeOctopus, Seed: *seed, ClientRate: 2000e6})

	lcfg := ml.DefaultLearnerConfig()
	lcfg.Seed = *seed
	mgr, err := policy.NewManager(fs, *down, *up, lcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "octofs:", err)
		os.Exit(2)
	}
	mgr.Start()
	defer mgr.Stop()

	fmt.Printf("replaying %s: %d jobs over %v on %d workers (down=%s up=%s)\n\n",
		trace.Name, len(trace.Jobs), trace.Duration, *workers, *down, *up)

	stats, err := jobs.Run(fs, trace, jobs.Options{Seed: *seed}, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "octofs:", err)
		os.Exit(1)
	}

	reads, memReads, blocks, memLoc, bytes, memBytes := stats.Totals()
	var meanCompletion time.Duration
	for i := range stats.Jobs {
		meanCompletion += stats.Jobs[i].CompletionTime()
	}
	if len(stats.Jobs) > 0 {
		meanCompletion /= time.Duration(len(stats.Jobs))
	}

	t := &eval.Table{ID: "octofs", Title: "run summary", Header: []string{"Metric", "Value"}}
	t.AddRow("jobs completed", fmt.Sprintf("%d", len(stats.Jobs)))
	t.AddRow("mean completion time", meanCompletion.Round(100*time.Millisecond).String())
	t.AddRow("hit ratio (accesses)", eval.Pct(eval.HitRatio(memReads, reads)))
	t.AddRow("byte hit ratio", eval.Pct(eval.ByteHitRatio(memBytes, bytes)))
	t.AddRow("hit ratio (locations)", eval.Pct(eval.Ratio(float64(memLoc), float64(blocks))))
	mm := mgr.Metrics()
	t.AddRow("downgrades", fmt.Sprintf("%d", mm.DowngradesScheduled))
	t.AddRow("upgrades", fmt.Sprintf("%d", mm.UpgradesScheduled))
	st := fs.Stats()
	t.AddRow("GB downgraded to SSD", fmt.Sprintf("%.2f", float64(st.BytesDowngradedTo[storage.SSD])/float64(storage.GB)))
	t.AddRow("GB upgraded to MEM", fmt.Sprintf("%.2f", float64(st.BytesUpgradedTo[storage.Memory])/float64(storage.GB)))
	for _, m := range storage.AllMedia {
		t.AddRow(fmt.Sprintf("%s utilisation", m), eval.Pct(fs.TierUtilization(m)))
	}
	t.Fprint(os.Stdout)
}
