// Quickstart: build a three-tier cluster, attach the Octopus++ replication
// manager with the paper's XGB policies, write and read a few files, and
// watch replicas move between tiers automatically.
package main

import (
	"fmt"
	"log"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/dfs"
	"octostore/internal/ml"
	"octostore/internal/policy"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

func main() {
	// A simulated 3-worker cluster: every worker has a memory, an SSD and
	// an HDD tier. The virtual clock lets hours pass in milliseconds.
	engine := sim.NewEngine()
	cl := cluster.MustNew(engine, cluster.Config{
		Workers:      3,
		SlotsPerNode: 4,
		Spec:         storage.SmallWorkerSpec(),
	})

	// An OctopusFS-style file system: block replicas are spread across
	// nodes AND tiers by the multi-objective placement policy.
	fs := dfs.MustNew(cl, dfs.Config{Mode: dfs.ModeOctopus, BlockSize: 16 * storage.MB, Seed: 42})

	// Octopus++: a replication manager with an LRU downgrade policy and the
	// ML-driven XGB upgrade policy.
	mgr, err := policy.NewManager(fs, "lru", "xgb", ml.DefaultLearnerConfig())
	if err != nil {
		log.Fatal(err)
	}
	mgr.Start()
	defer mgr.Stop()

	// Write a handful of files. Creation is asynchronous: completions are
	// simulation events.
	for i := 0; i < 12; i++ {
		path := fmt.Sprintf("/demo/file-%02d", i)
		fs.Create(path, 16*storage.MB, func(f *dfs.File, err error) {
			if err != nil {
				log.Fatalf("create: %v", err)
			}
		})
		engine.RunFor(30 * time.Second)
	}
	engine.RunFor(time.Minute)

	fmt.Println("tier utilisation after writes:")
	for _, m := range storage.AllMedia {
		fmt.Printf("  %-4s %5.1f%%\n", m, 100*fs.TierUtilization(m))
	}

	// Memory (64 MB x 3 nodes) cannot hold all 12 files; the manager has
	// been downgrading the least recently used ones to keep headroom.
	f, err := fs.Open("/demo/file-00")
	if err != nil {
		log.Fatal(err)
	}
	top, _ := f.HighestTier()
	fmt.Printf("\noldest file now resides on: %s\n", top)

	// Read one file: the access is recorded first (so upgrade policies can
	// react), then each block is served from its best replica.
	fs.RecordAccess(f)
	for _, b := range f.Blocks() {
		fs.ReadBlock(b, cl.Node(0), func(res dfs.ReadResult, err error) {
			if err != nil {
				log.Fatalf("read: %v", err)
			}
			fmt.Printf("block %d served from %s (remote=%v)\n", b.ID(), res.Media, res.Remote)
		})
	}
	engine.RunFor(time.Minute)

	st := fs.Stats()
	fmt.Printf("\nbytes downgraded to SSD: %d MB\n", st.BytesDowngradedTo[storage.SSD]/storage.MB)
	fmt.Printf("manager moves: %d downgrades, %d upgrades\n",
		mgr.Metrics().DowngradesScheduled, mgr.Metrics().UpgradesScheduled)
}
