// Dfsio reproduces the Figure 2 scenario at example scale: write a dataset
// larger than the cluster's aggregate memory, then read it back, on plain
// HDFS and on Octopus++ (XGB policies), and print progressive throughput.
// The tiered system's read advantage collapses once memory is exhausted
// unless automated movement keeps the tier fresh.
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

const (
	fileSize  = 256 * storage.MB
	fileCount = 24 // 6 GB total vs 1.5 GB of cluster memory
	streams   = 6
)

func main() {
	for _, managed := range []bool{false, true} {
		name := "HDFS"
		if managed {
			name = "Octopus++ (XGB)"
		}
		write, read := run(managed)
		fmt.Printf("%s:\n", name)
		fmt.Printf("  wrote %d x %d MB in %v (%.0f MB/s)\n",
			fileCount, fileSize/storage.MB, write.Round(time.Millisecond),
			float64(fileCount*fileSize)/write.Seconds()/1e6)
		fmt.Printf("  read it back in %v (%.0f MB/s)\n\n",
			read.Round(time.Millisecond),
			float64(fileCount*fileSize)/read.Seconds()/1e6)
	}
}

func run(managed bool) (writeTime, readTime time.Duration) {
	engine := sim.NewEngine()
	cl := cluster.MustNew(engine, cluster.Config{
		Workers:      3,
		SlotsPerNode: 4,
		Spec: storage.NodeSpec{
			{Media: storage.Memory, Capacity: 512 * storage.MB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
			{Media: storage.SSD, Capacity: 4 * storage.GB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
			{Media: storage.HDD, Capacity: 32 * storage.GB, ReadBW: 160e6, WriteBW: 140e6, Count: 2},
		},
	})
	mode := dfs.ModeHDFS
	if managed {
		mode = dfs.ModeOctopus
	}
	fs := dfs.MustNew(cl, dfs.Config{Mode: mode, Seed: 3, ClientRate: 1000e6})
	if managed {
		mgr, err := policy.NewManager(fs, "xgb", "xgb", ml.DefaultLearnerConfig())
		if err != nil {
			log.Fatal(err)
		}
		mgr.Start()
		defer mgr.Stop()
	}

	// Write phase.
	start := engine.Now()
	pending := 0
	next := 0
	var launch func()
	launch = func() {
		for pending < streams && next < fileCount {
			idx := next
			next++
			pending++
			fs.Create(fmt.Sprintf("/bench/f%02d", idx), fileSize, func(_ *dfs.File, err error) {
				if err != nil {
					log.Fatalf("create: %v", err)
				}
				pending--
				launch()
			})
		}
	}
	launch()
	for (pending > 0 || next < fileCount) && engine.Step() {
	}
	writeTime = engine.Now().Sub(start)

	// Read phase.
	start = engine.Now()
	next, pending = 0, 0
	var read func()
	read = func() {
		for pending < streams && next < fileCount {
			idx := next
			next++
			pending++
			f, err := fs.Open(fmt.Sprintf("/bench/f%02d", idx))
			if err != nil {
				log.Fatalf("open: %v", err)
			}
			fs.RecordAccess(f)
			remaining := len(f.Blocks())
			node := cl.Node(idx % cl.Size())
			for _, b := range f.Blocks() {
				fs.ReadBlock(b, node, func(_ dfs.ReadResult, err error) {
					if err != nil {
						log.Fatalf("read: %v", err)
					}
					remaining--
					if remaining == 0 {
						pending--
						read()
					}
				})
			}
		}
	}
	read()
	for (pending > 0 || next < fileCount) && engine.Step() {
	}
	readTime = engine.Now().Sub(start)
	return writeTime, readTime
}
