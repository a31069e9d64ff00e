package server

import (
	"fmt"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/dfs"
	"octostore/internal/storage"
)

// TestShardsShareOnePacerOrigin is the regression test for per-shard pacer
// clocks. Each shard's start used to take its own time.Now(), so the
// shards' clocks differed by their start offset × TimeScale, and the shared
// data plane booked that skew as read queueing for whichever shard lagged:
// Access (stamped with the routed shard's clock) reported milliseconds of
// virtual latency where AccessAt(p, Clock()) reported microseconds.
// ShardedServer.Start now hands every shard one wall/virtual origin.
func TestShardsShareOnePacerOrigin(t *testing.T) {
	const shards = 3
	srv, err := NewSharded(ShardedConfig{
		Shards: shards,
		Cluster: cluster.Config{
			// One worker with one memory device: every shard's reads land on
			// the same physical read channel.
			Workers: 1, SlotsPerNode: 4,
			Plane: storage.NewContendedPlane(storage.PlaneConfig{MaxQueue: time.Hour}),
			Spec:  storage.PaperMediaSpec(4*storage.GB, 8*storage.GB, 64*storage.GB, 2),
		},
		DFS:   dfs.Config{Mode: dfs.ModeOctopus, Seed: 3, Replication: 1, ClientRate: 2000e6},
		Inner: Config{TimeScale: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()

	first := srv.shards[0]
	for i, sh := range srv.shards[1:] {
		if !sh.wallStart.Equal(first.wallStart) || !sh.virtStart.Equal(first.virtStart) {
			t.Fatalf("shard %d pacer origin (%v, %v) differs from shard 0's (%v, %v)",
				i+1, sh.wallStart, sh.virtStart, first.wallStart, first.virtStart)
		}
	}

	// One file per shard, all the same size, all served from memory.
	var paths [shards]string
	for c, found := 'a', 0; found < shards; c++ {
		if c > 'z' {
			t.Fatal("could not find a directory for every shard")
		}
		dir := "/origin-" + string(c)
		if i := RouteShard(dir, shards); paths[i] == "" {
			paths[i] = fmt.Sprintf("%s/f", dir)
			found++
		}
	}
	for _, p := range paths {
		if _, err := srv.Do(Op{Kind: OpCreate, Path: p, Size: 64 * storage.KB}); err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
	}
	srv.Flush()
	time.Sleep(5 * time.Millisecond) // 300 virtual ms: the plane is idle again

	// Reads alternate between shards and between the two stamping paths. A
	// read holds the channel for ~16 virtual µs, which at this timescale has
	// passed long before the next call is issued, so with one clock every
	// read sees an idle channel and reports the same latency.
	var want time.Duration
	for round := 0; round < 50; round++ {
		for i, p := range paths {
			var res AccessResult
			var err error
			if round%2 == 0 {
				res, err = srv.Do(Op{Kind: OpAccess, Path: p})
			} else {
				res, err = srv.AccessAt(p, srv.Clock())
			}
			if err != nil || !res.Served || res.Tier != storage.Memory {
				t.Fatalf("round %d shard %d: %+v, %v", round, i, res, err)
			}
			if want == 0 {
				want = res.Latency
			}
			if res.Latency != want || want <= 0 {
				t.Fatalf("round %d shard %d: virtual read latency %v, want the idle-plane %v on every shard and both paths",
					round, i, res.Latency, want)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}
