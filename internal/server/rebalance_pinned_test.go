package server_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/dfs"
	"octostore/internal/server"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// The rebalancer's pinned outcomes: the two deterministic replays that
// exercise subtree migration (TestDifferentialRebalanceOnVsOff's trace) and
// cold-route fold-back (TestRebalancerRehomesColdRoutes' life cycle) must
// end with exactly these counters and this final per-file tier residency.
// Both replays repeat exactly (a detection round breaks op-count ties by
// directory name), so a refactor of the migration sweep that claims no
// outcome moved is held to them bit for bit.

// residencyHash folds a TierResidency map into one order-independent number.
func residencyHash(res map[string][3]bool) uint64 {
	paths := make([]string, 0, len(res))
	for p := range res {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := fnv.New64a()
	for _, p := range paths {
		fmt.Fprintf(h, "%s=%v\n", p, res[p])
	}
	return h.Sum64()
}

func TestRebalancePinnedOutcomes(t *testing.T) {
	t.Run("migrate", func(t *testing.T) {
		ops := rebalanceTrace(collidingHotDirs(3, 4))
		off := runRebalanceReplay(t, ops, false)
		on := runRebalanceReplay(t, ops, true)
		defer off.Close()
		defer on.Close()
		want := server.RebalanceStats{
			Started: 3, Completed: 3, FilesMoved: 21, BytesMoved: 1456472064,
			Spread: 1.2467532467532467, Routes: 3,
		}
		checkPinned(t, on, want, 0x9e35a2fd1f38a2b2)
		if a, b := residencyHash(off.TierResidency()), residencyHash(on.TierResidency()); a != b {
			t.Fatalf("residency hash: off %#x, on %#x", a, b)
		}
	})
	t.Run("rehome", func(t *testing.T) {
		srv := runRehomeReplay(t)
		defer srv.Close()
		want := server.RebalanceStats{
			Started: 1, Completed: 1, FilesMoved: 16, BytesMoved: 805306368,
			Rehomed: 1, Spread: 1,
		}
		checkPinned(t, srv, want, 0xe7430d16673046c6)
	})
}

func checkPinned(t *testing.T, srv *server.ShardedServer, want server.RebalanceStats, wantHash uint64) {
	t.Helper()
	if got := srv.RebalanceStats(); got != want {
		t.Errorf("RebalanceStats:\n got %+v\nwant %+v", got, want)
	}
	if got := residencyHash(srv.TierResidency()); got != wantHash {
		t.Errorf("TierResidency hash = %#x, want %#x", got, wantHash)
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// runRehomeReplay replays TestRebalancerRehomesColdRoutes' schedule: two
// colliding hot directories migrate off their shard, go cold, and fold back
// to static routing after RehomeColdTicks idle rounds.
func runRehomeReplay(t *testing.T) *server.ShardedServer {
	t.Helper()
	huge := int64(1) << 60
	inf := math.Inf(1)
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards:  4,
		Cluster: cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: storage.PaperMediaSpec(1*storage.GB, 4*storage.GB, 32*storage.GB, 2)},
		DFS:     dfs.Config{Mode: dfs.ModeOctopus, Seed: 7, ClientRate: 2000e6},
		Quota: server.QuotaConfig{
			InitialFraction:   0.25,
			BorrowChunk:       16 * storage.MB,
			ReconcileInterval: 10 * time.Second,
		},
		Inner: server.Config{
			Executor: server.ExecutorConfig{
				WorkersPerTier:  64,
				QueueDepth:      1 << 14,
				BudgetBytes:     [3]int64{huge, huge, huge},
				RateBytesPerSec: [3]float64{inf, inf, inf},
			},
		},
		Rebalance: server.RebalanceConfig{
			Enabled:         true,
			HotRatio:        1.2,
			MinOps:          32,
			MaxPrefixes:     2,
			RehomeColdTicks: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	step := 0
	at := func() time.Time { step++; return sim.Epoch.Add(time.Duration(step) * time.Second) }
	create := func(p string, size int64) {
		ch := srv.CreateAt(p, size, at())
		srv.Flush()
		if err := <-ch; err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
	}
	access := func(paths []string) {
		for _, p := range paths {
			if _, err := srv.AccessAt(p, at()); err != nil {
				t.Fatalf("access %s: %v", p, err)
			}
		}
	}
	shards := srv.NumShards()
	name := func(i int) string { return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }
	var hotDirs []string
	target := -1
	for i := 0; len(hotDirs) < 2 && i < 10000; i++ {
		d := "/hot/d" + name(i)
		if target == -1 {
			target = server.RouteShard(d, shards)
		}
		if server.RouteShard(d, shards) == target {
			hotDirs = append(hotDirs, d)
		}
	}
	var hotFiles []string
	for _, d := range hotDirs {
		for i := 0; i < 8; i++ {
			p := d + "/f" + string(rune('0'+i))
			create(p, 16*storage.MB)
			hotFiles = append(hotFiles, p)
		}
	}
	var coldFiles []string
	for want := 0; want < shards; want++ {
		for i := 0; len(coldFiles) <= want && i < 10000; i++ {
			if d := "/cold/d" + name(i); server.RouteShard(d, shards) == want {
				create(d+"/f0", 8*storage.MB)
				coldFiles = append(coldFiles, d+"/f0")
			}
		}
	}
	for rep := 0; rep < 4; rep++ {
		access(hotFiles)
	}
	srv.Flush()
	srv.RebalanceTick()
	for tick := 0; tick < 4; tick++ {
		for rep := 0; rep < 4; rep++ {
			access(coldFiles)
		}
		srv.Flush()
		srv.RebalanceTick()
	}
	srv.Flush()
	return srv
}
