package server_test

// Data-plane acceptance tests.
//
// 1. The no-op plane must be invisible: replaying the sharded differential
//    trace with storage.NopPlane attached (shards=1 and shards=4) must
//    reproduce the plane-less PR 4 semantics bit-for-bit — identical final
//    residency, capacity accounting, and executor stats — and still match
//    the sequential oracle, so the differential suite keeps its oracle.
//
// 2. The contended plane must actually arbitrate: two shards whose
//    movement lands on the same physical memory/HDD devices must each see
//    strictly lower movement throughput than the same workload run with
//    per-shard (isolated) planes, because the shared per-device channels
//    serialize what per-shard device views cannot see.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/ml"
	"octostore/internal/policy"
	"octostore/internal/server"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

func TestNoopDataPlaneDifferential(t *testing.T) {
	ops := shardedDiffTrace()
	seq := shardedOracle(t, ops)
	for _, shards := range []int{1, 4} {
		label := fmt.Sprintf("noop-plane shards=%d", shards)
		plain := runShardedReplay(t, ops, shards, nil)
		nop := runShardedReplay(t, ops, shards, storage.NopPlane{})

		// Both runs must match the sequential oracle...
		compareShardedToOracle(t, label, seq, nop)

		// ...and each other exactly: residency, accounting, executor stats.
		plainRes, nopRes := plain.TierResidency(), nop.TierResidency()
		if len(plainRes) != len(nopRes) {
			t.Fatalf("%s: file count diverged: plane-less %d, nop %d", label, len(plainRes), len(nopRes))
		}
		for path, want := range plainRes {
			if got := nopRes[path]; got != want {
				t.Fatalf("%s: residency of %q diverged: plane-less %v, nop %v", label, path, want, got)
			}
		}
		if a, b := plain.LiveReplicaBytes(), nop.LiveReplicaBytes(); a != b {
			t.Fatalf("%s: live bytes diverged: plane-less %d, nop %d", label, a, b)
		}
		for _, m := range storage.AllMedia {
			ua, ca := plain.TierUsage(m)
			ub, cb := nop.TierUsage(m)
			if ua != ub || ca != cb {
				t.Fatalf("%s: %s usage diverged: plane-less %d/%d, nop %d/%d", label, m, ua, ca, ub, cb)
			}
		}
		if a, b := plain.ExecutorStats(), nop.ExecutorStats(); a != b {
			t.Fatalf("%s: executor stats diverged:\nplane-less %+v\nnop        %+v", label, a, b)
		}
		plain.Close()
		nop.Close()
	}
}

// contentionDirs picks two parent directories that route to the two shards
// of a 2-shard server (shard routing is the routing hash of the parent dir
// mod shards).
func contentionDirs(t *testing.T) [2]string {
	t.Helper()
	var dirs [2]string
	var have [2]bool
	for c := 'a'; c <= 'z'; c++ {
		d := "/load-" + string(c)
		s := server.RouteHash(d) % 2
		if !have[s] {
			dirs[s], have[s] = d, true
		}
		if have[0] && have[1] {
			return dirs
		}
	}
	t.Fatal("could not find dirs for both shards")
	return dirs
}

// runContention replays a two-shard upgrade-heavy workload. When shared is
// true, one ContendedPlane spans both shards' cluster views (the physical
// truth); otherwise each shard gets a private plane with the same profiles
// (the counterfactual where the device is not shared). It returns, per
// shard, the bytes upgraded into memory and the shard's final virtual time.
func runContention(t *testing.T, shared bool) (moved [2]int64, end [2]time.Duration) {
	t.Helper()
	planeCfg := storage.PlaneConfig{MaxQueue: time.Hour}
	clCfg := cluster.Config{
		Workers:      1,
		SlotsPerNode: 4,
		Spec:         storage.PaperMediaSpec(4*storage.GB, 8*storage.GB, 64*storage.GB, 2),
	}
	if shared {
		clCfg.Plane = storage.NewContendedPlane(planeCfg)
	}
	huge := int64(1) << 60
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards:  2,
		Cluster: clCfg,
		DFS:     dfs.Config{Mode: dfs.ModePinnedHDD, Seed: 5, Replication: 1, ClientRate: 2000e6},
		Build: func(_ int, fs *dfs.FileSystem) (*core.Manager, error) {
			ctx := core.NewContext(fs, core.DefaultConfig())
			up, err := policy.NewUpgrade("osa", ctx, ml.DefaultLearnerConfig())
			if err != nil {
				return nil, err
			}
			return core.NewManager(ctx, nil, up), nil
		},
		Quota: server.QuotaConfig{InitialFraction: 0.5},
		Inner: server.Config{ // replay mode
			Executor: server.ExecutorConfig{
				WorkersPerTier: 64,
				QueueDepth:     1 << 12,
				BudgetBytes:    [3]int64{huge, huge, huge},
				MoveLatency:    100 * time.Millisecond,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !shared {
		srv.Exec(func(_ int, fs *dfs.FileSystem) {
			fs.SetDataPlane(storage.NewContendedPlane(planeCfg))
		})
	}
	srv.Start()

	dirs := contentionDirs(t)
	const filesPerShard = 24
	base := sim.Epoch
	for i := 0; i < filesPerShard; i++ {
		at := base.Add(time.Duration(i) * 100 * time.Millisecond)
		for _, d := range dirs {
			srv.CreateAt(fmt.Sprintf("%s/f%02d", d, i), 64*storage.MB, at)
		}
	}
	srv.Flush()

	// Two access rounds: each access triggers an OSA upgrade (HDD → the one
	// physical memory device). The round boundary makes the cross-shard
	// backlog visible to BOTH shards — the second-flushed shard queues
	// behind the first inside a round, the first-flushed shard queues
	// behind the other's previous round.
	at := base.Add(time.Minute)
	for round := 0; round < 2; round++ {
		lo, hi := round*filesPerShard/2, (round+1)*filesPerShard/2
		for i := lo; i < hi; i++ {
			for _, d := range dirs {
				if _, err := srv.AccessAt(fmt.Sprintf("%s/f%02d", d, i), at); err != nil {
					t.Fatalf("access round %d file %d: %v", round, i, err)
				}
			}
		}
		srv.Flush()
	}

	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("shared=%v: invariant violations: %v", shared, v)
	}
	srv.Exec(func(i int, fs *dfs.FileSystem) {
		moved[i] = fs.Stats().BytesUpgradedTo[storage.Memory]
		end[i] = fs.Engine().Now().Sub(sim.Epoch)
	})
	srv.Close()
	return moved, end
}

func TestSharedDeviceContentionSlowsBothShards(t *testing.T) {
	isoMoved, isoEnd := runContention(t, false)
	shMoved, shEnd := runContention(t, true)
	for i := 0; i < 2; i++ {
		if isoMoved[i] == 0 {
			t.Fatalf("shard %d moved no bytes; contention test is vacuous", i)
		}
		if shMoved[i] != isoMoved[i] {
			t.Fatalf("shard %d moved bytes diverged: isolated %d, shared %d", i, isoMoved[i], shMoved[i])
		}
		isoTp := float64(isoMoved[i]) / isoEnd[i].Seconds()
		shTp := float64(shMoved[i]) / shEnd[i].Seconds()
		t.Logf("shard %d: isolated %.1f MB/s over %v, shared %.1f MB/s over %v",
			i, isoTp/1e6, isoEnd[i], shTp/1e6, shEnd[i])
		if shTp >= isoTp {
			t.Errorf("shard %d: shared-device movement throughput %.1f MB/s not strictly below isolated %.1f MB/s",
				i, shTp/1e6, isoTp/1e6)
		}
	}
}

// TestPlaneReadsNameTheirServingTier holds the read path's contract under
// movement: a handle's device pointer for a tier is its residency on that
// tier, so a served read always books the plane on a device of the tier
// that served it, and its latency includes at least that tier's base
// latency. Clients read a hot set on a live server while the manager moves
// files between tiers (run under -race, repeated, in CI); at quiescence
// Verify holds every handle's pointers to the file system's residency.
func TestPlaneReadsNameTheirServingTier(t *testing.T) {
	const (
		clients = 8
		files   = 48
	)
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards: 2,
		Cluster: cluster.Config{
			Workers: 4, SlotsPerNode: 4,
			Spec:  storage.PaperMediaSpec(192*storage.MB, 4*storage.GB, 32*storage.GB, 2),
			Plane: storage.NewContendedPlane(storage.PlaneConfig{}),
		},
		DFS: dfs.Config{Mode: dfs.ModeOctopus, Seed: 13, ClientRate: 2000e6},
		Build: func(_ int, fs *dfs.FileSystem) (*core.Manager, error) {
			return policy.NewManager(fs, "lru", "osa", ml.DefaultLearnerConfig())
		},
		Inner: server.Config{TimeScale: 240},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()

	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/hot/d%02d/f%03d", i%12, i)
		size := int64(16+(i*37)%112) * storage.MB
		if _, err := srv.Do(server.Op{Kind: server.OpCreate, Path: paths[i], Size: size}); err != nil {
			t.Fatalf("preload %s: %v", paths[i], err)
		}
	}

	// Moves completed into memory (upgrades) and into SSD or HDD (downgrades,
	// mostly out of memory).
	moves := func() (up, down int64) {
		st := srv.ExecutorStats().PerTier
		return st[storage.Memory].Completed, st[storage.SSD].Completed + st[storage.HDD].Completed
	}
	base := storage.DefaultTierProfiles()
	up0, down0 := moves()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// A writer keeps creating and deleting scratch files, so memory stays
	// under pressure and the manager keeps moving files down as well as up.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var own []string
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			path := fmt.Sprintf("/scratch/d%d/f%05d", i%4, i)
			if _, err := srv.Do(server.Op{Kind: server.OpCreate, Path: path, Size: int64(16+i%17) * storage.MB}); err != nil {
				t.Errorf("writer create: %v", err)
				return
			}
			if own = append(own, path); len(own) > 16 {
				// Busy (replicas in transition) is an expected outcome under
				// concurrent movement.
				if _, err := srv.Do(server.Op{Kind: server.OpDelete, Path: own[0]}); err != nil && !errors.Is(err, dfs.ErrBusy) {
					t.Errorf("writer delete: %v", err)
					return
				}
				own = own[1:]
			}
		}
	}()
	var served [3]atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + c)))
			zipf := rand.NewZipf(rng, 1.1, 1, files-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := srv.Do(server.Op{Kind: server.OpAccess, Path: paths[zipf.Uint64()]})
				if err != nil {
					t.Errorf("client %d access: %v", c, err)
					return
				}
				if !res.Served {
					continue
				}
				served[res.Tier].Add(1)
				if res.Latency < base[res.Tier].BaseLatency {
					t.Errorf("client %d: read served from %v took %v, under the tier's base latency %v",
						c, res.Tier, res.Latency, base[res.Tier].BaseLatency)
					return
				}
			}
		}(c)
	}
	// Read until the manager has moved files both ways under the clients,
	// or give up.
	moved := func() bool {
		up, down := moves()
		return up-up0 >= 4 && down-down0 >= 4
	}
	for deadline := time.Now().Add(5 * time.Second); !moved() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if !moved() {
		up, down := moves()
		t.Fatalf("%d upgrades and %d downgrades completed under the readers; the contract went unexercised", up-up0, down-down0)
	}
	var tiers [3]int64
	for m := range served {
		tiers[m] = served[m].Load()
	}
	if tiers[storage.Memory] == 0 || tiers[storage.SSD]+tiers[storage.HDD] == 0 {
		t.Fatalf("reads never spanned tiers: %v", tiers)
	}
	srv.Flush()
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants violated after reads under movement: %v", v)
	}
}
