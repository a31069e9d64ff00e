package server_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/ml"
	"octostore/internal/policy"
	"octostore/internal/server"
	"octostore/internal/storage"
)

// TestRebalanceSurvivesChurn is the rebalancer's race-suite acceptance test
// (run under -race): tagged clients from two tenants hammer a skewed
// workload — most traffic concentrated on eight directories that all hash
// to one shard — with the rebalancer ticking aggressively, while a worker
// fails on every shard and a fresh one joins. Live subtree migrations
// therefore interleave with membership churn, mid-epoch creates and
// deletes, and quota borrows. At quiescence the invariant suite must be
// clean, every surviving shared file must still serve, and the run must
// actually have migrated (vacuity guard).
func TestRebalanceSurvivesChurn(t *testing.T) {
	const (
		shards       = 4
		clients      = 8
		hotDirCount  = 8
		hotPerDir    = 6
		opsPerClient = 400
	)
	hotDirs := collidingHotDirs(hotDirCount, shards)
	if len(hotDirs) != hotDirCount {
		t.Fatalf("found %d colliding dirs, want %d", len(hotDirs), hotDirCount)
	}
	tenants := []server.TenantConfig{
		{ID: 1, Weight: 3},
		{ID: 2, Weight: 1},
	}
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards: shards,
		Cluster: cluster.Config{
			Workers: 5, SlotsPerNode: 4, Spec: servedWorkerSpec(),
		},
		DFS: dfs.Config{Mode: dfs.ModeOctopus, Seed: 11, ClientRate: 2000e6},
		Build: func(_ int, fs *dfs.FileSystem) (*core.Manager, error) {
			ctx := core.NewContext(fs, core.DefaultConfig())
			u, err := policy.NewUpgrade("osa", ctx, ml.DefaultLearnerConfig())
			if err != nil {
				return nil, err
			}
			return core.NewManager(ctx, nil, u), nil
		},
		Quota: server.QuotaConfig{
			InitialFraction:   0.5,
			BorrowChunk:       16 * storage.MB,
			ReconcileInterval: 20 * time.Second,
		},
		Inner: server.Config{
			TimeScale: 240,
			Tenants:   tenants,
			Executor: server.ExecutorConfig{
				WorkersPerTier:  2,
				QueueDepth:      32,
				BudgetBytes:     [3]int64{256 * storage.MB, 1 * storage.GB, 2 * storage.GB},
				RateBytesPerSec: [3]float64{float64(64 * storage.MB), float64(128 * storage.MB), float64(256 * storage.MB)},
			},
		},
		Rebalance: server.RebalanceConfig{
			Enabled:  true,
			Interval: 100 * time.Millisecond, // virtual; ~sub-ms wall at this timescale
			HotRatio: 1.2,
			MinOps:   64,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	tenantOf := func(c int) storage.TenantID { return storage.TenantID(1 + c%2) }
	shared := make([]string, 0, hotDirCount*hotPerDir)
	for _, dir := range hotDirs {
		for i := 0; i < hotPerDir; i++ {
			shared = append(shared, fmt.Sprintf("%s/f%03d", dir, i))
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(shared))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := c; i < len(shared); i += clients {
				size := (16 + rng.Int63n(48)) * storage.MB
				if _, err := srv.Do(server.Op{Kind: server.OpCreate, Path: shared[i], Size: size, Tenant: tenantOf(c)}); err != nil {
					errCh <- fmt.Errorf("preload %s: %w", shared[i], err)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		select {
		case <-time.After(40 * time.Millisecond):
		case <-stopChurn:
			return
		}
		victim := -1
		srv.Exec(func(shard int, fs *dfs.FileSystem) {
			if shard != 0 {
				return
			}
			for _, n := range fs.Cluster().Nodes() {
				if n.ID() > victim {
					victim = n.ID()
				}
			}
		})
		srv.FailNode(victim)
		select {
		case <-time.After(40 * time.Millisecond):
		case <-stopChurn:
			return
		}
		srv.AddNode(servedWorkerSpec(), 4)
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := tenantOf(c)
			rng := rand.New(rand.NewSource(int64(7000 + c)))
			zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(shared)-1))
			var own []string
			for i := 0; i < opsPerClient; i++ {
				switch r := rng.Float64(); {
				case r < 0.78:
					// Shared hot files are never deleted: any miss here is a
					// hole in the double-read epoch.
					if _, err := srv.Do(server.Op{Kind: server.OpAccess, Path: shared[zipf.Uint64()], Tenant: tenant}); err != nil {
						t.Errorf("client %d access: %v", c, err)
						return
					}
				case r < 0.84:
					if _, err := srv.Stat(shared[rng.Intn(len(shared))]); err != nil {
						t.Errorf("client %d stat: %v", c, err)
						return
					}
				case r < 0.94 || len(own) == 0:
					// Half the private files land inside the hot subtrees, so
					// creates and deletes flow through migrating routes.
					var path string
					if rng.Intn(2) == 0 {
						path = fmt.Sprintf("%s/c%dp%04d", hotDirs[rng.Intn(hotDirCount)], c, i)
					} else {
						path = fmt.Sprintf("/scratch/c%d/f%04d", c, i)
					}
					if _, err := srv.Do(server.Op{Kind: server.OpCreate, Path: path, Size: (4 + rng.Int63n(28)) * storage.MB, Tenant: tenant}); err != nil {
						t.Errorf("client %d create %s: %v", c, path, err)
						return
					}
					own = append(own, path)
				default:
					path := own[len(own)-1]
					own = own[:len(own)-1]
					if err := srv.Delete(path); err != nil && !errors.Is(err, dfs.ErrBusy) {
						t.Errorf("client %d delete %s: %v", c, path, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopChurn)
	churnWG.Wait()

	srv.Flush()
	if violations := srv.Verify(); len(violations) > 0 {
		t.Fatalf("invariants violated after rebalance churn: %v", violations)
	}
	for _, p := range shared {
		if !srv.Exists(p) {
			t.Fatalf("shared file %s lost", p)
		}
	}
	st := srv.RebalanceStats()
	if st.Started == 0 || st.FilesMoved == 0 {
		t.Fatalf("churn run never migrated; the race suite is vacuous: %+v", st)
	}
	srv.Close()
	if violations := srv.Verify(); len(violations) > 0 {
		t.Fatalf("invariants violated after close: %v", violations)
	}
}
