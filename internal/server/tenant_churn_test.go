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

// TestShardedTenantTrafficSurvivesChurn is the multi-tenant race-suite
// acceptance test (run under -race): two tenants drive tagged traffic from 8
// concurrent clients through a weighted-fair plane — with the SLO admission
// controller live and one tenant's read target deliberately unmeetable —
// while a worker fails on every shard and a fresh one joins. At quiescence
// the invariant suite, the plane's per-tenant accounting, and the refcounted
// channel registry (no channel stranded for the dead node, all channels
// present for the new one) must all be clean.
func TestShardedTenantTrafficSurvivesChurn(t *testing.T) {
	const (
		shards       = 4
		clients      = 8
		sharedFiles  = 48
		opsPerClient = 150
	)
	tenants := []server.TenantConfig{
		{ID: 1, Weight: 3},
		// An unmeetable 1 ms read SLO keeps the admission controller
		// breaching (and deferring movement) throughout the churn window.
		{ID: 2, Weight: 1, ReadSLO: time.Millisecond},
	}
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards: shards,
		Cluster: cluster.Config{
			Workers: 5, SlotsPerNode: 4, Spec: servedWorkerSpec(),
			Plane: storage.NewContendedPlane(storage.PlaneConfig{
				Tenants: server.PlaneTenants(tenants),
			}),
		},
		DFS: dfs.Config{Mode: dfs.ModeOctopus, Seed: 11, ClientRate: 2000e6},
		Build: func(_ int, fs *dfs.FileSystem) (*core.Manager, error) {
			ctx := core.NewContext(fs, core.DefaultConfig())
			d, err := policy.NewDowngrade("lru", ctx, ml.DefaultLearnerConfig())
			if err != nil {
				return nil, err
			}
			u, err := policy.NewUpgrade("osa", ctx, ml.DefaultLearnerConfig())
			if err != nil {
				return nil, err
			}
			return core.NewManager(ctx, d, u), nil
		},
		Quota: server.QuotaConfig{
			InitialFraction:   0.5,
			BorrowChunk:       16 * storage.MB,
			ReconcileInterval: 20 * time.Second,
		},
		Inner: server.Config{
			TimeScale: 240,
			Tenants:   tenants,
			SLO: server.SLOConfig{
				Interval:    2 * time.Second,
				MinSamples:  8,
				DeferWindow: 5 * time.Second,
			},
			Executor: server.ExecutorConfig{
				WorkersPerTier:  2,
				QueueDepth:      32,
				BudgetBytes:     [3]int64{256 * storage.MB, 1 * storage.GB, 2 * storage.GB},
				RateBytesPerSec: [3]float64{float64(64 * storage.MB), float64(128 * storage.MB), float64(256 * storage.MB)},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	tenantOf := func(c int) storage.TenantID { return storage.TenantID(1 + c%2) }
	shared := make([]string, sharedFiles)
	for i := 0; i < sharedFiles; i++ {
		shared[i] = fmt.Sprintf("/hot/d%02d/f%03d", i%12, i)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, sharedFiles)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := c; i < sharedFiles; i += clients {
				size := (16 + rng.Int63n(112)) * storage.MB
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
		case <-time.After(150 * time.Millisecond):
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
		case <-time.After(150 * time.Millisecond):
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
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(sharedFiles-1))
			var own []string
			for i := 0; i < opsPerClient; i++ {
				switch r := rng.Float64(); {
				case r < 0.72:
					if _, err := srv.Do(server.Op{Kind: server.OpAccess, Path: shared[zipf.Uint64()], Tenant: tenant}); err != nil {
						t.Errorf("client %d access: %v", c, err)
						return
					}
				case r < 0.80:
					if _, err := srv.Stat(shared[rng.Intn(sharedFiles)]); err != nil {
						t.Errorf("client %d stat: %v", c, err)
						return
					}
				case r < 0.95 || len(own) == 0:
					path := fmt.Sprintf("/scratch/c%d/f%04d", c, i)
					if _, err := srv.Do(server.Op{Kind: server.OpCreate, Path: path, Size: (4 + rng.Int63n(28)) * storage.MB, Tenant: tenant}); err != nil {
						t.Errorf("client %d create: %v", c, err)
						return
					}
					own = append(own, path)
				default:
					path := own[len(own)-1]
					own = own[:len(own)-1]
					if _, err := srv.Do(server.Op{Kind: server.OpDelete, Path: path}); err != nil && !errors.Is(err, dfs.ErrBusy) {
						t.Errorf("client %d delete: %v", c, err)
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
		t.Fatalf("invariants violated after tenant churn load: %v", violations)
	}
	cp := srv.Plane().(*storage.ContendedPlane)
	if err := cp.CheckAccounting(); err != nil {
		t.Fatalf("plane tenant accounting diverged: %v", err)
	}
	for _, ts := range cp.TenantStats() {
		if ts.Requests == 0 || ts.Bytes == 0 {
			t.Fatalf("tenant %d drove no plane traffic: %+v", ts.Tenant, ts)
		}
	}
	for _, id := range []storage.TenantID{1, 2} {
		if h := srv.TenantReadLatency(id); h == nil || h.Count() == 0 {
			t.Fatalf("tenant %d recorded no read latencies", id)
		}
	}
	// The refcounted channel registry is the satellite regression: after a
	// FailNode on every shard and an AddNode, the plane must hold exactly
	// one channel set per live physical device — nothing stranded for the
	// dead worker, nothing missing for the new one.
	liveDevices := 0
	srv.Exec(func(shard int, fs *dfs.FileSystem) {
		if shard != 0 {
			return
		}
		for _, n := range fs.Cluster().Nodes() {
			liveDevices += len(n.AllDevices())
		}
	})
	if got := cp.Stats().Devices; got != liveDevices {
		t.Fatalf("plane holds %d device channels, cluster has %d live devices (stranded or dropped channels)", got, liveDevices)
	}
	srv.Close()
	if violations := srv.Verify(); len(violations) > 0 {
		t.Fatalf("invariants violated after close: %v", violations)
	}
}
