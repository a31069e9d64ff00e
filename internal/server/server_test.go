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

// servedWorkerSpec is deliberately memory-tight: the hot set cannot fit the
// memory tier, so live accesses drive OSA upgrades and the high watermark
// drives LRU downgrades — real traffic for the movement executor.
func servedWorkerSpec() storage.NodeSpec {
	return storage.NodeSpec{
		{Media: storage.Memory, Capacity: 192 * storage.MB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
		{Media: storage.SSD, Capacity: 4 * storage.GB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
		{Media: storage.HDD, Capacity: 32 * storage.GB, ReadBW: 160e6, WriteBW: 140e6, Count: 2},
	}
}

// buildServed wires a managed system behind a one-shard serving layer — the
// degenerate shard count: one single-writer loop with the full capacity and
// an empty pool — for the live-load tests: wall-paced virtual time, tight
// executor budgets so the budget invariant is actually stressed.
func buildServed(t *testing.T, workers int, ecfg server.ExecutorConfig) (*server.ShardedServer, *core.Manager) {
	t.Helper()
	var mgr *core.Manager
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards:  1,
		Cluster: cluster.Config{Workers: workers, SlotsPerNode: 4, Spec: servedWorkerSpec()},
		DFS:     dfs.Config{Mode: dfs.ModeOctopus, Seed: 11, ClientRate: 2000e6},
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
			mgr = core.NewManager(ctx, d, u)
			return mgr, nil
		},
		Inner: server.Config{
			TimeScale: 240, // 4 virtual minutes per wall second: periodic ticks fire
			Executor:  ecfg,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, mgr
}

// TestConcurrentClientsWithChurn is the race-suite acceptance test:
// >= 8 concurrent closed-loop clients create, access, stat, list, and
// delete files while a worker node fails and a fresh one joins and the
// movement executor drains upgrades/downgrades. At the end the full
// invariant set must hold and the executor must never have exceeded any
// per-tier bandwidth budget.
func TestConcurrentClientsWithChurn(t *testing.T) {
	const (
		clients      = 8
		sharedFiles  = 48
		opsPerClient = 220
	)
	ecfg := server.ExecutorConfig{
		WorkersPerTier: 2,
		QueueDepth:     32,
		BudgetBytes:    [3]int64{256 * storage.MB, 1 * storage.GB, 2 * storage.GB},
		// Tight virtual-clock refill rates so the token bucket, not just the
		// burst, is exercised under live pacing.
		RateBytesPerSec: [3]float64{float64(64 * storage.MB), float64(128 * storage.MB), float64(256 * storage.MB)},
	}
	srv, mgr := buildServed(t, 5, ecfg)
	srv.Start()

	// Stage a shared hot set through the serving layer, concurrently.
	var wg sync.WaitGroup
	shared := make([]string, sharedFiles)
	for i := 0; i < sharedFiles; i++ {
		shared[i] = fmt.Sprintf("/hot/d%02d/f%03d", i%8, i)
	}
	errCh := make(chan error, sharedFiles)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := c; i < sharedFiles; i += clients {
				size := (16 + rng.Int63n(112)) * storage.MB
				if err := srv.Create(shared[i], size); err != nil {
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

	// Closed-loop load with a mid-run node failure and a late join.
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
		srv.Exec(func(_ int, fs *dfs.FileSystem) {
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
			rng := rand.New(rand.NewSource(int64(7000 + c)))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(sharedFiles-1))
			var own []string
			for i := 0; i < opsPerClient; i++ {
				switch r := rng.Float64(); {
				case r < 0.78:
					if _, err := srv.Access(shared[zipf.Uint64()]); err != nil {
						t.Errorf("client %d access: %v", c, err)
						return
					}
				case r < 0.88:
					if _, err := srv.Stat(shared[rng.Intn(sharedFiles)]); err != nil {
						t.Errorf("client %d stat: %v", c, err)
						return
					}
				case r < 0.92:
					srv.List("/hot/d03")
				case r < 0.97 || len(own) == 0:
					path := fmt.Sprintf("/scratch/c%d/f%04d", c, i)
					if err := srv.Create(path, (4+rng.Int63n(28))*storage.MB); err != nil {
						t.Errorf("client %d create: %v", c, err)
						return
					}
					own = append(own, path)
				default:
					path := own[len(own)-1]
					own = own[:len(own)-1]
					// Busy (replicas in transition) is an expected, retryable
					// serving-layer outcome under concurrent movement.
					if err := srv.Delete(path); err != nil && !errors.Is(err, dfs.ErrBusy) {
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
	var invErr, acctErr, auditErr error
	srv.Exec(func(_ int, fs *dfs.FileSystem) {
		acctErr = fs.CheckAccounting()
		invErr = fs.CheckInvariants()
		auditErr = mgr.Context().Index().Audit()
	})
	if acctErr != nil {
		t.Fatalf("accounting violated after concurrent load: %v", acctErr)
	}
	if invErr != nil {
		t.Fatalf("invariants violated after concurrent load: %v", invErr)
	}
	if auditErr != nil {
		t.Fatalf("candidate index corrupted after concurrent load: %v", auditErr)
	}

	stats := srv.Stats()
	if stats.Accesses == 0 || stats.Creates == 0 {
		t.Fatalf("load did not exercise the server: %+v", stats)
	}
	ex := srv.ExecutorStats()
	if v := ex.CheckBudgets(); v != "" {
		t.Fatalf("movement budget violated: %s (stats %+v)", v, ex)
	}
	if ex.Queued() == 0 {
		t.Fatal("movement executor saw no requests; load did not stress tier movement")
	}
	srv.Close()
	srv.Exec(func(_ int, fs *dfs.FileSystem) {
		if err := fs.CheckInvariants(); err != nil {
			t.Fatalf("invariants violated after close: %v", err)
		}
	})
}

// TestServedMetadataOps covers the shard-served metadata surface.
func TestServedMetadataOps(t *testing.T) {
	srv, _ := buildServed(t, 4, server.ExecutorConfig{})
	srv.Start()
	defer srv.Close()

	if err := srv.Create("/a/b/one", 8*storage.MB); err != nil {
		t.Fatal(err)
	}
	if err := srv.Create("/a/b/two", 8*storage.MB); err != nil {
		t.Fatal(err)
	}
	if err := srv.Create("/a/b/one", 8*storage.MB); !errors.Is(err, dfs.ErrExists) {
		t.Fatalf("duplicate create: got %v, want ErrExists", err)
	}
	if !srv.Exists("/a/b/one") || srv.Exists("/a/b/three") {
		t.Fatal("Exists answered wrong")
	}
	// Non-canonical spellings must resolve consistently across the whole
	// metadata surface.
	if !srv.Exists("/a//b/./one") {
		t.Fatal("Exists rejected a non-canonical spelling")
	}
	if _, err := srv.Stat("/a//b/one"); err != nil {
		t.Fatalf("Stat rejected a non-canonical spelling: %v", err)
	}
	if got := srv.List("/a//b"); len(got) != 2 {
		t.Fatalf("List of non-canonical dir: %v", got)
	}
	info, err := srv.Stat("/a/b/one")
	if err != nil || info.Size != 8*storage.MB {
		t.Fatalf("Stat: %+v, %v", info, err)
	}
	if got := srv.List("/a/b"); len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("List: %v", got)
	}
	if res, err := srv.Access("/a/b/one"); err != nil || !res.Served {
		t.Fatalf("Access: %+v, %v", res, err)
	}
	if _, err := srv.Access("/a/b/missing"); err == nil {
		t.Fatal("Access of missing path succeeded")
	}
	if err := srv.Delete("/a/b/two"); err != nil {
		t.Fatal(err)
	}
	if srv.Exists("/a/b/two") {
		t.Fatal("deleted file still resolvable")
	}
	if got := srv.List("/a/b"); len(got) != 1 {
		t.Fatalf("List after delete: %v", got)
	}
}

// TestAccessEventsFeedPolicies asserts the drain actually feeds the tracker:
// accesses recorded through the serving hot path must land in the policy
// context's per-file statistics after a flush.
func TestAccessEventsFeedPolicies(t *testing.T) {
	srv, mgr := buildServed(t, 4, server.ExecutorConfig{})
	srv.Start()
	defer srv.Close()

	if err := srv.Create("/feed/f", 8*storage.MB); err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := srv.Access("/feed/f"); err != nil {
			t.Fatal(err)
		}
	}
	srv.Flush()
	var count int64
	srv.Exec(func(_ int, fs *dfs.FileSystem) {
		f, err := fs.Open("/feed/f")
		if err != nil {
			t.Error(err)
			return
		}
		count = mgr.Context().AccessCount(f)
	})
	if count != n {
		t.Fatalf("tracker saw %d accesses, want %d", count, n)
	}
	if st := srv.Stats(); st.EventsDrained != n {
		t.Fatalf("drained %d events, want %d (%+v)", st.EventsDrained, n, st)
	}
}
