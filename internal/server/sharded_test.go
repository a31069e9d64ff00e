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

// buildSharded wires a managed sharded serving layer under live pacing with
// deliberately tight movement budgets and small initial quotas, so both the
// token bucket and the cross-shard borrow protocol carry real traffic.
func buildSharded(t *testing.T, shards, workers int) *server.ShardedServer {
	t.Helper()
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards: shards,
		Cluster: cluster.Config{
			Workers: workers, SlotsPerNode: 4, Spec: servedWorkerSpec(),
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
	return srv
}

// TestShardedConcurrentClientsWithChurn is the sharded race-suite
// acceptance test: 8 concurrent closed-loop clients create, access, stat,
// list, and delete files routed across 4 shard engines while a worker node
// fails on every shard, a fresh one joins, movement executors drain
// upgrades/downgrades under token budgets, and shard quotas borrow from and
// reconcile against the global ledger. At the end the full invariant suite
// — per-shard accounting, deep structural checks, index audits, ledger
// conservation, movement budgets — must be clean.
func TestShardedConcurrentClientsWithChurn(t *testing.T) {
	const (
		shards       = 4
		clients      = 8
		sharedFiles  = 48
		opsPerClient = 200
	)
	srv := buildSharded(t, shards, 5)
	srv.Start()

	shared := make([]string, sharedFiles)
	for i := 0; i < sharedFiles; i++ {
		// 12 parent directories so the population spans every shard.
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
				if _, err := srv.Do(server.Op{Kind: server.OpCreate, Path: shared[i], Size: size}); err != nil {
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

	// Mid-load churn: fail the highest-id worker on every shard, then join a
	// fresh one (ids stay aligned across shards through the fan-out API).
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
			rng := rand.New(rand.NewSource(int64(7000 + c)))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(sharedFiles-1))
			var own []string
			for i := 0; i < opsPerClient; i++ {
				switch r := rng.Float64(); {
				case r < 0.70:
					if _, err := srv.Do(server.Op{Kind: server.OpAccess, Path: shared[zipf.Uint64()]}); err != nil {
						t.Errorf("client %d access: %v", c, err)
						return
					}
				case r < 0.80:
					if _, err := srv.Stat(shared[rng.Intn(sharedFiles)]); err != nil {
						t.Errorf("client %d stat: %v", c, err)
						return
					}
				case r < 0.84:
					srv.List("/hot/d03")
				case r < 0.95 || len(own) == 0:
					path := fmt.Sprintf("/scratch/c%d/f%04d", c, i)
					if _, err := srv.Do(server.Op{Kind: server.OpCreate, Path: path, Size: (4 + rng.Int63n(28)) * storage.MB}); err != nil {
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
		t.Fatalf("invariants violated after sharded concurrent load: %v", violations)
	}
	stats := srv.Stats()
	if stats.Accesses == 0 || stats.Creates == 0 {
		t.Fatalf("load did not exercise the server: %+v", stats)
	}
	if srv.ExecutorStats().Queued() == 0 {
		t.Fatal("movement executors saw no requests; load did not stress tier movement")
	}
	srv.Close()
	// After Close the loops are stopped; the invariants must still hold.
	if violations := srv.Verify(); len(violations) > 0 {
		t.Fatalf("invariants violated after close: %v", violations)
	}
}

// TestShardedMetadataRouting covers the routed metadata surface: canonical
// and non-canonical spellings must resolve to the same shard, listings stay
// single-shard, and the population actually spans multiple shard engines.
func TestShardedMetadataRouting(t *testing.T) {
	srv := buildSharded(t, 3, 4)
	srv.Start()
	defer srv.Close()

	dirs := []string{"/a/b", "/c", "/d/e/f", "/g", "/h/i", "/j/k"}
	total := 0
	for di, dir := range dirs {
		for f := 0; f < 3; f++ {
			path := fmt.Sprintf("%s/file%d%d", dir, di, f)
			if _, err := srv.Do(server.Op{Kind: server.OpCreate, Path: path, Size: 8 * storage.MB}); err != nil {
				t.Fatalf("create %s: %v", path, err)
			}
			total++
		}
	}
	if _, err := srv.Do(server.Op{Kind: server.OpCreate, Path: "/a/b/file00", Size: 8 * storage.MB}); !errors.Is(err, dfs.ErrExists) {
		t.Fatalf("duplicate create: got %v, want ErrExists", err)
	}
	// Non-canonical spellings route through the cleaner to the right shard.
	if _, err := srv.Stat("/a//b/./file00"); err != nil {
		t.Fatalf("Stat rejected a non-canonical spelling: %v", err)
	}
	if _, err := srv.Stat("/d/e//f/file20"); err != nil {
		t.Fatalf("Stat rejected a non-canonical spelling: %v", err)
	}
	if got := srv.List("/a//b"); len(got) != 3 {
		t.Fatalf("List of non-canonical dir: %v", got)
	}
	if res, err := srv.Do(server.Op{Kind: server.OpAccess, Path: "/c/file10"}); err != nil || !res.Served {
		t.Fatalf("Access: %+v, %v", res, err)
	}
	if _, err := srv.Do(server.Op{Kind: server.OpAccess, Path: "/c/missing"}); err == nil {
		t.Fatal("Access of missing path succeeded")
	}
	if _, err := srv.Do(server.Op{Kind: server.OpDelete, Path: "/g/file30"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Stat("/g/file30"); !errors.Is(err, dfs.ErrNotFound) {
		t.Fatalf("deleted file still resolvable: %v", err)
	}
	// The namespace must actually be partitioned: count files per shard.
	perShard := make([]int, srv.NumShards())
	sum := 0
	srv.Exec(func(shard int, fs *dfs.FileSystem) {
		perShard[shard] = len(fs.LiveFiles())
		sum += len(fs.LiveFiles())
	})
	if sum != total-1 {
		t.Fatalf("per-shard files sum to %d, want %d (%v)", sum, total-1, perShard)
	}
	populated := 0
	for _, n := range perShard {
		if n > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("population landed on %d shard(s); namespace is not partitioned (%v)", populated, perShard)
	}
	if violations := srv.Verify(); len(violations) > 0 {
		t.Fatalf("invariants: %v", violations)
	}
}

// TestShardedFailNodeSettlesPooledCapacity asserts node loss takes the
// dead node's unclaimed pooled share out of circulation: the ledger total
// drops by the node's full physical capacity (quota slices plus pooled
// remainder), not just by the granted slices, so the pool cannot lend out
// capacity that no longer exists; a later join restores both sides.
func TestShardedFailNodeSettlesPooledCapacity(t *testing.T) {
	const shards, workers = 4, 4
	srv := buildSharded(t, shards, workers)
	srv.Start()
	defer srv.Close()

	ledger := srv.Ledger()
	spec := servedWorkerSpec()
	var nodeCap [3]int64
	for _, ds := range spec {
		nodeCap[ds.Media] += ds.Capacity * int64(ds.Count)
	}
	totalBefore := [3]int64{
		ledger.TotalBytes(storage.Memory), ledger.TotalBytes(storage.SSD), ledger.TotalBytes(storage.HDD),
	}
	srv.FailNode(workers - 1) // empty node: no borrows happened, full debit
	for _, m := range storage.AllMedia {
		if got, want := ledger.TotalBytes(m), totalBefore[m]-nodeCap[m]; got != want {
			t.Fatalf("%s ledger total after FailNode: %d, want %d (node physical capacity settled)", m, got, want)
		}
	}
	if violations := srv.Verify(); len(violations) > 0 {
		t.Fatalf("invariants after FailNode: %v", violations)
	}
	srv.AddNode(spec, 4)
	for _, m := range storage.AllMedia {
		if got := ledger.TotalBytes(m); got != totalBefore[m] {
			t.Fatalf("%s ledger total after AddNode: %d, want %d", m, got, totalBefore[m])
		}
	}
	if violations := srv.Verify(); len(violations) > 0 {
		t.Fatalf("invariants after AddNode: %v", violations)
	}
}

// TestShardedReserveWithoutCommitNeverLeaks is the server-level
// crash-consistency test for the cross-shard move protocol: a reservation
// taken from the live server's ledger and never committed (its would-be
// owner "crashed" between the phases) must keep the conservation equation
// intact — Verify stays clean with the reservation outstanding — and an
// abort must restore the pool exactly.
func TestShardedReserveWithoutCommitNeverLeaks(t *testing.T) {
	srv := buildSharded(t, 4, 4)
	srv.Start()
	defer srv.Close()

	for i := 0; i < 12; i++ {
		if _, err := srv.Do(server.Op{Kind: server.OpCreate, Path: fmt.Sprintf("/crash/d%d/f%02d", i%4, i), Size: 16 * storage.MB}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Flush()

	ledger := srv.Ledger()
	freeBefore := ledger.FreeBytes(storage.SSD)
	if freeBefore <= 0 {
		t.Fatalf("pool empty before reservation: %d", freeBefore)
	}
	res, ok := ledger.Reserve(storage.SSD, freeBefore/2)
	if !ok {
		t.Fatal("reserve failed")
	}
	// Phase two never happens. The capacity must not leak: it is visible in
	// the reserved account and the full invariant suite still balances.
	if violations := srv.Verify(); len(violations) > 0 {
		t.Fatalf("conservation broken with unresolved reservation: %v", violations)
	}
	if got := ledger.ReservedBytes(storage.SSD); got != freeBefore/2 {
		t.Fatalf("reserved account %d, want %d", got, freeBefore/2)
	}
	res.Abort()
	if got := ledger.FreeBytes(storage.SSD); got != freeBefore {
		t.Fatalf("pool after abort %d, want %d", got, freeBefore)
	}
	if violations := srv.Verify(); len(violations) > 0 {
		t.Fatalf("conservation broken after abort: %v", violations)
	}
}
