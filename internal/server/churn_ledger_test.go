package server_test

import (
	"math"
	"testing"
	"time"

	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/scenario"
	"octostore/internal/server"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// grantedCapacity is the "granted" term of the ledger's conservation
// equation: every shard view's device capacity, per tier.
func grantedCapacity(srv *server.ShardedServer) (granted [3]int64) {
	for _, m := range storage.AllMedia {
		_, granted[m] = srv.TierUsage(m)
	}
	return granted
}

// TestInLoopChurnSettlesLedgerAtOneShard is `octoload -scenario node-churn`
// without the wall clock: the catalog's node-churn entry attached to a
// one-shard server, whose perturbation calls fs.FailNode / fs.AddNode
// directly on the shard loop — not through ShardedServer.FailNode, which
// cannot run inside a loop. The shard's membership hook must settle the
// ledger total and the quota baseline all the same, or Verify reports the
// conservation equation diverged.
func TestInLoopChurnSettlesLedgerAtOneShard(t *testing.T) {
	sc, err := scenario.Get("node-churn")
	if err != nil {
		t.Fatal(err)
	}
	opts := scenario.Options{Seed: 1, Fast: true}
	clCfg := sc.Cluster(opts)
	huge := int64(1) << 60
	inf := math.Inf(1)
	var mgr *core.Manager
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards:  1,
		Cluster: clCfg,
		DFS:     dfs.Config{Mode: dfs.ModeOctopus, Seed: opts.Seed, ClientRate: 2000e6},
		Build: func(_ int, fs *dfs.FileSystem) (*core.Manager, error) {
			var err error
			mgr, err = buildManager(fs, "lru", "osa")
			return mgr, err
		},
		Inner: server.Config{ // replay mode
			Executor: server.ExecutorConfig{
				WorkersPerTier:  64,
				QueueDepth:      1 << 14,
				BudgetBytes:     [3]int64{huge, huge, huge},
				RateBytesPerSec: [3]float64{inf, inf, inf},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	before := grantedCapacity(srv)

	files := sc.Trace(opts).Files
	at := sim.Epoch
	for _, f := range files {
		at = at.Add(time.Second)
		ch := srv.CreateAt(f.Path, f.Size, at)
		srv.Flush()
		if err := <-ch; err != nil {
			t.Fatalf("stage %s: %v", f.Path, err)
		}
	}

	srv.Exec(func(shard int, fs *dfs.FileSystem) {
		scenario.Attach(sc, &scenario.Replay{
			System:  scenario.System{Name: "lru/osa", Mode: dfs.ModeOctopus, Down: "lru", Up: "osa"},
			Opts:    opts,
			Engine:  fs.Engine(),
			Cluster: fs.Cluster(),
			FS:      fs,
			Manager: mgr,
		})
	})
	// The worker leaves 40 virtual minutes after the attach and a fresh one
	// joins at 80; stamped reads walk the shard's clock to 60 and then 100.
	settled := func(label string, wantNodes int) [3]int64 {
		t.Helper()
		for step := 0; step < 6; step++ {
			at = at.Add(10 * time.Minute)
			if _, err := srv.AccessAt(files[step%len(files)].Path, at); err != nil {
				t.Fatalf("access: %v", err)
			}
			srv.Flush()
		}
		left, nodes := false, 0
		srv.Exec(func(_ int, fs *dfs.FileSystem) {
			left = fs.NodeRemoved(clCfg.Workers - 1)
			nodes = len(fs.Cluster().Nodes())
		})
		if !left || nodes != wantNodes {
			t.Fatalf("%s: churn did not run: victim removed %v, %d nodes (want %d)", label, left, nodes, wantNodes)
		}
		if v := srv.Verify(); len(v) > 0 {
			t.Fatalf("%s: invariants after in-loop churn: %v", label, v)
		}
		granted := grantedCapacity(srv)
		for _, m := range storage.AllMedia {
			if got := srv.Ledger().TotalBytes(m); got != granted[m] {
				t.Fatalf("%s: %s ledger total %d, want the granted capacity %d (one shard holds everything)", label, m, got, granted[m])
			}
		}
		return granted
	}
	if afterLeave := settled("after leave", clCfg.Workers-1); afterLeave[storage.HDD] >= before[storage.HDD] {
		t.Fatalf("capacity did not shrink with the lost worker: %v, was %v", afterLeave, before)
	}
	if afterJoin := settled("after join", clCfg.Workers); afterJoin != before {
		t.Fatalf("capacity after an identical worker joined: %v, want %v", afterJoin, before)
	}
}

// TestInLoopChurnConservesAcrossShards applies the same direct fs.FailNode
// inside every shard loop of a four-shard server: each shard's hook takes
// its own slice out of the ledger total, so conservation holds without the
// fan-out API (only the dead node's pooled remainder stays lendable, which
// the equation does not see).
func TestInLoopChurnConservesAcrossShards(t *testing.T) {
	const shards, workers = 4, 4
	srv := buildSharded(t, shards, workers)
	srv.Start()
	defer srv.Close()
	before := grantedCapacity(srv)

	srv.Exec(func(_ int, fs *dfs.FileSystem) { fs.FailNode(fs.Cluster().Node(workers - 1)) })

	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants after in-loop FailNode on every shard: %v", v)
	}
	after := grantedCapacity(srv)
	for _, m := range storage.AllMedia {
		if after[m] >= before[m] {
			t.Fatalf("%s granted capacity %d did not shrink from %d", m, after[m], before[m])
		}
	}
}
