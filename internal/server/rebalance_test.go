package server_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"octostore/internal/dfs"
	"octostore/internal/server"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// The rebalancing differential acceptance test: one deterministic trace —
// creates across hot and cold subtrees, skewed accesses concentrated on
// three directories that all hash to the same shard, then deletes — is
// replayed twice through the shards=4 serving layer, once with the
// rebalancer off (pure static routing) and once with it on (detection
// ticks interleaved, subtree migrations, epoch flips). Because migration
// only relocates metadata between engines, both runs must converge to the
// bit-identical final namespace: same files, same per-file tier residency,
// same live bytes, same per-tier used capacity — while the on-run actually
// moves subtrees (vacuity-guarded) and the global ledger conservation
// equation holds through every borrow the migrations drove.

const rebalTick = 3 // trace op kind: run one detection round

// collidingHotDirs returns n directories under /hot that all hash to the
// same shard at the given shard count — the adversarial layout that pins
// one shard under static routing.
func collidingHotDirs(n, shards int) []string {
	target := -1
	var dirs []string
	for i := 0; len(dirs) < n && i < 10000; i++ {
		d := fmt.Sprintf("/hot/d%02d", i)
		if target == -1 {
			target = server.RouteShard(d, shards)
		}
		if server.RouteShard(d, shards) == target {
			dirs = append(dirs, d)
		}
	}
	return dirs
}

func rebalanceTrace(hotDirs []string) []diffOp {
	var ops []diffOp
	step := 0
	at := func() time.Duration { step++; return time.Duration(step) * 2 * time.Second }
	hotPath := func(d, i int) string { return fmt.Sprintf("%s/f%03d", hotDirs[d], i) }
	coldPath := func(i int) string { return fmt.Sprintf("/cold/d%02d/f%03d", i%8, i) }
	const hotPerDir, cold = 8, 40
	for d := range hotDirs {
		for i := 0; i < hotPerDir; i++ {
			ops = append(ops, diffOp{at: at(), kind: 0, path: hotPath(d, i), size: int64(16+(d*hotPerDir+i)%48) * storage.MB})
		}
	}
	for i := 0; i < cold; i++ {
		ops = append(ops, diffOp{at: at(), kind: 0, path: coldPath(i), size: int64(8+i%24) * storage.MB})
	}
	// Skewed access rounds with a detection tick after each: every tick sees
	// a fresh window dominated by the hot subtrees and migrates the hottest
	// one still pinned to the hot shard.
	for round := 0; round < len(hotDirs)+1; round++ {
		for rep := 0; rep < 6; rep++ {
			for d := range hotDirs {
				for i := 0; i < hotPerDir; i++ {
					ops = append(ops, diffOp{at: at(), kind: 1, path: hotPath(d, i)})
				}
			}
		}
		for i := 0; i < cold; i += 4 {
			ops = append(ops, diffOp{at: at(), kind: 1, path: coldPath(i)})
		}
		ops = append(ops, diffOp{kind: rebalTick})
	}
	// Post-migration mutations through the flipped routes: deletes of both
	// migrated and cold files, accesses to what remains.
	for d := range hotDirs {
		ops = append(ops, diffOp{at: at(), kind: 2, path: hotPath(d, 0)})
	}
	for i := 0; i < cold; i += 10 {
		ops = append(ops, diffOp{at: at(), kind: 2, path: coldPath(i)})
	}
	for d := range hotDirs {
		for i := 1; i < hotPerDir; i++ {
			ops = append(ops, diffOp{at: at(), kind: 1, path: hotPath(d, i)})
		}
	}
	return ops
}

// runRebalanceReplay replays the trace at shards=4 in replay mode. The
// rebalancer config is identical in both runs; only Enabled differs, and
// RebalanceTick is a no-op when disabled, so the two runs execute the same
// driver code path.
func runRebalanceReplay(t *testing.T, ops []diffOp, enabled bool) *server.ShardedServer {
	t.Helper()
	huge := int64(1) << 60
	inf := math.Inf(1)
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards:  4,
		Cluster: shardedDiffCluster(),
		DFS:     dfs.Config{Mode: dfs.ModeOctopus, Seed: 7, ClientRate: 2000e6},
		Quota: server.QuotaConfig{
			InitialFraction:   0.25,
			BorrowChunk:       16 * storage.MB,
			ReconcileInterval: 10 * time.Second,
		},
		Inner: server.Config{ // replay mode: TimeScale 0
			Executor: server.ExecutorConfig{
				WorkersPerTier:  64,
				QueueDepth:      1 << 14,
				BudgetBytes:     [3]int64{huge, huge, huge},
				RateBytesPerSec: [3]float64{inf, inf, inf},
			},
		},
		Rebalance: server.RebalanceConfig{
			Enabled:  enabled,
			HotRatio: 1.2,
			MinOps:   32,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	base := sim.Epoch
	for _, o := range ops {
		switch o.kind {
		case 0:
			srv.CreateAt(o.path, o.size, base.Add(o.at)) // fire-and-fence
		case 1:
			_, _ = srv.AccessAt(o.path, base.Add(o.at))
		case 2:
			srv.DeleteAt(o.path, base.Add(o.at))
		case rebalTick:
			srv.RebalanceTick()
		}
		srv.Flush()
	}
	srv.Flush()
	return srv
}

func TestDifferentialRebalanceOnVsOff(t *testing.T) {
	hotDirs := collidingHotDirs(3, 4)
	if len(hotDirs) != 3 {
		t.Fatalf("found %d colliding hot dirs, want 3", len(hotDirs))
	}
	ops := rebalanceTrace(hotDirs)

	off := runRebalanceReplay(t, ops, false)
	on := runRebalanceReplay(t, ops, true)

	// Vacuity: the on-run must actually detect, migrate, and flip — and the
	// off-run must not.
	st := on.RebalanceStats()
	if st.Completed == 0 || st.EpochFlips == 0 || st.FilesMoved == 0 || st.BytesMoved == 0 {
		t.Fatalf("rebalancer-on run moved nothing: %+v", st)
	}
	if st.Routes == 0 {
		t.Fatalf("no route overrides installed: %+v", st)
	}
	if offSt := off.RebalanceStats(); offSt.Started != 0 {
		t.Fatalf("rebalancer-off run migrated: %+v", offSt)
	}
	if spread := st.Spread; spread <= 0 {
		t.Fatalf("no shard-load spread observed: %+v", st)
	}

	// Both runs stand on their own invariants (per-shard accounting, deep
	// structural checks, ledger conservation through every migration borrow).
	if v := off.Verify(); len(v) > 0 {
		t.Fatalf("off-run invariants: %v", v)
	}
	if v := on.Verify(); len(v) > 0 {
		t.Fatalf("on-run invariants: %v", v)
	}

	// Bit-identical namespace convergence.
	offRes, onRes := off.TierResidency(), on.TierResidency()
	if len(offRes) != len(onRes) {
		t.Fatalf("file count diverged: off %d, on %d", len(offRes), len(onRes))
	}
	for path, want := range offRes {
		got, ok := onRes[path]
		if !ok {
			t.Fatalf("%q exists only in the off-run", path)
		}
		if got != want {
			t.Fatalf("residency of %q diverged: off %v, on %v", path, want, got)
		}
	}
	if a, b := off.LiveReplicaBytes(), on.LiveReplicaBytes(); a != b {
		t.Fatalf("live replica bytes diverged: off %d, on %d", a, b)
	}
	for _, m := range storage.AllMedia {
		ua, _ := off.TierUsage(m)
		ub, _ := on.TierUsage(m)
		if ua != ub {
			t.Fatalf("%s used diverged: off %d, on %d", m, ua, ub)
		}
	}

	// The migrated subtrees serve through their flipped routes.
	for _, d := range hotDirs {
		names := on.List(d)
		if len(names) == 0 {
			t.Fatalf("migrated dir %s lists empty", d)
		}
		if got := off.List(d); len(got) != len(names) {
			t.Fatalf("listing of %s diverged: off %d names, on %d", d, len(got), len(names))
		}
		for _, n := range names {
			p := d + "/" + n
			a, errA := off.Stat(p)
			b, errB := on.Stat(p)
			if errA != nil || errB != nil {
				t.Fatalf("stat %s: off %v, on %v", p, errA, errB)
			}
			if a.Size != b.Size || a.Residency != b.Residency {
				t.Fatalf("stat of %s diverged: off %+v, on %+v", p, a, b)
			}
		}
	}

	on.Close()
	off.Close()
}
