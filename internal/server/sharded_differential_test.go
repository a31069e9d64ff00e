package server_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"octostore/internal/backend"
	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/ml"
	"octostore/internal/policy"
	"octostore/internal/server"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// The sharded differential acceptance test: one trace of create / access /
// delete operations replayed (a) through the sequential single-engine
// simulator and (b) through the sharded serving layer at shards=4 (and the
// shards=1 degenerate case), fencing after every operation. The trace is
// chosen so the policy decisions are shard-invariant — PinnedHDD placement
// (every create lands fully on HDD) plus the OSA upgrade policy with a
// memory tier that globally fits the accessed set — so the final tier
// residency of every file and the aggregate capacity accounting must be
// identical even though the sharded run splits capacity into quotas and
// must drive the two-phase borrow protocol to fit its upgrades.

func shardedDiffSpec() storage.NodeSpec {
	return storage.PaperMediaSpec(1*storage.GB, 4*storage.GB, 32*storage.GB, 2)
}

func shardedDiffCluster() cluster.Config {
	return cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: shardedDiffSpec()}
}

// shardedDiffTrace builds a deterministic op list spread over 16 parent
// directories: 120 creates (16–160 MB), accesses over a 40-file hot set
// (total well under the 4 GB global memory tier), and deletes of both
// accessed and never-accessed files.
func shardedDiffTrace() []diffOp {
	var ops []diffOp
	path := func(i int) string { return fmt.Sprintf("/data/d%02d/f%03d", i%16, i) }
	at := func(i int) time.Duration { return time.Duration(i) * 10 * time.Second }
	const files = 120
	step := 0
	for i := 0; i < files; i++ {
		size := int64(16+(i*7)%145) * storage.MB // 16..160 MB, deterministic
		ops = append(ops, diffOp{at: at(step), kind: 0, path: path(i), size: size})
		step++
	}
	// Hot set: every third file, accessed twice (second access exercises the
	// already-resident fast path of OSA).
	for round := 0; round < 2; round++ {
		for i := 0; i < files; i += 3 {
			ops = append(ops, diffOp{at: at(step), kind: 1, path: path(i)})
			step++
		}
	}
	// Deletes: some accessed (memory-resident) files, some cold ones.
	for i := 0; i < files; i += 10 {
		ops = append(ops, diffOp{at: at(step), kind: 2, path: path(i)})
		step++
	}
	return ops
}

// shardedOracle replays the trace through the untouched sequential path:
// one engine, the full-capacity cluster, PinnedHDD placement, OSA upgrades
// via the inline Replication Monitor.
func shardedOracle(t *testing.T, ops []diffOp) *dfs.FileSystem {
	t.Helper()
	engine := sim.NewEngine()
	cl, err := cluster.New(engine, shardedDiffCluster())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(cl, dfs.Config{Mode: dfs.ModePinnedHDD, Seed: 7, ClientRate: 2000e6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.MonitorConcurrency = 64
	ctx := core.NewContext(fs, cfg)
	up, err := policy.NewUpgrade("osa", ctx, ml.DefaultLearnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(ctx, nil, up)
	mgr.Start()
	mon := mgr.Monitor()
	creating := 0
	quiesce := func() {
		for (creating > 0 || mon.Active() > 0 || mon.QueueLen() > 0) && engine.Step() {
		}
	}
	base := engine.Now()
	for _, o := range ops {
		engine.RunUntil(base.Add(o.at))
		switch o.kind {
		case 0:
			creating++
			fs.Create(o.path, o.size, func(*dfs.File, error) { creating-- })
		case 1:
			if f, err := fs.Open(o.path); err == nil {
				fs.RecordAccess(f)
			}
		case 2:
			if f, err := fs.Open(o.path); err == nil {
				_ = fs.Delete(f)
			}
		}
		quiesce()
	}
	quiesce()
	mgr.Stop()
	return fs
}

// newShardedReplayServer builds and starts the replay-mode sharded server
// the differential tests share: PinnedHDD placement, OSA upgrades, quarter
// quotas. plane (optional) is attached to every shard's cluster view.
func newShardedReplayServer(t *testing.T, shards int, plane storage.DataPlane) *server.ShardedServer {
	t.Helper()
	return newShardedReplayServerBackend(t, shards, plane, nil)
}

// newShardedReplayServerBackend is the same fixture with a per-shard storage
// backend attached (nil mkBackend = the default virtual-only path).
func newShardedReplayServerBackend(t *testing.T, shards int, plane storage.DataPlane, mkBackend func(int) backend.Backend) *server.ShardedServer {
	t.Helper()
	huge := int64(1) << 60
	inf := math.Inf(1)
	clCfg := shardedDiffCluster()
	clCfg.Plane = plane
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards:  shards,
		Cluster: clCfg,
		DFS:     dfs.Config{Mode: dfs.ModePinnedHDD, Seed: 7, ClientRate: 2000e6},
		Build: func(_ int, fs *dfs.FileSystem) (*core.Manager, error) {
			cfg := core.DefaultConfig()
			cfg.MonitorConcurrency = 64
			ctx := core.NewContext(fs, cfg)
			up, err := policy.NewUpgrade("osa", ctx, ml.DefaultLearnerConfig())
			if err != nil {
				return nil, err
			}
			return core.NewManager(ctx, nil, up), nil
		},
		Quota: server.QuotaConfig{
			// A quarter of each device granted up front: per-shard memory
			// quota (256 MB) cannot hold the shard's slice of the hot set,
			// so upgrades must borrow through the two-phase protocol.
			InitialFraction:   0.25,
			BorrowChunk:       16 * storage.MB,
			ReconcileInterval: 10 * time.Second,
		},
		Backend: mkBackend,
		Inner: server.Config{ // replay mode: TimeScale 0
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
	return srv
}

// runShardedReplay replays the trace through the sharded engine in replay
// mode, fencing after every op, and returns the server un-closed so the
// caller can inspect and then close it.
func runShardedReplay(t *testing.T, ops []diffOp, shards int, plane storage.DataPlane) *server.ShardedServer {
	t.Helper()
	return runShardedReplayBackend(t, ops, shards, plane, nil)
}

func runShardedReplayBackend(t *testing.T, ops []diffOp, shards int, plane storage.DataPlane, mkBackend func(int) backend.Backend) *server.ShardedServer {
	t.Helper()
	srv := newShardedReplayServerBackend(t, shards, plane, mkBackend)
	base := sim.Epoch
	for _, o := range ops {
		at := base.Add(o.at)
		switch o.kind {
		case 0:
			// Fire-and-fence: the Flush below steps the shard engine until
			// the write pipeline commits (receiving here would deadlock —
			// replay mode only advances virtual time inside the fence).
			srv.CreateAt(o.path, o.size, at)
		case 1:
			_, _ = srv.AccessAt(o.path, at)
		case 2:
			srv.DeleteAt(o.path, at)
		}
		srv.Flush()
	}
	srv.Flush()
	return srv
}

func compareShardedToOracle(t *testing.T, label string, seq *dfs.FileSystem, srv *server.ShardedServer) {
	t.Helper()
	if err := seq.CheckInvariants(); err != nil {
		t.Fatalf("%s: sequential invariants: %v", label, err)
	}
	if violations := srv.Verify(); len(violations) > 0 {
		t.Fatalf("%s: sharded invariants: %v", label, violations)
	}
	seqRes, srvRes := seq.TierResidency(), srv.TierResidency()
	if len(seqRes) != len(srvRes) {
		t.Fatalf("%s: file count diverged: sequential %d, sharded %d", label, len(seqRes), len(srvRes))
	}
	for path, want := range seqRes {
		got, ok := srvRes[path]
		if !ok {
			t.Fatalf("%s: %q exists only in the sequential path", label, path)
		}
		if got != want {
			t.Fatalf("%s: residency of %q diverged: sequential %v, sharded %v", label, path, want, got)
		}
	}
	if a, b := seq.LiveReplicaBytes(), srv.LiveReplicaBytes(); a != b {
		t.Fatalf("%s: live replica bytes diverged: sequential %d, sharded %d", label, a, b)
	}
	for _, m := range storage.AllMedia {
		ua, ca := seq.Cluster().TierUsage(m)
		ub, cb := srv.TierUsage(m)
		if ua != ub {
			t.Fatalf("%s: %s used diverged: sequential %d, sharded %d", label, m, ua, ub)
		}
		// The sharded capacity splits into granted quota + pooled + reserved;
		// physical totals must agree with the oracle's cluster.
		ledger := srv.Ledger()
		if total := ledger.TotalBytes(m); total != ca {
			t.Fatalf("%s: %s total capacity diverged: sequential %d, ledger %d", label, m, ca, total)
		}
		if got := cb + ledger.FreeBytes(m) + ledger.ReservedBytes(m); got != ca {
			t.Fatalf("%s: %s conservation: granted %d + pool = %d, want %d", label, m, cb, got, ca)
		}
	}
	// Vacuity guards: the trace must actually drive upgrades, and the
	// sharded run must actually exercise the cross-shard borrow protocol.
	if seq.Stats().BytesUpgradedTo[storage.Memory] == 0 {
		t.Fatalf("%s: trace drove no upgrades; differential test is vacuous", label)
	}
}

func TestDifferentialShardedVsSequential(t *testing.T) {
	ops := shardedDiffTrace()
	seq := shardedOracle(t, ops)

	sharded := runShardedReplay(t, ops, 4, nil)
	compareShardedToOracle(t, "shards=4", seq, sharded)
	if q := sharded.QuotaStats(); q.Borrows == 0 {
		t.Fatalf("shards=4 run never borrowed quota; the cross-shard protocol went unexercised (%+v)", q)
	}
	sharded.Close()

	// The degenerate case: one shard must also match the oracle, with the
	// whole capacity granted up front and zero ledger traffic.
	single := runShardedReplay(t, ops, 1, nil)
	compareShardedToOracle(t, "shards=1", seq, single)
	if q := single.QuotaStats(); q.Borrows != 0 || q.ReturnedBytes != 0 {
		t.Fatalf("shards=1 run touched the ledger: %+v", q)
	}
	single.Close()
}

// The full-queue row. The rows above never fill the executor queue (depth
// 16 384, fenced after every op), so they cannot tell shedding from
// backpressure. This one stages a burst that overflows the memory tier behind
// one worker and a one-deep queue per tier and fences once, at one shard and
// at four. Each shard holds a fixed quarter of the capacity (nothing pooled,
// so no borrow order to depend on), evicts by its own LRU and has its own
// executor, so the two runs need not keep the same files in memory; what must
// agree is everything a converged loop decides regardless of the partition:
// the population, its replica bytes, nothing shed and no cooldown left, and
// every shard's memory tier under its watermark when Flush returns. The
// per-tier resident counts are recorded next to what the parent commit (shed,
// then a one-minute cooldown) left behind on the same trace.
func TestDifferentialFullQueueOneVsFourShards(t *testing.T) {
	type outcome struct {
		resident                 [3]int // files fully resident per tier after the fence
		moved, failed, shed      int64
		overWatermark, cooldowns int
	}
	run := func(shards int) (outcome, map[string][3]bool, int64) {
		mgrs := make([]*core.Manager, shards)
		srv, err := server.NewSharded(server.ShardedConfig{
			Shards:  shards,
			Cluster: shardedDiffCluster(),
			DFS:     dfs.Config{Mode: dfs.ModeOctopus, Seed: 7, ClientRate: 2000e6},
			Build: func(i int, fs *dfs.FileSystem) (m *core.Manager, err error) {
				mgrs[i], err = policy.NewManager(fs, "lru", "osa", ml.DefaultLearnerConfig())
				return mgrs[i], err
			},
			Quota: server.QuotaConfig{InitialFraction: 1},
			Inner: server.Config{Executor: server.ExecutorConfig{WorkersPerTier: 1, QueueDepth: 1}}, // replay mode
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		defer srv.Close()
		// 240 files of 16..160 MB, two seconds apart: 21 GB offered to a 4 GB
		// memory tier whose one mover per shard needs 5 s a move.
		for i := 0; i < 240; i++ {
			size := int64(16+(i*7)%145) * storage.MB
			srv.CreateAt(fmt.Sprintf("/data/d%02d/f%03d", i%16, i), size, sim.Epoch.Add(time.Duration(i)*2*time.Second))
		}
		srv.Flush()
		if v := srv.Verify(); len(v) > 0 {
			t.Fatalf("shards=%d: %v", shards, v)
		}
		var out outcome
		res := srv.TierResidency()
		for _, r := range res {
			for _, m := range storage.AllMedia {
				if r[m] {
					out.resident[m]++
				}
			}
		}
		for _, tier := range srv.ExecutorStats().PerTier {
			out.moved, out.failed, out.shed = out.moved+tier.Completed, out.failed+tier.Failed, out.shed+tier.Shed
		}
		srv.Exec(func(i int, _ *dfs.FileSystem) {
			if mgrs[i].Context().AboveHighWatermark(storage.Memory) {
				out.overWatermark++
			}
			_, cooling := mgrs[i].ParkedFiles()
			out.cooldowns += int(cooling)
		})
		return out, res, srv.LiveReplicaBytes()
	}
	one, oneRes, oneBytes := run(1)
	four, fourRes, fourBytes := run(4)
	t.Logf("shards=1: %+v", one)
	t.Logf("shards=4: %+v", four)

	if len(oneRes) != 240 || len(fourRes) != 240 {
		t.Fatalf("population diverged: %d files at one shard, %d at four", len(oneRes), len(fourRes))
	}
	for path := range oneRes {
		if _, ok := fourRes[path]; !ok {
			t.Fatalf("%q exists only at one shard", path)
		}
	}
	if oneBytes != fourBytes {
		t.Fatalf("live replica bytes diverged: %d at one shard, %d at four", oneBytes, fourBytes)
	}
	// The parent commit on this trace: at one shard MEM/SSD/HDD 44/157/240
	// resident, 64 moved, 5 failed, 713 shed, the shard still over its memory
	// watermark when Flush returned and 163 files cooling down; at four 52/138/240,
	// 175 moved, 0 failed, 449 shed, 71 cooling down. The failures left here
	// are SSD destinations that were full by the time the move started.
	want := [2]outcome{
		{resident: [3]int{45, 133, 240}, moved: 131, failed: 29},
		{resident: [3]int{50, 144, 240}, moved: 212, failed: 1},
	}
	if one != want[0] || four != want[1] {
		t.Fatalf("outcomes moved:\n shards=1 %+v\n    want %+v\n shards=4 %+v\n    want %+v", one, want[0], four, want[1])
	}
}
