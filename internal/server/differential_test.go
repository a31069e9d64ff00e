package server_test

import (
	"math"
	"sort"
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
	"octostore/internal/workload"
)

// The differential acceptance test: one trace of create/access/delete
// operations replayed (a) through the sequential simulation path — direct
// dfs + core.Manager calls with the inline Replication Monitor — and (b)
// through the serving layer with a single client, explicit virtual
// timestamps, the access drain, and the movement executor. Both paths
// quiesce after every operation, and the configurations are matched so that
// neither the monitor's global concurrency cap nor the executor's budgets
// bind; the final tier residency of every file and the capacity accounting
// must then be identical.

// diffOp is one replayed client operation.
type diffOp struct {
	at   time.Duration
	kind int // 0 create, 1 access, 2 delete
	path string
	size int64
}

// diffTrace converts a generated workload into a flat op list: stage each
// input file at its creation offset, access inputs at job arrivals, write
// job outputs after the job's compute time, and delete every fifth output
// half an hour later for delete-path coverage.
func diffTrace(t *testing.T) []diffOp {
	t.Helper()
	p := workload.FB()
	p.NumJobs = 150
	p.Duration = 2 * time.Hour
	// Cap sizes at bin D so files fit the shrunken test cluster.
	p = workload.CapProfile(p, workload.BinD)
	tr := workload.Generate(p, 7)

	var ops []diffOp
	for _, f := range tr.Files {
		ops = append(ops, diffOp{at: f.CreatedAt, kind: 0, path: f.Path, size: f.Size})
	}
	outputs := 0
	for _, j := range tr.Jobs {
		ops = append(ops, diffOp{at: j.Arrival, kind: 1, path: j.InputPath})
		if j.OutputPath != "" {
			ops = append(ops, diffOp{at: j.Arrival + j.CPUPerTask, kind: 0, path: j.OutputPath, size: j.OutputBytes})
			outputs++
			if outputs%5 == 0 {
				ops = append(ops, diffOp{at: j.Arrival + j.CPUPerTask + 30*time.Minute, kind: 2, path: j.OutputPath})
			}
		}
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].at < ops[b].at })
	return ops
}

func diffWorkerSpec() storage.NodeSpec {
	return storage.PaperMediaSpec(1*storage.GB, 8*storage.GB, 64*storage.GB, 2)
}

// buildSystem constructs the matched system-under-test: the monitor's
// concurrency (sequential path) and the executor's per-tier pools (server
// path) are both wide enough that scheduling caps never bind, which is the
// regime in which the two movement engines are semantically identical.
func buildSystem(t *testing.T, down, up string) (*sim.Engine, *dfs.FileSystem, *core.Manager) {
	t.Helper()
	engine := sim.NewEngine()
	cl, err := cluster.New(engine, diffCluster())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(cl, diffDFS())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := buildManager(fs, down, up)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	return engine, fs, mgr
}

func diffCluster() cluster.Config {
	return cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: diffWorkerSpec()}
}

func diffDFS() dfs.Config {
	return dfs.Config{Mode: dfs.ModeOctopus, Seed: 7, ClientRate: 2000e6}
}

func buildManager(fs *dfs.FileSystem, down, up string) (*core.Manager, error) {
	cfg := core.DefaultConfig()
	cfg.MonitorConcurrency = 64
	ctx := core.NewContext(fs, cfg)
	lcfg := ml.DefaultLearnerConfig()
	d, err := policy.NewDowngrade(down, ctx, lcfg)
	if err != nil {
		return nil, err
	}
	u, err := policy.NewUpgrade(up, ctx, lcfg)
	if err != nil {
		return nil, err
	}
	return core.NewManager(ctx, d, u), nil
}

// runSequential is the oracle: the untouched single-threaded sim path.
func runSequential(t *testing.T, ops []diffOp, down, up string) *dfs.FileSystem {
	t.Helper()
	engine, fs, mgr := buildSystem(t, down, up)
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

// runServed replays the same ops through the serving layer — one shard, the
// same topology, file system config and policy stack as the oracle — in
// replay mode (TimeScale 0): one client stamps each op with its virtual time
// and fences with Flush, mirroring the oracle's per-op quiescence.
func runServed(t *testing.T, ops []diffOp, down, up string) *dfs.FileSystem {
	t.Helper()
	huge := int64(1) << 60
	unmetered := math.Inf(1)
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards:  1,
		Cluster: diffCluster(),
		DFS:     diffDFS(),
		Build: func(_ int, fs *dfs.FileSystem) (*core.Manager, error) {
			return buildManager(fs, down, up)
		},
		Inner: server.Config{
			Executor: server.ExecutorConfig{
				WorkersPerTier:  64,
				QueueDepth:      1 << 14,
				BudgetBytes:     [3]int64{huge, huge, huge},
				RateBytesPerSec: [3]float64{unmetered, unmetered, unmetered},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	base := sim.Epoch
	for _, o := range ops {
		at := base.Add(o.at)
		switch o.kind {
		case 0:
			srv.CreateAt(o.path, o.size, at)
		case 1:
			_, _ = srv.AccessAt(o.path, at)
		case 2:
			srv.DeleteAt(o.path, at)
		}
		srv.Flush()
	}
	srv.Close()
	var fs *dfs.FileSystem
	srv.Exec(func(_ int, shardFS *dfs.FileSystem) { fs = shardFS })
	return fs
}

func compareFinalState(t *testing.T, combo string, seq, srv *dfs.FileSystem) {
	t.Helper()
	if err := seq.CheckInvariants(); err != nil {
		t.Fatalf("%s: sequential invariants: %v", combo, err)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatalf("%s: served invariants: %v", combo, err)
	}
	seqRes, srvRes := seq.TierResidency(), srv.TierResidency()
	if len(seqRes) != len(srvRes) {
		t.Fatalf("%s: file count diverged: sequential %d, served %d", combo, len(seqRes), len(srvRes))
	}
	for path, want := range seqRes {
		got, ok := srvRes[path]
		if !ok {
			t.Fatalf("%s: %q exists only in the sequential path", combo, path)
		}
		if got != want {
			t.Fatalf("%s: residency of %q diverged: sequential %v, served %v", combo, path, want, got)
		}
	}
	if a, b := seq.LiveReplicaBytes(), srv.LiveReplicaBytes(); a != b {
		t.Fatalf("%s: live replica bytes diverged: sequential %d, served %d", combo, a, b)
	}
	for _, m := range storage.AllMedia {
		ua, ca := seq.Cluster().TierUsage(m)
		ub, cb := srv.Cluster().TierUsage(m)
		if ua != ub || ca != cb {
			t.Fatalf("%s: %s usage diverged: sequential %d/%d, served %d/%d", combo, m, ua, ca, ub, cb)
		}
	}
	sa, sb := seq.Stats(), srv.Stats()
	if sa.FilesCreated != sb.FilesCreated || sa.FilesDeleted != sb.FilesDeleted || sa.FileAccesses != sb.FileAccesses {
		t.Fatalf("%s: op counts diverged: sequential %+v, served %+v", combo, sa, sb)
	}
	// Guard against the comparison going vacuous: the trace must actually
	// drive tier movement through both movement engines.
	if sa.BytesUpgradedTo[storage.Memory] == 0 {
		t.Fatalf("%s: trace drove no upgrades; differential test is vacuous", combo)
	}
	if sa.BytesDowngradedTo[storage.SSD]+sa.BytesDowngradedTo[storage.HDD] == 0 {
		t.Fatalf("%s: trace drove no downgrades; differential test is vacuous", combo)
	}
}

func TestDifferentialSequentialVsServed(t *testing.T) {
	ops := diffTrace(t)
	combos := []struct{ down, up string }{
		{"lru", "osa"},
		{"exd", "exd"},
		{"lrfu", "lrfu"},
	}
	for _, c := range combos {
		combo := c.down + "/" + c.up
		seq := runSequential(t, ops, c.down, c.up)
		srv := runServed(t, ops, c.down, c.up)
		compareFinalState(t, combo, seq, srv)
	}
}
