package server_test

// The tenant-isolation acceptance suite for the multi-tenant QoS path:
//
// 1. Differential safety: a server whose config declares a single tenant
//    (tagged traffic, per-tenant histograms, no SLO) must reproduce the
//    untenanted server bit-for-bit — residency, capacity accounting,
//    executor stats, and every latency histogram — at shards=1 and 4.
// 2. Isolation: with a flooding tenant saturating the one HDD channel, the
//    victim tenant's read p99 under weighted-fair scheduling must be
//    strictly below its p99 under plain FIFO.
// 3. Quota: a tenant's ledger borrow budget gates creates once its shard
//    quota runs dry, while unmetered tenants keep the whole pool.
// 4. SLO: a tenant breaching its read SLO makes the admission controller
//    defer background movement, and the deferred queue still drains.

import (
	"errors"
	"fmt"
	"math"
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

// runTenantedDiff replays the sharded differential trace through a contended
// plane. When tenanted, the plane and the inner config carry a one-entry
// tenant table for tenant 0 — the identity untagged ops carry — so the
// identical trace then lands in the tenant's accounts as well.
func runTenantedDiff(t *testing.T, ops []diffOp, shards int, tenanted bool) *server.ShardedServer {
	t.Helper()
	huge := int64(1) << 60
	inf := math.Inf(1)
	planeCfg := storage.PlaneConfig{MaxQueue: time.Hour}
	var tenants []server.TenantConfig
	if tenanted {
		tenants = []server.TenantConfig{{ID: 0, Weight: 2}}
		planeCfg.Tenants = server.PlaneTenants(tenants)
	}
	clCfg := shardedDiffCluster()
	clCfg.Plane = storage.NewContendedPlane(planeCfg)
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
			InitialFraction:   0.25,
			BorrowChunk:       16 * storage.MB,
			ReconcileInterval: 10 * time.Second,
		},
		Inner: server.Config{ // replay mode
			Tenants: tenants,
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
	srv.Flush()
	return srv
}

// TestTenantDifferentialBitForBit is the "tenant plumbing changes nothing"
// guarantee: declaring a single tenant (so every op lands in a tenant's
// plane and histogram accounts) must leave residency, capacity accounting,
// executor stats, and the read-latency histograms bit-identical to the
// untenanted replay, at shards=1 and shards=4.
func TestTenantDifferentialBitForBit(t *testing.T) {
	ops := shardedDiffTrace()
	for _, shards := range []int{1, 4} {
		label := fmt.Sprintf("shards=%d", shards)
		plain := runTenantedDiff(t, ops, shards, false)
		tagged := runTenantedDiff(t, ops, shards, true)

		if v := plain.Verify(); len(v) > 0 {
			t.Fatalf("%s: untenanted invariants: %v", label, v)
		}
		if v := tagged.Verify(); len(v) > 0 {
			t.Fatalf("%s: tenanted invariants: %v", label, v)
		}
		plainRes, taggedRes := plain.TierResidency(), tagged.TierResidency()
		if len(plainRes) != len(taggedRes) {
			t.Fatalf("%s: file count diverged: %d vs %d", label, len(plainRes), len(taggedRes))
		}
		for path, want := range plainRes {
			if got := taggedRes[path]; got != want {
				t.Fatalf("%s: residency of %q diverged: %v vs %v", label, path, want, got)
			}
		}
		if a, b := plain.LiveReplicaBytes(), tagged.LiveReplicaBytes(); a != b {
			t.Fatalf("%s: live bytes diverged: %d vs %d", label, a, b)
		}
		for _, m := range storage.AllMedia {
			ua, ca := plain.TierUsage(m)
			ub, cb := tagged.TierUsage(m)
			if ua != ub || ca != cb {
				t.Fatalf("%s: %s usage diverged: %d/%d vs %d/%d", label, m, ua, ca, ub, cb)
			}
			if a, b := plain.ReadLatency(m).Counts(), tagged.ReadLatency(m).Counts(); a != b {
				t.Fatalf("%s: %s read-latency histogram diverged:\nuntenanted %v\ntenanted   %v", label, m, a, b)
			}
		}
		if a, b := plain.ExecutorStats(), tagged.ExecutorStats(); a != b {
			t.Fatalf("%s: executor stats diverged:\nuntenanted %+v\ntenanted   %+v", label, a, b)
		}

		// The tenanted run must have observed every charged read in tenant
		// 0's histogram too — the same latencies, bucket for bucket.
		var total, reads int64
		var tierSum [64]int64
		for _, m := range storage.AllMedia {
			c := tagged.ReadLatency(m).Counts()
			for b, n := range c {
				tierSum[b] += n
				reads += n
			}
		}
		th := tagged.TenantReadLatency(0)
		if th == nil {
			t.Fatalf("%s: configured tenant has no histogram", label)
		}
		tc := th.Counts()
		for b := range tc {
			total += tc[b]
			if tc[b] != tierSum[b] {
				t.Fatalf("%s: tenant histogram bucket %d = %d, tier sum %d", label, b, tc[b], tierSum[b])
			}
		}
		if reads == 0 || total == 0 {
			t.Fatalf("%s: no reads were charged; differential is vacuous", label)
		}
		if st := tagged.SLOStats(); st.Checks != 0 || st.Breaches != 0 {
			t.Fatalf("%s: SLO controller ran without any SLO configured: %+v", label, st)
		}
		plain.Close()
		tagged.Close()
	}
}

// tenantIsolationVictimP99 replays a flood-vs-victim contention pattern on
// one physical HDD channel and returns the victim tenant's read p99. When
// qos is true the plane schedules weighted-fair (victim weight 4, flood
// weight 1); otherwise the identical traffic runs through plain FIFO.
func tenantIsolationVictimP99(t *testing.T, qos bool) time.Duration {
	t.Helper()
	const victim, flood = storage.TenantID(1), storage.TenantID(2)
	tenants := []server.TenantConfig{{ID: victim, Weight: 4}, {ID: flood, Weight: 1}}
	planeCfg := storage.PlaneConfig{MaxQueue: time.Hour}
	if qos {
		planeCfg.Tenants = server.PlaneTenants(tenants)
	}
	clCfg := cluster.Config{
		Workers:      1,
		SlotsPerNode: 4,
		Spec: storage.NodeSpec{
			{Media: storage.Memory, Capacity: 64 * storage.MB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
			{Media: storage.SSD, Capacity: 256 * storage.MB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
			{Media: storage.HDD, Capacity: 32 * storage.GB, ReadBW: 160e6, WriteBW: 140e6, Count: 1},
		},
		Plane: storage.NewContendedPlane(planeCfg),
	}
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards:  1,
		Cluster: clCfg,
		DFS:     dfs.Config{Mode: dfs.ModePinnedHDD, Seed: 9, Replication: 1, ClientRate: 2000e6},
		Inner:   server.Config{Tenants: tenants}, // replay mode, no SLO
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	const files = 20
	base := sim.Epoch
	for i := 0; i < files; i++ {
		srv.CreateAt(fmt.Sprintf("/mix/f%02d", i), 64*storage.MB, base.Add(time.Duration(i)*100*time.Millisecond))
	}
	srv.Flush()

	// Contention rounds 5 virtual seconds apart: the flood tenant hits every
	// file at the round's instant (an open-loop burst far beyond the channel),
	// the victim issues one read at the same instant. The spacing lets the
	// victim's own fair-share horizon drain between rounds while the flood's
	// backlog only grows.
	for r := 0; r < 20; r++ {
		at := base.Add(time.Minute + time.Duration(r)*5*time.Second)
		for i := 0; i < files; i++ {
			if _, err := srv.Do(server.Op{Kind: server.OpAccess, Path: fmt.Sprintf("/mix/f%02d", i), At: at, Tenant: flood}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := srv.Do(server.Op{Kind: server.OpAccess, Path: fmt.Sprintf("/mix/f%02d", r%files), At: at, Tenant: victim}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Flush()
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("qos=%v: invariant violations: %v", qos, v)
	}
	if qos {
		cp := srv.Plane().(*storage.ContendedPlane)
		if err := cp.CheckAccounting(); err != nil {
			t.Fatal(err)
		}
		st := cp.TenantStats()
		if len(st) != 2 || st[0].Requests == 0 || st[1].Requests == 0 {
			t.Fatalf("qos run did not drive both tenants through the plane: %+v", st)
		}
	}
	h := srv.TenantReadLatency(victim)
	if h == nil || h.Count() == 0 {
		t.Fatalf("qos=%v: victim tenant recorded no reads", qos)
	}
	p99 := h.Quantile(0.99)
	srv.Close()
	return p99
}

// TestTenantIsolationLowersVictimP99 is the headline isolation property: the
// victim tenant's read p99 under weighted-fair scheduling is strictly below
// its p99 when the same flood runs through plain FIFO.
func TestTenantIsolationLowersVictimP99(t *testing.T) {
	fifo := tenantIsolationVictimP99(t, false)
	fair := tenantIsolationVictimP99(t, true)
	t.Logf("victim read p99: fifo %v, weighted-fair %v", fifo, fair)
	if fifo == 0 {
		t.Fatal("fifo victim p99 is zero; the flood never queued the victim")
	}
	if fair >= fifo {
		t.Fatalf("weighted-fair victim p99 %v not strictly below fifo %v", fair, fifo)
	}
}

// TestTenantQuotaGatesCreate drives a metered tenant's creates until its
// ledger borrow budget is spent: the tenant then gets dfs.ErrNoCapacity even
// though the global pool still has room, the ledger never records commits
// past the quota, and an unmetered tenant keeps creating.
func TestTenantQuotaGatesCreate(t *testing.T) {
	const metered, open = storage.TenantID(1), storage.TenantID(2)
	quota := [3]int64{}
	quota[storage.HDD] = 256 * storage.MB
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards: 2,
		Cluster: cluster.Config{
			Workers:      2,
			SlotsPerNode: 4,
			Spec: storage.NodeSpec{
				{Media: storage.Memory, Capacity: 64 * storage.MB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
				{Media: storage.SSD, Capacity: 128 * storage.MB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
				{Media: storage.HDD, Capacity: 2 * storage.GB, ReadBW: 160e6, WriteBW: 140e6, Count: 1},
			},
		},
		DFS: dfs.Config{Mode: dfs.ModePinnedHDD, Seed: 13, Replication: 1, ClientRate: 2000e6},
		Quota: server.QuotaConfig{
			InitialFraction: 0.25,
			BorrowChunk:     64 * storage.MB,
		},
		Inner: server.Config{
			TimeScale: 1000, // live pacing so blocking creates advance the clock
			Tenants: []server.TenantConfig{
				{ID: metered, Weight: 1, QuotaBytes: quota},
				{ID: open, Weight: 1},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Ledger().TenantQuota(metered, storage.HDD); got != 256*storage.MB {
		t.Fatalf("tenant quota not wired into the ledger: %d", got)
	}
	srv.Start()
	defer srv.Close()

	// The metered tenant creates 64 MB files into one directory (one shard)
	// until its borrow budget is gone. The shard's initial HDD grant is
	// 0.25/2 of 2 GB per worker = 512 MB, plus at most 256 MB of metered
	// borrows: the create stream must fail before the 2.75 GB pool does.
	var failedAt = -1
	var lastErr error
	for i := 0; i < 24; i++ {
		_, err := srv.Do(server.Op{Kind: server.OpCreate, Path: fmt.Sprintf("/meter/f%02d", i), Size: 64 * storage.MB, Tenant: metered})
		if err != nil {
			failedAt, lastErr = i, err
			break
		}
	}
	if failedAt < 0 {
		t.Fatal("metered tenant was never cut off; quota did not gate creates")
	}
	if !errors.Is(lastErr, dfs.ErrNoCapacity) {
		t.Fatalf("cutoff error = %v, want dfs.ErrNoCapacity", lastErr)
	}
	if got := srv.Ledger().TenantCommittedBytes(metered, storage.HDD); got > 256*storage.MB {
		t.Fatalf("tenant committed %d bytes past its %d quota", got, 256*storage.MB)
	}
	// The pool still has capacity: the unmetered tenant keeps creating into
	// the same (exhausted) shard by borrowing freely.
	if _, err := srv.Do(server.Op{Kind: server.OpCreate, Path: "/meter/open", Size: 64 * storage.MB, Tenant: open}); err != nil {
		t.Fatalf("unmetered tenant blocked after a stranger's quota ran out: %v", err)
	}
	srv.Flush()
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

// TestSLOBreachDefersMovement closes the admission-control loop: a tenant
// with an unmeetable read SLO drives HDD reads, the controller's windowed
// p99 breaches, background movement is deferred — and the deferred queue
// still drains to completion afterwards (the defer wake keeps the engine
// runnable, so Flush cannot hang).
func TestSLOBreachDefersMovement(t *testing.T) {
	const tenant = storage.TenantID(1)
	tenants := []server.TenantConfig{{ID: tenant, Weight: 1, ReadSLO: time.Millisecond}}
	clCfg := cluster.Config{
		Workers:      1,
		SlotsPerNode: 4,
		Spec: storage.NodeSpec{
			{Media: storage.Memory, Capacity: 4 * storage.GB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
			{Media: storage.SSD, Capacity: 8 * storage.GB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
			{Media: storage.HDD, Capacity: 64 * storage.GB, ReadBW: 160e6, WriteBW: 140e6, Count: 1},
		},
		Plane: storage.NewContendedPlane(storage.PlaneConfig{MaxQueue: time.Hour}),
	}
	huge := int64(1) << 60
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards:  1,
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
		Inner: server.Config{ // replay mode
			Tenants: tenants,
			SLO: server.SLOConfig{
				Interval:    5 * time.Second,
				MinSamples:  4,
				DeferWindow: 10 * time.Second,
			},
			Executor: server.ExecutorConfig{
				WorkersPerTier: 4,
				QueueDepth:     256,
				BudgetBytes:    [3]int64{huge, huge, huge},
				MoveLatency:    100 * time.Millisecond,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	const files = 12
	base := sim.Epoch
	for i := 0; i < files; i++ {
		srv.CreateAt(fmt.Sprintf("/slo/f%02d", i), 64*storage.MB, base.Add(time.Duration(i)*100*time.Millisecond))
	}
	srv.Flush()

	// Every HDD read costs >= the 6 ms base latency, so a 1 ms SLO breaches
	// in any judged window. The access stamps span several controller
	// intervals; each access also triggers an OSA upgrade into memory, which
	// the breach must defer and the flush must still drain.
	for i := 0; i < files; i++ {
		at := base.Add(time.Minute + time.Duration(i)*time.Second)
		if _, err := srv.Do(server.Op{Kind: server.OpAccess, Path: fmt.Sprintf("/slo/f%02d", i), At: at, Tenant: tenant}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Flush()

	slo := srv.SLOStats()
	if slo.Checks == 0 || slo.Breaches == 0 {
		t.Fatalf("controller judged nothing: %+v", slo)
	}
	ex := srv.ExecutorStats()
	if ex.Defers == 0 {
		t.Fatalf("breach never deferred movement: slo %+v, executor %+v", slo, ex)
	}
	var upgraded int64
	srv.Exec(func(_ int, fs *dfs.FileSystem) {
		upgraded = fs.Stats().BytesUpgradedTo[storage.Memory]
	})
	if upgraded == 0 {
		t.Fatal("deferred movement never drained; upgrades were lost, not postponed")
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariant violations: %v", v)
	}
	srv.Close()
}
