package loadgen

import (
	"testing"
	"time"

	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/server"
	"octostore/internal/sim"
)

// The movement loop's liveness, pinned on the population that used to hang
// octoload (-arrival open -rate 100000 -dur 4s -timescale 120 -shards 4
// -workload fixed -files N -filesize 1): the same stack, the same open-loop
// schedule, but replayed with explicit stamps so the outcome does not depend
// on the wall clock. The final Flush must return, and what it and the managers
// did must be proportional to the work submitted, not to how often a refused
// move can be re-selected.

func TestOpenLoopReplayConverges20k(t *testing.T) { openLoopReplayConverges(t, 20_000) }

func TestOpenLoopReplayConverges200k(t *testing.T) {
	if testing.Short() {
		t.Skip("200 000 files: skipped with -short")
	}
	openLoopReplayConverges(t, 200_000)
}

func openLoopReplayConverges(t *testing.T, files int) {
	c := testConfig()
	c.Arrival, c.Rate, c.Dur, c.TimeScale = "open", 100_000, 4*time.Second, 120
	c.Shards, c.Workload, c.Files = 4, "fixed", files
	pop := testPopulation(&c)
	schedule := openSchedule(&c, pop)

	mgrs := make([]*core.Manager, c.Shards)
	scfg := c.sharded(c.cluster(), mgrs)
	scfg.Inner.TimeScale = 0 // replay mode: every op carries its stamp
	srv, err := server.NewSharded(scfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	cooldowns := func(m *core.Manager) (n int64) {
		for _, r := range core.CooldownReasons {
			n += m.Cooldowns(r)
		}
		return n
	}
	// The wall budget covers the whole replay; the change needs a few
	// seconds of it at 200 000 files.
	deadline := time.After(2 * time.Minute)
	fence := func(what string) {
		t.Helper()
		done := make(chan struct{})
		go func() { srv.Flush(); close(done) }()
		select {
		case <-done:
		case <-deadline:
			var set int64
			for _, m := range mgrs {
				set += cooldowns(m)
			}
			t.Fatalf("%s did not return inside the wall budget (%d cooldowns set so far over %d files)", what, set, files)
		}
	}

	// Preload at the pace the live run stages at: about 3 ms of virtual time
	// per create.
	at := sim.Epoch
	var pending []<-chan error
	for _, f := range pop.files {
		at = at.Add(3 * time.Millisecond)
		pending = append(pending, srv.Submit(server.Op{Kind: server.OpCreate, Path: f.Path, Size: f.Size, At: at}))
	}
	fence("the preload fence")
	for _, ch := range pending {
		if err := <-ch; err != nil {
			t.Fatalf("preload: %v", err)
		}
	}

	var base time.Time
	srv.Exec(func(_ int, fs *dfs.FileSystem) {
		if now := fs.Engine().Now(); now.After(base) {
			base = now
		}
	})
	for _, so := range schedule {
		stamp := base.Add(time.Duration(float64(so.offset) * c.TimeScale))
		switch so.kind {
		case opStat:
			_, _ = srv.Stat(so.path)
		case opAccess:
			_, _ = srv.Do(server.Op{Kind: server.OpAccess, Path: so.path, At: stamp})
		default:
			srv.Submit(server.Op{Kind: so.kind.serverKind(), Path: so.path, Size: so.size, At: stamp})
		}
	}

	// Exec queues behind every op submitted above, so these are the engines'
	// event counts with the schedule applied and only the fence left to run.
	fired := make([]uint64, c.Shards)
	srv.Exec(func(i int, fs *dfs.FileSystem) { fired[i] = fs.Engine().Fired() })
	fence("the final Flush")
	var steps uint64
	perShardFiles := make([]int, c.Shards)
	srv.Exec(func(i int, fs *dfs.FileSystem) {
		steps += fs.Engine().Fired() - fired[i]
		perShardFiles[i] = fs.Namespace().FileCount()
	})
	srv.Close()
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}

	ops := uint64(len(pop.files) + len(schedule))
	t.Logf("%d files, %d ops: final Flush took %d engine steps", files, ops, steps)
	if steps > ops {
		t.Errorf("the final Flush took %d engine steps for %d submitted ops", steps, ops)
	}
	for i, m := range mgrs {
		t.Logf("shard %d: %d files, %d cooldowns set", i, perShardFiles[i], cooldowns(m))
		if set := cooldowns(m); set > int64(perShardFiles[i]) {
			t.Errorf("shard %d set %d cooldowns over %d files", i, set, perShardFiles[i])
		}
	}
}
