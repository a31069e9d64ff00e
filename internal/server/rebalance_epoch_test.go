package server

// In-package regression tests for the migration-epoch edge cases: deletes
// during a double-read epoch (both the blocking and the stamped path), the
// one-logical-op-one-count stats contract, a migration landing between the
// two probes of a double read, a pipelined delete→create under a live
// rebalancer, cold-route fold-back (route-table garbage collection), and
// the superseded-vs-moved counter split. These drive the route table and the per-file move machinery
// directly, so the epoch states are exact rather than raced into.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

func newEpochTestServer(t *testing.T, reb RebalanceConfig) *ShardedServer {
	t.Helper()
	huge := int64(1) << 60
	inf := math.Inf(1)
	srv, err := NewSharded(ShardedConfig{
		Shards: 4,
		Cluster: cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: storage.NodeSpec{
			{Media: storage.Memory, Capacity: 1 * storage.GB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
			{Media: storage.SSD, Capacity: 4 * storage.GB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
			{Media: storage.HDD, Capacity: 32 * storage.GB, ReadBW: 160e6, WriteBW: 140e6, Count: 2},
		}},
		DFS: dfs.Config{Mode: dfs.ModeOctopus, Seed: 7, ClientRate: 2000e6},
		Quota: QuotaConfig{
			InitialFraction:   0.25,
			BorrowChunk:       16 * storage.MB,
			ReconcileInterval: 10 * time.Second,
		},
		Inner: Config{ // replay mode: TimeScale 0
			Executor: ExecutorConfig{
				WorkersPerTier:  64,
				QueueDepth:      1 << 14,
				BudgetBytes:     [3]int64{huge, huge, huge},
				RateBytesPerSec: [3]float64{inf, inf, inf},
			},
		},
		Rebalance: reb,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

// holds reports whether one shard's namespace has the path.
func holds(sh *shard, path string) bool {
	_, ok := sh.ns.get(path)
	return ok
}

// mustCreate fires a stamped create and fences until it commits.
func mustCreate(t *testing.T, srv *ShardedServer, path string, size int64, at time.Time) {
	t.Helper()
	ch := srv.CreateAt(path, size, at)
	srv.Flush()
	if err := <-ch; err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
}

// attachCopyOn plants a copy of an existing file on the given shard — the
// mid-migration both-copies state (or a client recreate on the destination),
// built exactly like migrateFile's first half.
func attachCopyOn(t *testing.T, srv *ShardedServer, from, to int, path string) {
	t.Helper()
	var rec dfs.FileRecord
	var serr error
	srv.shards[from].inLoop(func(fs *dfs.FileSystem) { rec, serr = fs.SnapshotFile(path) })
	if serr != nil {
		t.Fatalf("snapshot %s on shard %d: %v", path, from, serr)
	}
	var aerr error
	sh := srv.shards[to]
	sh.inLoop(func(fs *dfs.FileSystem) {
		aerr = fs.AttachFile(rec)
		if aerr != nil {
			return
		}
		if f, gerr := fs.Namespace().GetFile(rec.Path); gerr == nil {
			sh.indexFile(f)
		}
	})
	if aerr != nil {
		t.Fatalf("attach %s on shard %d: %v", path, to, aerr)
	}
}

// TestDeleteAtDuringMigrationEpoch is the regression for the lost-delete
// bug: during a migrating epoch an unmoved file lives only on the hash
// owner, and a stamped DeleteAt that routed only to the primary returned
// ErrNotFound while the file stayed readable through the double-read path.
func TestDeleteAtDuringMigrationEpoch(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{})
	base := sim.Epoch
	dir := "/hot/d00"
	path := dir + "/f000"
	mustCreate(t, srv, path, 64*storage.MB, base.Add(time.Second))

	owner := RouteShard(dir, srv.NumShards())
	dst := (owner + 1) % srv.NumShards()
	srv.routes.upsert(routeEntry{prefix: dir, dst: dst, state: routeMigrating})

	// Nothing has moved: the file is reachable only through the fallback.
	if !srv.Exists(path) {
		t.Fatal("file not readable through the double-read fallback")
	}
	// One logical op, one count: a read or stat served by the fallback is
	// not also a miss on the primary, and a stat is one stat.
	if res, err := srv.AccessAt(path, base.Add(time.Minute)); err != nil || !res.Served {
		t.Fatalf("AccessAt through the fallback: %+v, %v", res, err)
	}
	for i := 0; i < 2; i++ {
		if _, err := srv.Stat(path); err != nil {
			t.Fatalf("Stat through the fallback: %v", err)
		}
	}
	if st := srv.Stats(); st.Accesses != 1 || st.AccessMisses != 0 || st.Stats != 2 {
		t.Fatalf("fallback-served ops counted wrong: accesses %d (want 1), misses %d (want 0), stats %d (want 2)",
			st.Accesses, st.AccessMisses, st.Stats)
	}
	if err := <-srv.DeleteAt(path, base.Add(time.Hour)); err != nil {
		t.Fatalf("DeleteAt during migrating epoch: %v", err)
	}
	if srv.Exists(path) {
		t.Fatal("file still readable after DeleteAt")
	}
	if holds(srv.shards[owner], path) {
		t.Fatal("fallback copy survived the delete")
	}
	if st := srv.Stats(); st.Deletes != 1 || st.DeleteErrors != 0 {
		t.Fatalf("Deletes = %d, DeleteErrors = %d, want 1 and 0: the primary's miss is a probe, not a failed delete",
			st.Deletes, st.DeleteErrors)
	}
	if got := srv.MutateLatency().Count(); got != 2 { // the create and the one delete
		t.Fatalf("mutate histogram holds %d samples, want 2", got)
	}

	srv.routes.remove(dir)
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestDeleteDuringEpochCountsOnce pins the stats contract when a file
// briefly exists on both shards mid-migration: one logical file, one
// counted client deletion (the fallback copy is dropped through the
// migration-teardown path, not a second stats-bumping delete).
func TestDeleteDuringEpochCountsOnce(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{})
	base := sim.Epoch
	dir := "/hot/d01"
	path := dir + "/f000"
	mustCreate(t, srv, path, 48*storage.MB, base.Add(time.Second))

	owner := RouteShard(dir, srv.NumShards())
	dst := (owner + 1) % srv.NumShards()
	attachCopyOn(t, srv, owner, dst, path)
	srv.routes.upsert(routeEntry{prefix: dir, dst: dst, state: routeMigrating})

	if err := srv.Delete(path); err != nil {
		t.Fatalf("Delete during both-copies window: %v", err)
	}
	if holds(srv.shards[dst], path) || holds(srv.shards[owner], path) {
		t.Fatal("a copy survived the delete")
	}
	if got := srv.Stats().Deletes; got != 1 {
		t.Fatalf("Deletes = %d, want exactly 1 for one logical file", got)
	}

	srv.routes.remove(dir)
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestDoubleReadSurvivesMigrationBetweenProbes is the regression for the
// double-read epoch hole (the TestRebalanceSurvivesChurn flake): a reader
// probes the primary and misses because the copy is not attached yet,
// migrateFile then attaches on the destination AND detaches the source, and
// the reader's fallback probe misses too — ErrNotFound for a file that
// existed throughout. The hook lands the migration exactly between the two
// probes; every op that resolves across the epoch must still find the file.
func TestDoubleReadSurvivesMigrationBetweenProbes(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{Enabled: true})
	base := sim.Epoch
	ops := []struct {
		name string
		run  func(path string) error
	}{
		{"access", func(p string) error { _, err := srv.AccessAt(p, base.Add(time.Minute)); return err }},
		{"stat", func(p string) error { _, err := srv.Stat(p); return err }},
		{"exists", func(p string) error {
			if !srv.Exists(p) {
				return dfs.ErrNotFound
			}
			return nil
		}},
		{"delete", func(p string) error { return <-srv.DeleteAt(p, base.Add(time.Hour)) }},
	}
	for i, op := range ops {
		dir := fmt.Sprintf("/hot/race%d", i)
		path := dir + "/f000"
		mustCreate(t, srv, path, 32*storage.MB, base.Add(time.Duration(i+1)*time.Second))
		owner := RouteShard(dir, srv.NumShards())
		dst := (owner + 1) % srv.NumShards()
		srv.routes.upsert(routeEntry{prefix: dir, dst: dst, state: routeMigrating})

		migrated := false
		srv.afterPrimaryMiss = func() {
			if migrated {
				return
			}
			migrated = true
			if out := srv.reb.migrateFile(srv.shards[owner], srv.shards[dst], path); out != migrateMoved {
				t.Errorf("%s: migrateFile = %v, want migrateMoved", op.name, out)
			}
		}
		err := op.run(path)
		srv.afterPrimaryMiss = nil
		if !migrated {
			t.Fatalf("%s: the primary probe did not miss; the race was not constructed", op.name)
		}
		if err != nil {
			t.Fatalf("%s: %v for a file that existed throughout the epoch", op.name, err)
		}
		srv.routes.remove(dir)
	}
	if st := srv.Stats(); st.AccessMisses != 0 || st.DeleteErrors != 0 {
		t.Fatalf("re-probed ops counted as failures: misses %d, delete errors %d", st.AccessMisses, st.DeleteErrors)
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestStaleRouteIsResolvedAgainOnMiss covers the other half of the same
// flake: the client resolved its route before the rebalancer opened an
// epoch over the directory (static owner, no fallback), and the whole
// migration of its file completed before the single probe ran. A miss under
// a live rebalancer must re-resolve the route and look again.
func TestStaleRouteIsResolvedAgainOnMiss(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{Enabled: true})
	base := sim.Epoch
	dir := "/hot/stale"
	path := dir + "/f000"
	mustCreate(t, srv, path, 32*storage.MB, base.Add(time.Second))

	clean, primary, fallback, err := srv.route(path)
	if err != nil || fallback != nil {
		t.Fatalf("static route: fallback %v, err %v", fallback, err)
	}
	owner := RouteShard(dir, srv.NumShards())
	dst := (owner + 1) % srv.NumShards()
	srv.routes.upsert(routeEntry{prefix: dir, dst: dst, state: routeMigrating})
	if out := srv.reb.migrateFile(srv.shards[owner], srv.shards[dst], path); out != migrateMoved {
		t.Fatalf("migrateFile = %v, want migrateMoved", out)
	}

	if sh, h := srv.find(clean, primary, fallback); h == nil || sh != srv.shards[dst] {
		t.Fatalf("find under the stale route: shard %v, handle %v; want the file on shard %d", sh, h, dst)
	}
	op := Op{Kind: OpDelete, Path: clean, At: base.Add(time.Hour)}
	if err := <-srv.delete(op, primary, fallback); err != nil {
		t.Fatalf("delete under the stale route: %v", err)
	}
	if srv.Exists(path) {
		t.Fatal("file still readable after the delete")
	}
	if st := srv.Stats(); st.Deletes != 1 || st.DeleteErrors != 0 {
		t.Fatalf("Deletes = %d, DeleteErrors = %d, want 1 and 0", st.Deletes, st.DeleteErrors)
	}
	srv.routes.remove(dir)
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestPipelinedDeleteThenCreateKeepsOrder: with the rebalancer enabled a
// delete may need follow-up probes, but its first attempt must be on the
// shard loop before DeleteAt returns. Replay drivers pipeline
// DeleteAt(p); CreateAt(p) and fence once with Flush — the create has to
// order behind the delete, and Flush has to cover both.
func TestPipelinedDeleteThenCreateKeepsOrder(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{Enabled: true})
	base := sim.Epoch
	for i := 0; i < 50; i++ {
		path := fmt.Sprintf("/pipe/d%02d/f", i)
		at := base.Add(time.Duration(i+1) * time.Minute)
		mustCreate(t, srv, path, 8*storage.MB, at)

		del := srv.DeleteAt(path, at.Add(time.Second))
		cre := srv.CreateAt(path, 16*storage.MB, at.Add(2*time.Second))
		srv.Flush()
		if err := <-del; err != nil {
			t.Fatalf("iteration %d: delete: %v", i, err)
		}
		if err := <-cre; err != nil {
			t.Fatalf("iteration %d: create behind the delete: %v", i, err)
		}
		if info, err := srv.Stat(path); err != nil || info.Size != 16*storage.MB {
			t.Fatalf("iteration %d: stat after delete→create: %+v, %v", i, info, err)
		}
	}
	if st := srv.Stats(); st.Deletes != 50 || st.DeleteErrors != 0 || st.CreateErrors != 0 {
		t.Fatalf("Deletes = %d, DeleteErrors = %d, CreateErrors = %d, want 50, 0, 0",
			st.Deletes, st.DeleteErrors, st.CreateErrors)
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestRebalancerRehomesColdRoutes drives the full route-table life cycle:
// a hot subtree migrates (committed entry), then goes cold, and after
// RehomeColdTicks idle detection rounds the subtree folds back to static
// routing and the entry is garbage-collected — so the bounded table never
// permanently spends a slot per lifetime migration.
func TestRebalancerRehomesColdRoutes(t *testing.T) {
	// MaxPrefixes 2 puts the one committed entry at the half-full pressure
	// threshold, so fold-back engages without needing 32 lifetime moves.
	srv := newEpochTestServer(t, RebalanceConfig{
		Enabled:         true,
		HotRatio:        1.2,
		MinOps:          32,
		MaxPrefixes:     2,
		RehomeColdTicks: 2,
	})
	base := sim.Epoch
	step := 0
	at := func() time.Time { step++; return base.Add(time.Duration(step) * time.Second) }

	// Two directories colliding on one shard (so a move strictly narrows the
	// hot/cold gap instead of swapping it), 8 files each.
	shards := srv.NumShards()
	var hotDirs []string
	target := -1
	for i := 0; len(hotDirs) < 2 && i < 10000; i++ {
		d := "/hot/d" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		if target == -1 {
			target = RouteShard(d, shards)
		}
		if RouteShard(d, shards) == target {
			hotDirs = append(hotDirs, d)
		}
	}
	var hotFiles []string
	for _, d := range hotDirs {
		for i := 0; i < 8; i++ {
			p := d + "/f" + string(rune('0'+i))
			mustCreate(t, srv, p, 16*storage.MB, at())
			hotFiles = append(hotFiles, p)
		}
	}
	// One cold file per shard so idle rounds still carry balanced traffic.
	var coldFiles []string
	for want := 0; want < shards; want++ {
		for i := 0; len(coldFiles) <= want && i < 10000; i++ {
			d := "/cold/d" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
			if RouteShard(d, shards) == want {
				p := d + "/f0"
				mustCreate(t, srv, p, 8*storage.MB, at())
				coldFiles = append(coldFiles, p)
			}
		}
	}

	// Skewed window: 4 passes over the hot files pins one shard, and the
	// detection round migrates one of the colliding dirs off it.
	for rep := 0; rep < 4; rep++ {
		for _, p := range hotFiles {
			if _, err := srv.AccessAt(p, at()); err != nil {
				t.Fatalf("access %s: %v", p, err)
			}
		}
	}
	srv.Flush()
	srv.RebalanceTick()
	st := srv.RebalanceStats()
	if st.Completed == 0 || st.Routes == 0 {
		t.Fatalf("hot subtree never migrated: %+v", st)
	}

	// Cold windows: balanced traffic elsewhere, zero ops under the migrated
	// subtree. After RehomeColdTicks rounds the entry drains home and is
	// removed.
	for tick := 0; tick < 4; tick++ {
		for rep := 0; rep < 4; rep++ {
			for _, p := range coldFiles {
				if _, err := srv.AccessAt(p, at()); err != nil {
					t.Fatalf("access %s: %v", p, err)
				}
			}
		}
		srv.Flush()
		srv.RebalanceTick()
	}
	st = srv.RebalanceStats()
	if st.Rehomed == 0 {
		t.Fatalf("cold route never folded back: %+v", st)
	}
	if got := srv.routes.entries(); len(got) != 0 {
		t.Fatalf("route table not garbage-collected: %v", got)
	}

	// Every file is still served through pure static routing.
	for _, p := range append(append([]string{}, hotFiles...), coldFiles...) {
		if !srv.Exists(p) {
			t.Fatalf("%s lost across migrate + rehome", p)
		}
	}
	srv.Flush()
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestMigrateFileSupersededNotCounted pins the counter split: a migration
// commit that finds the destination path already recreated by a client
// drops the stale source copy without copying bytes, so it must count as
// superseded, not as files/bytes moved (the benchgate vacuity check reads
// the moved counters).
func TestMigrateFileSupersededNotCounted(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{Enabled: true})
	base := sim.Epoch
	dir := "/hot/d02"
	path := dir + "/f000"
	mustCreate(t, srv, path, 32*storage.MB, base.Add(time.Second))

	owner := RouteShard(dir, srv.NumShards())
	dst := (owner + 1) % srv.NumShards()
	// The "client recreate": the destination already holds the path.
	attachCopyOn(t, srv, owner, dst, path)

	if out := srv.reb.migrateFile(srv.shards[owner], srv.shards[dst], path); out != migrateMoved {
		t.Fatalf("migrateFile = %v, want migrateMoved", out)
	}
	if moved := srv.reb.filesMoved.Load(); moved != 0 {
		t.Fatalf("ErrExists commit counted as a move: filesMoved = %d", moved)
	}
	if bytes := srv.reb.bytesMoved.Load(); bytes != 0 {
		t.Fatalf("ErrExists commit counted bytes: bytesMoved = %d", bytes)
	}
	if sup := srv.reb.superseded.Load(); sup != 1 {
		t.Fatalf("superseded = %d, want 1", sup)
	}
	if holds(srv.shards[owner], path) {
		t.Fatal("stale source copy survived the commit")
	}
	if !holds(srv.shards[dst], path) {
		t.Fatal("destination copy vanished")
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}
