package server

// In-package regression tests for the migration-epoch edge cases: deletes
// during an epoch (both the blocking and the stamped path), the
// one-logical-op-one-count stats contract, reads and a delete racing a
// migration, stale routes, a create through a stale route, a pipelined
// delete→create under a live rebalancer, cold-route fold-back (route-table
// garbage collection), the superseded-vs-moved counter split, and the stale
// copies the sweep drops. These drive the route table and the per-file move
// machinery directly, so the epoch states are exact rather than raced into.

import (
	"errors"
	"fmt"
	"math"
	"strings"
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
		Shards:  4,
		Cluster: cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: storage.PaperMediaSpec(1*storage.GB, 4*storage.GB, 32*storage.GB, 2)},
		DFS:     dfs.Config{Mode: dfs.ModeOctopus, Seed: 7, ClientRate: 2000e6},
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

// holds reports whether one shard's file system has the path.
func holds(sh *shard, path string) (ok bool) {
	sh.inLoop(func(fs *dfs.FileSystem) { ok = fs.Namespace().Exists(path) })
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

	// Nothing has moved: the file lives only on the fallback. One logical
	// op, one count: a read or stat served by the fallback is not also a
	// miss on the primary, and a stat is one stat.
	if res, err := srv.AccessAt(path, base.Add(time.Minute)); err != nil || !res.Served {
		t.Fatalf("AccessAt of the fallback's file: %+v, %v", res, err)
	}
	for i := 0; i < 2; i++ {
		if _, err := srv.Stat(path); err != nil {
			t.Fatalf("Stat of the fallback's file: %v", err)
		}
	}
	if st := srv.Stats(); st.Accesses != 1 || st.AccessMisses != 0 || st.Stats != 2 {
		t.Fatalf("fallback-served ops counted wrong: accesses %d (want 1), misses %d (want 0), stats %d (want 2)",
			st.Accesses, st.AccessMisses, st.Stats)
	}
	if err := <-srv.DeleteAt(path, base.Add(time.Hour)); err != nil {
		t.Fatalf("DeleteAt during migrating epoch: %v", err)
	}
	if _, err := srv.Stat(path); err == nil {
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
// counted client deletion. The delete removes the copy the namespace names;
// the source copy it stopped naming is the sweep's to drop (through the
// migration-teardown path, not a second stats-bumping delete).
func TestDeleteDuringEpochCountsOnce(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{Enabled: true})
	base := sim.Epoch
	dir := "/hot/d01"
	path := dir + "/f000"
	mustCreate(t, srv, path, 48*storage.MB, base.Add(time.Second))

	owner := RouteShard(dir, srv.NumShards())
	dst := (owner + 1) % srv.NumShards()
	attachCopyOn(t, srv, owner, dst, path)
	srv.routes.upsert(routeEntry{prefix: dir, dst: dst, state: routeMigrating})

	if _, err := srv.Do(Op{Kind: OpDelete, Path: path}); err != nil {
		t.Fatalf("Delete during both-copies window: %v", err)
	}
	if _, err := srv.Stat(path); err == nil {
		t.Fatal("file still readable after the delete")
	}
	if got := srv.Stats().Deletes; got != 1 {
		t.Fatalf("Deletes = %d, want exactly 1 for one logical file", got)
	}
	srv.Flush()
	if holds(srv.shards[dst], path) || holds(srv.shards[owner], path) {
		t.Fatal("a copy survived the delete and the drain")
	}

	srv.routes.remove(dir)
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestDoubleReadSurvivesMigrationBetweenProbes is the regression for the
// epoch hole behind the TestRebalanceSurvivesChurn flake: ErrNotFound for a
// file that existed throughout a migration. Reads resolve their owner in the
// one namespace, where a migration's copy replaces the source's entry before
// the source copy goes, so a read must find the file before the move, while
// both copies exist (served by the destination), and after the source copy
// is gone. A delete resolves the same way: handed the owner it resolved
// before the file moved, it misses there and must find the file where the
// namespace names it now.
func TestDoubleReadSurvivesMigrationBetweenProbes(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{Enabled: true})
	base := sim.Epoch
	reads := []struct {
		name string
		run  func(path string) error
	}{
		{"access", func(p string) error { _, err := srv.AccessAt(p, base.Add(time.Minute)); return err }},
		{"stat", func(p string) error { _, err := srv.Stat(p); return err }},
	}
	// epoch creates a file on its hash owner and opens a migrating epoch
	// over its directory, returning the directory, the path, the owner and
	// the destination.
	epoch := func(i int) (dir, path string, owner, dst *shard) {
		dir = fmt.Sprintf("/hot/race%d", i)
		path = dir + "/f000"
		mustCreate(t, srv, path, 32*storage.MB, base.Add(time.Duration(i+1)*time.Second))
		owner = srv.shards[RouteShard(dir, srv.NumShards())]
		dst = srv.shards[(owner.idx+1)%srv.NumShards()]
		srv.routes.upsert(routeEntry{prefix: dir, dst: dst.idx, state: routeMigrating})
		return dir, path, owner, dst
	}
	for i, op := range reads {
		dir, path, owner, dst := epoch(i)
		// read runs the op and asserts the namespace resolves the path to want.
		read := func(stage string, want *shard) {
			t.Helper()
			if h, _ := srv.lookup(path); h == nil || h.sh != want {
				t.Fatalf("%s %s: the namespace does not name shard %d", op.name, stage, want.idx)
			}
			if err := op.run(path); err != nil {
				t.Fatalf("%s %s: %v for a file that existed throughout the migration", op.name, stage, err)
			}
		}
		read("before the move", owner)
		// migrateFile's first half: the copy lands on dst and is indexed
		// there while the source copy still exists.
		attachCopyOn(t, srv, owner.idx, dst.idx, path)
		if !holds(owner, path) || !holds(dst, path) {
			t.Fatalf("%s: the both-copies window was not constructed", op.name)
		}
		read("with both copies", dst)
		// Its commit half: the source copy goes.
		var err error
		owner.inLoop(func(*dfs.FileSystem) { _, err = owner.migrateOut(path, false) })
		if err != nil {
			t.Fatalf("%s: migrateOut: %v", op.name, err)
		}
		if holds(owner, path) {
			t.Fatalf("%s: the source copy survived migrateOut", op.name)
		}
		read("after the move", dst)
		srv.routes.remove(dir)
	}

	dir, path, owner, dst := epoch(len(reads))
	if out := srv.reb.migrateFile(owner, dst, path); out != migrateMoved {
		t.Fatalf("delete: migrateFile = %v, want migrateMoved", out)
	}
	// The owner was resolved before the move, so the delete's first attempt
	// goes to the shard the file left.
	err := <-srv.delete(Op{Kind: OpDelete, Path: path, At: base.Add(time.Hour)}, owner)
	if err != nil {
		t.Fatalf("delete: %v for a file that existed throughout the epoch", err)
	}
	if _, err := srv.Stat(path); err == nil || holds(owner, path) || holds(dst, path) {
		t.Fatal("delete: a copy survived")
	}
	srv.routes.remove(dir)
	if st := srv.Stats(); st.AccessMisses != 0 || st.DeleteErrors != 0 || st.Deletes != 1 {
		t.Fatalf("ops across the migration counted as failures: misses %d, delete errors %d, deletes %d (want 1)",
			st.AccessMisses, st.DeleteErrors, st.Deletes)
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestStaleRouteIsResolvedAgainOnMiss covers the other half of the same
// flake: the client resolved its route, and its file's owner, before the
// rebalancer opened an epoch over the directory (static owner), and the
// whole migration of its file completed before the op ran. Reads
// look the owner up again and find the file where it landed; a delete sent
// to the stale owner misses there, and must look the owner up again.
func TestStaleRouteIsResolvedAgainOnMiss(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{Enabled: true})
	base := sim.Epoch
	dir := "/hot/stale"
	path := dir + "/f000"
	mustCreate(t, srv, path, 32*storage.MB, base.Add(time.Second))

	clean, primary, err := srv.route(path)
	if err != nil {
		t.Fatalf("static route: %v", err)
	}
	owner := RouteShard(dir, srv.NumShards())
	dst := (owner + 1) % srv.NumShards()
	srv.routes.upsert(routeEntry{prefix: dir, dst: dst, state: routeMigrating})
	if out := srv.reb.migrateFile(srv.shards[owner], srv.shards[dst], path); out != migrateMoved {
		t.Fatalf("migrateFile = %v, want migrateMoved", out)
	}

	if _, err := srv.AccessAt(path, base.Add(time.Minute)); err != nil {
		t.Fatalf("access after the move: %v", err)
	}
	if h, _ := srv.lookup(clean); h == nil || h.sh != srv.shards[dst] {
		t.Fatalf("lookup after the move: handle %v; want the file on shard %d", h, dst)
	}
	op := Op{Kind: OpDelete, Path: clean, At: base.Add(time.Hour)}
	if err := <-srv.delete(op, primary); err != nil {
		t.Fatalf("delete under the stale route: %v", err)
	}
	if _, err := srv.Stat(path); err == nil {
		t.Fatal("file still readable after the delete")
	}
	if st := srv.Stats(); st.Deletes != 1 || st.DeleteErrors != 0 || st.AccessMisses != 0 {
		t.Fatalf("Deletes = %d, DeleteErrors = %d, AccessMisses = %d, want 1, 0 and 0",
			st.Deletes, st.DeleteErrors, st.AccessMisses)
	}
	srv.routes.remove(dir)
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestCreateThroughStaleRouteIsReachable is the regression for the stranded
// create: a create routed just before the rebalancer committed a new owner
// for its directory lands on the old owner, where routing no longer looks.
// The namespace names the shard that holds it, so reads and listings find
// it, a second create of the path fails, and a delete removes it.
func TestCreateThroughStaleRouteIsReachable(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{Enabled: true})
	base := sim.Epoch
	dir := "/hot/stranded"
	path := dir + "/f000"

	clean, primary, err := srv.route(path)
	if err != nil {
		t.Fatalf("static route: %v", err)
	}
	dst := (primary.idx + 1) % srv.NumShards()
	srv.routes.upsert(routeEntry{prefix: dir, dst: dst, state: routeCommitted})
	created := srv.submit(Op{Kind: OpCreate, Path: clean, Size: 32 * storage.MB, At: base.Add(time.Second)}, primary)
	srv.Flush()
	if err := <-created; err != nil {
		t.Fatalf("create through the stale route: %v", err)
	}

	if res, err := srv.AccessAt(path, base.Add(time.Minute)); err != nil || !res.Served {
		t.Fatalf("AccessAt: %+v, %v", res, err)
	}
	if info, err := srv.Stat(path); err != nil || info.Size != 32*storage.MB {
		t.Fatalf("Stat: %+v, %v", info, err)
	}
	if got := srv.List(dir); len(got) != 1 || got[0] != "f000" {
		t.Fatalf("List(%s) = %v, want [f000]", dir, got)
	}
	again := srv.CreateAt(path, 16*storage.MB, base.Add(2*time.Minute))
	srv.Flush()
	if err := <-again; !errors.Is(err, dfs.ErrExists) {
		t.Fatalf("second create of the path: %v, want ErrExists", err)
	}
	if err := <-srv.DeleteAt(path, base.Add(time.Hour)); err != nil {
		t.Fatalf("DeleteAt: %v", err)
	}
	if _, err := srv.Stat(path); err == nil || holds(primary, path) {
		t.Fatal("file survived the delete")
	}
	if st := srv.Stats(); st.Deletes != 1 || st.AccessMisses != 0 {
		t.Fatalf("Deletes = %d, AccessMisses = %d, want 1 and 0", st.Deletes, st.AccessMisses)
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
		if _, err := srv.Stat(p); err != nil {
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

// TestDeletedFileStaysDeletedPastBusyStaleCopy is the regression for the
// resurrection: a file deleted during the both-copies window, while the
// source copy is busy under a tier move, must stay deleted once the move
// finishes and a sweep meets the source copy. The delete removes the copy
// the namespace names; the source copy it stopped naming is stale, and the
// drain drops it instead of migrating it back.
func TestDeletedFileStaysDeletedPastBusyStaleCopy(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{Enabled: true})
	base := sim.Epoch
	dir := "/hot/busy"
	path := dir + "/f000"
	mustCreate(t, srv, path, 48*storage.MB, base.Add(time.Second))

	owner := RouteShard(dir, srv.NumShards())
	dst := (owner + 1) % srv.NumShards()
	attachCopyOn(t, srv, owner, dst, path)
	srv.routes.upsert(routeEntry{prefix: dir, dst: dst, state: routeMigrating})
	var merr error
	srv.shards[owner].inLoop(func(fs *dfs.FileSystem) {
		f, err := fs.Namespace().GetFile(path)
		if err != nil {
			merr = err
			return
		}
		from, to := storage.SSD, storage.HDD
		if !f.HasReplicaOn(from) {
			from, to = storage.HDD, storage.SSD
		}
		merr = fs.MoveFileReplicas(f, from, to, func(error) {})
	})
	if merr != nil {
		t.Fatalf("putting the source copy in transition: %v", merr)
	}

	if _, err := srv.Do(Op{Kind: OpDelete, Path: path}); err != nil {
		t.Fatalf("Delete during the both-copies window: %v", err)
	}
	srv.Flush()
	if !holds(srv.shards[owner], path) {
		t.Fatal("the busy source copy is gone already; the window was not constructed")
	}
	// Let the tier move finish everywhere, then let the drain meet the
	// source copy with nothing holding it.
	srv.Exec(func(_ int, fs *dfs.FileSystem) {
		e := fs.Engine()
		e.RunUntil(e.Now().Add(time.Hour))
	})
	srv.Flush()

	if _, err := srv.Stat(path); err == nil {
		t.Fatal("the deleted file is readable again")
	}
	for _, sh := range srv.shards {
		if holds(sh, path) {
			t.Fatalf("shard %d still holds the deleted file", sh.idx)
		}
	}
	if got := srv.Stats().Deletes; got != 1 {
		t.Fatalf("Deletes = %d, want 1", got)
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestMigrateFileKeepsTheNamedCopy: when the destination holds a copy the
// namespace does not name and the source holds the one it does, the
// migration drops the destination's stale copy and moves the named one —
// the file stays readable, with exactly one copy left.
func TestMigrateFileKeepsTheNamedCopy(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{Enabled: true})
	base := sim.Epoch
	dir := "/hot/named"
	path := dir + "/f000"
	mustCreate(t, srv, path, 32*storage.MB, base.Add(time.Second))

	owner := RouteShard(dir, srv.NumShards())
	dst := (owner + 1) % srv.NumShards()
	attachCopyOn(t, srv, owner, dst, path)
	src := srv.shards[owner]
	src.inLoop(func(fs *dfs.FileSystem) {
		if f, err := fs.Namespace().GetFile(path); err == nil {
			src.indexFile(f)
		}
	})
	if h, _ := srv.lookup(path); h == nil || h.sh != src {
		t.Fatal("the namespace does not name the source copy; the state was not constructed")
	}

	if out := srv.reb.migrateFile(src, srv.shards[dst], path); out != migrateMoved {
		t.Fatalf("migrateFile = %v, want migrateMoved", out)
	}
	if _, err := srv.Stat(path); err != nil {
		t.Fatal("the named copy was dropped: the file is not readable")
	}
	if holds(src, path) == holds(srv.shards[dst], path) {
		t.Fatalf("copies left: source %v, destination %v; want exactly one", holds(src, path), holds(srv.shards[dst], path))
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestVerifyChecksNamespaceCoherence: Verify holds the namespace and the
// shards to each other both ways. A copy the namespace stopped naming is a
// violation outside an open route entry (under one it is the sweep's to
// drop), and so is a handle naming a file its shard no longer holds.
func TestVerifyChecksNamespaceCoherence(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{Enabled: true})
	dir := "/hot/verify"
	path := dir + "/f000"
	mustCreate(t, srv, path, 32*storage.MB, sim.Epoch.Add(time.Second))
	owner := srv.shards[RouteShard(dir, srv.NumShards())]
	dst := srv.shards[(owner.idx+1)%srv.NumShards()]

	attachCopyOn(t, srv, owner.idx, dst.idx, path)
	if v := srv.Verify(); len(v) != 1 || !strings.Contains(v[0], "stale copy") {
		t.Fatalf("Verify with a stale copy outside a migration: %v", v)
	}
	srv.routes.upsert(routeEntry{prefix: dir, dst: dst.idx, state: routeMigrating})
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("Verify with a stale copy under a migrating entry: %v", v)
	}
	srv.routes.remove(dir)
	var err error
	owner.inLoop(func(*dfs.FileSystem) { _, err = owner.migrateOut(path, true) })
	if err != nil {
		t.Fatalf("dropping the stale copy: %v", err)
	}

	h, _ := srv.lookup(path)
	dst.inLoop(func(fs *dfs.FileSystem) { err = fs.DetachFile(path) })
	if err != nil {
		t.Fatalf("detach: %v", err)
	}
	srv.ns.put(h) // the namespace names the copy its shard just dropped
	if v := srv.Verify(); len(v) != 1 || !strings.Contains(v[0], "does not hold") {
		t.Fatalf("Verify with a dangling namespace entry: %v", v)
	}
	srv.ns.remove(h)
}

// TestDeleteThroughStaleOwnerRemovesTheNamedCopy: a delete resolved to the
// source before a migration's copy was indexed runs there while both copies
// exist. The source copy is not the file any more, so the attempt misses
// and the delete removes the copy the namespace names instead of reporting
// success with the file still readable.
func TestDeleteThroughStaleOwnerRemovesTheNamedCopy(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{Enabled: true})
	base := sim.Epoch
	dir := "/hot/staleowner"
	path := dir + "/f000"
	mustCreate(t, srv, path, 32*storage.MB, base.Add(time.Second))
	owner := srv.shards[RouteShard(dir, srv.NumShards())]
	dst := srv.shards[(owner.idx+1)%srv.NumShards()]
	attachCopyOn(t, srv, owner.idx, dst.idx, path)
	srv.routes.upsert(routeEntry{prefix: dir, dst: dst.idx, state: routeMigrating})

	if err := <-srv.delete(Op{Kind: OpDelete, Path: path, At: base.Add(time.Hour)}, owner); err != nil {
		t.Fatalf("delete through the stale owner: %v", err)
	}
	if _, err := srv.Stat(path); err == nil || holds(dst, path) {
		t.Fatal("the named copy survived the delete")
	}
	if st := srv.Stats(); st.Deletes != 1 || st.DeleteErrors != 0 {
		t.Fatalf("Deletes = %d, DeleteErrors = %d, want 1 and 0", st.Deletes, st.DeleteErrors)
	}
	srv.Flush()
	if holds(owner, path) {
		t.Fatal("the stale copy outlived the drain")
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}
