package server

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"octostore/internal/backend"
	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// TestRecycledSlotStartsFresh runs a file out of its shard by each of the
// three ways a slot is freed — a client delete, the detach that commits a
// rebalancer migration, and a create that fails on a backend write — and
// then creates a file that takes the freed slot over. The newcomer must owe
// its predecessor nothing: a fresh tracker record (no accesses, its own
// creation time), no index entry under the old file's key (the index audit
// checks membership and keys), its own namespace handle, and a clean Verify.
func TestRecycledSlotStartsFresh(t *testing.T) {
	faults := make([]*backend.Faulty, 2)
	huge := int64(1) << 60
	inf := math.Inf(1)
	srv, err := NewSharded(ShardedConfig{
		Shards:  len(faults),
		Cluster: cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: storage.PaperMediaSpec(1*storage.GB, 4*storage.GB, 32*storage.GB, 2)},
		DFS:     dfs.Config{Mode: dfs.ModeOctopus, Seed: 7},
		Build: func(_ int, fs *dfs.FileSystem) (*core.Manager, error) {
			ctx := core.NewContext(fs, core.DefaultConfig())
			ctx.Index().RequireRecency()
			ctx.Index().RequireFrequency()
			ctx.Index().RequireUpgradeMRU()
			return core.NewManager(ctx, nil, nil), nil
		},
		Backend: func(shard int) backend.Backend {
			faults[shard] = backend.NewFaulty(backend.Sim{})
			return faults[shard]
		},
		Quota: QuotaConfig{InitialFraction: 0.5, BorrowChunk: 16 * storage.MB, ReconcileInterval: 10 * time.Second},
		Inner: Config{Executor: ExecutorConfig{
			WorkersPerTier:  8,
			QueueDepth:      64,
			BudgetBytes:     [3]int64{huge, huge, huge},
			RateBytesPerSec: [3]float64{inf, inf, inf},
		}},
		Rebalance: RebalanceConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)

	clock := sim.Epoch
	next := func() time.Time { clock = clock.Add(time.Minute); return clock }
	// dirOn returns a directory the static route sends to the shard.
	dirOn := func(prefix string, sh *shard) string {
		for i := 0; ; i++ {
			if dir := fmt.Sprintf("%s%d", prefix, i); RouteShard(dir, srv.NumShards()) == sh.idx {
				return dir
			}
		}
	}
	fileAt := func(sh *shard, path string) (f *dfs.File) {
		sh.inLoop(func(fs *dfs.FileSystem) { f, _ = fs.Namespace().GetFile(path) })
		if f == nil {
			t.Fatalf("%s is not on shard %d", path, sh.idx)
		}
		return f
	}
	// used creates a file and reads it, so its tracker record, index keys
	// and handle all carry history a successor must not inherit.
	used := func(sh *shard, path string) *dfs.File {
		mustCreate(t, srv, path, 32*storage.MB, next())
		for i := 0; i < 3; i++ {
			if _, err := srv.AccessAt(path, next()); err != nil {
				t.Fatalf("read %s: %v", path, err)
			}
		}
		srv.Flush()
		return fileAt(sh, path)
	}
	// takeOver creates path on sh, which must land in slot under a new id
	// (and one past every id in gone), and checks it starts fresh.
	takeOver := func(how string, sh *shard, slot int32, gone dfs.FileID, path string) {
		t.Helper()
		mustCreate(t, srv, path, 32*storage.MB, next())
		f := fileAt(sh, path)
		if f.Slot() != slot || f.ID() <= gone {
			t.Fatalf("%s: the successor has slot %d id %d; want slot %d and an id past %d", how, f.Slot(), f.ID(), slot, gone)
		}
		sh.inLoop(func(*dfs.FileSystem) {
			ctx := sh.mgr.Context()
			rec, ok := ctx.Tracker.Get(slot, int64(f.ID()))
			if !ok || rec.AccessCount() != 0 || !rec.Created.Equal(f.Created()) {
				t.Errorf("%s: successor's tracker record %+v (found %v); want a fresh one created %v", how, rec, ok, f.Created())
			}
			if _, ok := ctx.Tracker.Get(slot, int64(gone)); ok {
				t.Errorf("%s: the slot still answers for file %d", how, gone)
			}
			if err := ctx.Index().Audit(); err != nil {
				t.Errorf("%s: %v", how, err)
			}
			if h := sh.handleOf(f); h == nil || h.file != f {
				t.Errorf("%s: the shard resolves the successor to handle %+v", how, h)
			}
		})
		if h, _ := srv.lookup(path); h == nil || h.file != f || h.sh != sh {
			t.Errorf("%s: the namespace resolves %s to %+v", how, path, h)
		}
		if v := srv.Verify(); len(v) > 0 {
			t.Errorf("%s: Verify: %v", how, v)
		}
	}

	// A client delete.
	home := srv.shards[0]
	dir := dirOn("/recycle/del", home)
	old := used(home, dir+"/old")
	if err := <-srv.DeleteAt(dir+"/old", next()); err != nil {
		t.Fatal(err)
	}
	takeOver("delete", home, old.Slot(), old.ID(), dir+"/new")

	// The detach that commits a migration to the other shard.
	dst := srv.shards[1]
	dir = dirOn("/recycle/mig", home)
	old = used(home, dir+"/old")
	srv.routes.upsert(routeEntry{prefix: dir, dst: dst.idx, state: routeMigrating})
	if out := srv.reb.migrateFile(home, dst, dir+"/old"); out != migrateMoved {
		t.Fatalf("migrateFile = %v, want migrateMoved", out)
	}
	takeOver("migration", home, old.Slot(), old.ID(), dirOn("/recycle/after", home)+"/new")

	// A create whose first replica write fails: it takes the slot a deleted
	// probe freed, and must hand it back.
	dir = dirOn("/recycle/fail", home)
	probe := used(home, dir+"/probe")
	if err := <-srv.DeleteAt(dir+"/probe", next()); err != nil {
		t.Fatal(err)
	}
	for _, m := range storage.AllMedia {
		faults[home.idx].FailNext(m, backend.OpWrite, 1)
	}
	ch := srv.CreateAt(dir+"/doomed", 32*storage.MB, next())
	srv.Flush()
	if err := <-ch; !errors.Is(err, backend.ErrInjected) {
		t.Fatalf("doomed create: %v, want the injected write fault", err)
	}
	for _, m := range storage.AllMedia {
		faults[home.idx].FailNext(m, backend.OpWrite, 0)
	}
	takeOver("failed create", home, probe.Slot(), probe.ID()+1, dir+"/new")
}
