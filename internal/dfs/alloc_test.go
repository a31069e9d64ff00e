package dfs

import (
	"runtime"
	"testing"

	"octostore/internal/cluster"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// moveCycleAllocs is what one move-up plus move-down cycle of a one-block
// file allocates: each move's plan, which keeps a single block's move
// inline. The legs' plane grants, delayed starts and completions and the
// commit allocate nothing.
const moveCycleAllocs = 2

// readAllocs is what one ReadBlock allocates: its read record, which carries
// the caller's done, the result and the client-rate floor.
const readAllocs = 1

// migrateAllocs is what one SnapshotFile + DetachFile + AttachFile round
// trip of a one-block file allocates: the record's layout slice and its one
// array each of replica media and cache flags, the attach's block and plan
// slices and the attached file's fileObj. The path resolutions allocate
// nothing: the attach's Namespace.Exists miss builds no error.
const migrateAllocs = 6

// transferWorld is a one-block file written on a 3-worker file system whose
// devices share a ContendedPlane, so every transfer leg starts after a plane
// grant. moveCycle moves the file's replica from HDD to memory and back,
// running the engine after each move; read reads its block from the first
// node.
func transferWorld(tb testing.TB) (moveCycle func() error, read func() error) {
	tb.Helper()
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{
		Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec(),
		Plane: storage.NewContendedPlane(storage.PlaneConfig{}),
	})
	fs := MustNew(c, Config{Mode: ModePinnedHDD, BlockSize: 16 * storage.MB, Seed: 7, ClientRate: 400e6})
	var f *File
	var err error
	fs.Create("/alloc/f", 16*storage.MB, func(file *File, e error) { f, err = file, e })
	e.Run()
	if err != nil {
		tb.Fatal(err)
	}
	var opErr error
	moved := func(err error) { opErr = err }
	readDone := func(_ ReadResult, err error) { opErr = err }
	node := c.Nodes()[0]
	move := func(from, to storage.Media) error {
		if err := fs.MoveFileReplicas(f, from, to, moved); err != nil {
			return err
		}
		e.Run()
		return opErr
	}
	moveCycle = func() error {
		if err := move(storage.HDD, storage.Memory); err != nil {
			return err
		}
		return move(storage.Memory, storage.HDD)
	}
	read = func() error {
		fs.ReadBlock(f.Blocks()[0], node, readDone)
		e.Run()
		return opErr
	}
	return moveCycle, read
}

// TestTransferAllocs holds a one-block move cycle to moveCycleAllocs and a
// block read to readAllocs, so a closure or a per-leg object that creeps
// back onto the transfer path fails here.
func TestTransferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	moveCycle, read := transferWorld(t)
	for _, c := range []struct {
		name string
		op   func() error
		want float64
	}{
		{"move up and down", moveCycle, moveCycleAllocs},
		{"ReadBlock", read, readAllocs},
	} {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := c.op(); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs > c.want {
			t.Errorf("%s allocates %v objects, want at most %v", c.name, allocs, c.want)
		}
	}
}

// TestMigrateAllocs holds a one-block migration round trip between two
// file systems sharing a ContendedPlane, the way two shards do, to
// migrateAllocs.
func TestMigrateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	plane := storage.NewContendedPlane(storage.PlaneConfig{})
	world := func() (*sim.Engine, *FileSystem) {
		e := sim.NewEngine()
		c := cluster.MustNew(e, cluster.Config{
			Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec(), Plane: plane,
		})
		return e, MustNew(c, Config{Mode: ModeOctopus, BlockSize: 16 * storage.MB, Seed: 7})
	}
	e, from := world()
	_, to := world()
	f := createFile(t, e, from, "/alloc/migrate", 16*storage.MB)
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		rec, e := from.SnapshotFile(f)
		if e == nil {
			e = from.DetachFile(f)
		}
		if e == nil {
			f, e = to.AttachFile(rec)
		}
		if e != nil && err == nil {
			err = e
		}
		from, to = to, from
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > migrateAllocs {
		t.Errorf("a migration round trip allocates %v objects, want at most %v", allocs, migrateAllocs)
	}
}

// TestNamespaceResolveAllocs holds resolution of canonical paths to zero
// allocations, misses included: a walk builds no error, so Exists on a
// missing path (the attach's check) costs no garbage, and neither does a
// GetFile that finds its file or an unlink of a resolved file (relinked
// into the slot it left, which the directory's slice still has room for).
func TestNamespaceResolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ns := NewNamespace()
	for _, p := range []string{"/data/d0/f0", "/data/d0/f1", "/data/d1/f0"} {
		if err := ns.insertFile(p, &File{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		op   func() bool
	}{
		{"Exists, missing last component", func() bool { return !ns.Exists("/data/d0/f9") }},
		{"Exists, missing directory", func() bool { return !ns.Exists("/data/d9/f0") }},
		{"Exists, through a file", func() bool { return !ns.Exists("/data/d0/f0/x") }},
		{"GetFile, hit", func() bool { f, err := ns.GetFile("/data/d1/f0"); return f != nil && err == nil }},
		{"unlink, then relink", func() bool {
			f, err := ns.GetFile("/data/d0/f0")
			if err != nil {
				return false
			}
			ns.unlink(f)
			return !ns.Exists(f.path) && ns.insertFile(f.path, f) == nil
		}},
	} {
		ok := true
		allocs := testing.AllocsPerRun(200, func() { ok = ok && c.op() })
		if !ok {
			t.Fatalf("%s: wrong outcome", c.name)
		}
		if allocs != 0 {
			t.Errorf("%s allocates %v objects, want 0", c.name, allocs)
		}
	}
}

// BenchmarkMoveCycle times one move-up plus move-down cycle of a one-block
// file on transferWorld and reports its heap allocations and time per move;
// TestTransferAllocs pins the count:
//
//	go test -run XXX -bench BenchmarkMoveCycle -benchtime 20000x ./internal/dfs
func BenchmarkMoveCycle(b *testing.B) {
	moveCycle, _ := transferWorld(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := moveCycle(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	moves := float64(2 * b.N)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/moves, "allocs/move")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/moves, "ns/move")
}
