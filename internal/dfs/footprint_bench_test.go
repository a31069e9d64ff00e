package dfs_test

import (
	"fmt"
	"runtime"
	"testing"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// footprintFiles is the population size for the footprint benchmark. Large
// enough that per-file costs dominate fixed overheads (engine, cluster,
// maps' initial capacity), small enough to iterate quickly in CI.
const footprintFiles = 20_000

// footprintWorld holds everything a populated namespace retains, so the
// benchmark can measure live-heap bytes with the population reachable and
// nothing else.
type footprintWorld struct {
	engine *sim.Engine
	fs     *dfs.FileSystem
	ctx    *core.Context
}

func buildFootprintWorld(files int) *footprintWorld {
	w := newFootprintWorld()
	for i := 0; i < files; i++ {
		w.create(fmt.Sprintf("/pop/d%03d/f%06d", i/256, i))
	}
	w.engine.Run() // drain create transfers so replicas commit

	// One access pass populates the tracker records and re-keys the
	// recency/frequency/MRU heaps, so the measured footprint covers the
	// steady managed state, not just the post-create skeleton.
	for _, f := range w.fs.LiveFiles() {
		w.fs.RecordAccess(f)
	}
	return w
}

// newFootprintWorld builds the footprint cluster, file system and managed
// context with an empty namespace.
func newFootprintWorld() *footprintWorld {
	e := sim.NewEngine()
	spec := storage.PaperMediaSpec(16*storage.GB, 64*storage.GB, 256*storage.GB, 2)
	c := cluster.MustNew(e, cluster.Config{Workers: 4, SlotsPerNode: 8, Spec: spec})
	fs := dfs.MustNew(c, dfs.Config{Mode: ModeForFootprint(), BlockSize: 8 * storage.MB, Seed: 1})
	ctx := core.NewContext(fs, core.DefaultConfig())
	ctx.Index().RequireRecency()
	ctx.Index().RequireFrequency()
	ctx.Index().RequireUpgradeMRU()
	return &footprintWorld{engine: e, fs: fs, ctx: ctx}
}

// create starts a 1 MB file write at path.
func (w *footprintWorld) create(path string) {
	w.fs.Create(path, 1*storage.MB, func(_ *dfs.File, err error) {
		if err != nil {
			panic(err)
		}
	})
}

// ModeForFootprint picks the placement mode for the footprint population:
// octopus spreads replicas across tiers so all three per-tier heaps and the
// residency counters carry real entries.
func ModeForFootprint() dfs.Mode { return dfs.ModeOctopus }

// BenchmarkPopulationFootprint reports the retained heap bytes and the
// allocation count per namespace file for a fully managed population
// (filesystem + namespace + candidate indexes + tracker). CI uploads these
// two custom metrics — bytes/file and allocs/file — with the BENCH_policy
// stream, ungated; ns/op additionally tracks population build time.
func BenchmarkPopulationFootprint(b *testing.B) {
	var (
		world        *footprintWorld
		bytesPerFile float64
		allocsTotal  uint64
	)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		world = nil // release the previous iteration's population
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()

		world = buildFootprintWorld(footprintFiles)

		b.StopTimer()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		allocsTotal += after.Mallocs - before.Mallocs
		runtime.GC()
		var retained runtime.MemStats
		runtime.ReadMemStats(&retained)
		bytesPerFile = float64(retained.HeapAlloc-before.HeapAlloc) / footprintFiles
		b.StartTimer()
	}
	if world == nil || world.fs.Stats().FilesCreated == 0 {
		b.Fatal("population not built")
	}
	b.ReportMetric(bytesPerFile, "bytes/file")
	b.ReportMetric(float64(allocsTotal)/float64(uint64(b.N)*footprintFiles), "allocs/file")
	runtime.KeepAlive(world)
}

// Churn shape: a steady live population cycled FIFO, one create and one
// delete per cycle, so memory can only grow with files ever created.
const (
	churnLive   = 1_000
	churnCycles = 50_000
)

// retainedHeap returns HeapAlloc once two collections have freed what the
// first one's finalization left behind.
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// churnFootprint holds live files in the footprint world through cycles
// FIFO create/access/delete cycles and returns how much the retained heap
// grew per file created.
func churnFootprint(tb testing.TB, live, cycles int) float64 {
	w := newFootprintWorld()
	path := func(i int) string { return fmt.Sprintf("/churn/d%03d/f%07d", i%256, i) }
	for i := 0; i < live; i++ {
		w.create(path(i))
	}
	w.engine.Run()
	before := retainedHeap()
	for i := live; i < live+cycles; i++ {
		w.create(path(i))
		w.engine.Run()
		f, err := w.fs.Open(path(i))
		if err != nil {
			tb.Fatal(err)
		}
		w.fs.RecordAccess(f)
		old, err := w.fs.Open(path(i - live))
		if err == nil {
			err = w.fs.Delete(old)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	w.engine.Run()
	after := retainedHeap()
	if n := w.fs.Namespace().FileCount(); n != live {
		tb.Fatalf("%d files live after churn, want %d", n, live)
	}
	runtime.KeepAlive(w)
	return (float64(after) - float64(before)) / float64(cycles)
}

// TestChurnFootprintBounded holds namespace memory to the live files: a
// deleted file's metadata must be freed with it, and every per-file table
// (file-list positions, tracker records, each index heap's positions) is
// indexed by slots the next file reuses, so nothing grows with the files ever
// created (about 0.6 B per create on a 2-core x86-64 container: collector
// noise).
func TestChurnFootprintBounded(t *testing.T) {
	const maxPerCreate = 4 // bytes
	if got := churnFootprint(t, churnLive, churnCycles); got > maxPerCreate {
		t.Fatalf("retained heap grew %.0f B per file created, want at most %d", got, maxPerCreate)
	}
}

// BenchmarkChurnFootprint reports the retained heap bytes per file created
// after the bounded-churn cycles (bytes/created): whatever grows with files
// ever created rather than with the live ones. ns/op is the whole churn.
func BenchmarkChurnFootprint(b *testing.B) {
	var perCreate float64
	for i := 0; i < b.N; i++ {
		perCreate = churnFootprint(b, churnLive, churnCycles)
	}
	b.ReportMetric(perCreate, "bytes/created")
}
