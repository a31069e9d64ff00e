package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/ml"
	"octostore/internal/policy"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// benchHandles stages n small files on a one-shard LRU/OSA server in replay
// mode and returns the shard with their handles.
func benchHandles(b *testing.B, n int) (*shard, []*handle) {
	b.Helper()
	srv, _ := newAccessTestServer(b, 1)
	paths := make([]string, n)
	created := make([]<-chan error, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/b/d%03d/f%06d", i%256, i)
		created[i] = srv.CreateAt(paths[i], 4*storage.KB, sim.Epoch.Add(time.Duration(i+1)*10*time.Millisecond))
	}
	srv.Flush()
	sh := srv.shards[0]
	handles := make([]*handle, n)
	for i, ch := range created {
		if err := <-ch; err != nil {
			b.Fatal(err)
		}
		handles[i], _ = sh.ns.get(paths[i])
	}
	return sh, handles
}

// BenchmarkAccessPublish times what an access pays to be accounted — the
// handle's accumulator, plus the dirty list and the doorbell when the handle
// was clean — from parallel clients drawing zipf-1.1 over 100 k files, with
// the shard loop draining (and applying to LRU/OSA) concurrently:
//
//	go test -run XXX -bench BenchmarkAccessPublish -benchtime 2000000x -benchmem ./internal/server
func BenchmarkAccessPublish(b *testing.B) {
	sh, handles := benchHandles(b, 100_000)
	var seed atomic.Int64
	base := sim.Epoch.Add(time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(handles)-1))
		for i := 0; pb.Next(); i++ {
			sh.publish(handles[zipf.Uint64()], base.Add(time.Duration(i)*time.Microsecond), nil, time.Time{})
		}
	})
	b.StopTimer()
	st := sh.stats()
	if st.DrainEntries > 0 {
		b.ReportMetric(float64(st.EventsDrained)/float64(st.DrainEntries), "accesses/notification")
	}
}

// BenchmarkDrain times one drain of `distinct` dirty files holding four
// accesses each (collect, order, run the engine to each stamp, one
// RecordAccessN per file), with the loop held so the drain runs here:
//
//	go test -run XXX -bench BenchmarkDrain -benchtime 200x -benchmem ./internal/server
func BenchmarkDrain(b *testing.B) {
	for _, distinct := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("distinct=%d", distinct), func(b *testing.B) {
			sh, handles := benchHandles(b, distinct)
			release := holdLoop(sh)
			defer release()
			at := sim.Epoch.Add(time.Hour)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				at = at.Add(time.Millisecond)
				for _, h := range handles {
					for k := 0; k < 4; k++ {
						sh.publish(h, at.Add(time.Duration(k)*time.Microsecond), nil, time.Time{})
					}
				}
				b.StartTimer()
				sh.drainAccesses()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(distinct), "ns/file")
		})
	}
}

// footprintFiles is the population BenchmarkServeFootprint stages: enough
// files that per-file costs dominate, spread over footprintDirs directories.
const (
	footprintFiles = 20_000
	footprintDirs  = 64
)

// BenchmarkServeFootprint reports what the serving layer retains and
// allocates per file on top of an empty started server: a 2-shard LRU/OSA
// server in replay mode takes footprintFiles 4 KB creates through Submit
// and one Flush. bytes/file is the retained heap the population adds
// (namespace entries and handles, the shards' file systems and policy
// state), allocs/create the allocations per create up to the Flush. ns/op
// is the whole population:
//
//	go test -run XXX -bench BenchmarkServeFootprint -benchtime 3x ./internal/server
func BenchmarkServeFootprint(b *testing.B) {
	var bytesPerFile, allocsPerCreate float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, _ := newAccessTestServer(b, 2)
		runtime.GC()
		var empty runtime.MemStats
		runtime.ReadMemStats(&empty)
		b.StartTimer()

		created := make([]<-chan error, footprintFiles)
		for f := range created {
			created[f] = srv.Submit(Op{
				Kind: OpCreate,
				Path: fmt.Sprintf("/fp/d%02d/f%06d", f%footprintDirs, f),
				Size: 4 * storage.KB,
				At:   sim.Epoch.Add(time.Duration(f+1) * 10 * time.Millisecond),
			})
		}
		srv.Flush()

		b.StopTimer()
		var populated runtime.MemStats
		runtime.ReadMemStats(&populated)
		for _, ch := range created {
			if err := <-ch; err != nil {
				b.Fatal(err)
			}
		}
		created = nil
		runtime.GC()
		var retained runtime.MemStats
		runtime.ReadMemStats(&retained)
		bytesPerFile = (float64(retained.HeapAlloc) - float64(empty.HeapAlloc)) / footprintFiles
		allocsPerCreate = float64(populated.Mallocs-empty.Mallocs) / footprintFiles
		srv.Close()
		b.StartTimer()
	}
	b.ReportMetric(bytesPerFile, "bytes/file")
	b.ReportMetric(allocsPerCreate, "allocs/create")
}

// cycleServer is the server the write path's allocation count is taken on:
// two shards of LRU/OSA in replay mode over a contended data plane, so every
// replica write waits out a plane grant, with a population of cycleFiles
// already created. next returns one stamped create → Flush → delete → Flush
// cycle of a fresh path each call.
func cycleServer(tb testing.TB) (next func() error) {
	tb.Helper()
	srv, err := NewSharded(ShardedConfig{
		Shards: 2,
		Cluster: cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: storage.PaperMediaSpec(4*storage.GB, 16*storage.GB, 64*storage.GB, 2),
			Plane: storage.NewContendedPlane(storage.PlaneConfig{})},
		DFS: dfs.Config{Mode: dfs.ModeOctopus, Seed: 5, ClientRate: 2000e6},
		Build: func(_ int, fs *dfs.FileSystem) (*core.Manager, error) {
			return policy.NewManager(fs, "lru", "osa", ml.DefaultLearnerConfig())
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv.Start()
	tb.Cleanup(srv.Close)
	const cycleFiles, cycleDirs = 1000, 16
	paths := make([]string, 4*cycleFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("/cy/d%02d/f%06d", i%cycleDirs, i)
	}
	at := sim.Epoch
	stamp := func() time.Time { at = at.Add(10 * time.Millisecond); return at }
	for _, p := range paths[:cycleFiles] {
		srv.CreateAt(p, storage.MB, stamp())
	}
	srv.Flush()
	i := cycleFiles
	return func() error {
		p := paths[cycleFiles+i%(len(paths)-cycleFiles)]
		i++
		created := srv.CreateAt(p, storage.MB, stamp())
		srv.Flush()
		if err := <-created; err != nil {
			return err
		}
		deleted := srv.DeleteAt(p, stamp())
		srv.Flush()
		return <-deleted
	}
}

// BenchmarkCreateDeleteCycle times one stamped create → Flush → delete →
// Flush cycle of a 1 MB file on cycleServer and reports its heap
// allocations; TestCreateDeleteCycleAllocs pins the count:
//
//	go test -run XXX -bench BenchmarkCreateDeleteCycle -benchmem ./internal/server
func BenchmarkCreateDeleteCycle(b *testing.B) {
	cycle := cycleServer(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cycle(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/cycle")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
}
