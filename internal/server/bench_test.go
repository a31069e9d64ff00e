package server

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

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
			sh.publish(handles[zipf.Uint64()], base.Add(time.Duration(i)*time.Microsecond))
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
						sh.publish(h, at.Add(time.Duration(k)*time.Microsecond))
					}
				}
				b.StartTimer()
				sh.drainAccesses()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(distinct), "ns/file")
		})
	}
}
