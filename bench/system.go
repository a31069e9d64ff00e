package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"octostore/internal/backend"
	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/policy"
	"octostore/internal/server"
	"octostore/internal/storage"
)

// shards is fixed at the box's core count: one process, at most two client
// goroutines and two shard loops (see README.md on why not more).
const shards = 2

// serveSpec sizes one server workload.
type serveSpec struct {
	name      string
	timeScale float64 // 0 = replay mode
	files     int
	fileSize  int64
	dirs      int
	workers   int
	node      storage.NodeSpec
	// queueDepth is the executor's per-tier queue bound (0 = default 128).
	queueDepth int
}

func nodeSpec(memMB, ssdMB, hddMB int64) storage.NodeSpec {
	return storage.NodeSpec{
		{Media: storage.Memory, Capacity: memMB * storage.MB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
		{Media: storage.SSD, Capacity: ssdMB * storage.MB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
		{Media: storage.HDD, Capacity: hddMB * storage.MB, ReadBW: 160e6, WriteBW: 140e6, Count: 2},
	}
}

// system is one built ShardedServer plus the handles the harness keeps on
// the parts it supplied.
type system struct {
	srv   *server.ShardedServer
	plane *storage.ContendedPlane
	mgrs  []*core.Manager
	// traced decorators (nil when untraced)
	tplane *tracedPlane
}

// buildSystem assembles LRU/OSA over a contended plane through public
// constructors only. With tr == nil nothing is decorated.
func buildSystem(spec serveSpec, seed int64, tr *tracer) (*system, error) {
	sys := &system{
		plane: storage.NewContendedPlane(storage.PlaneConfig{}),
		mgrs:  make([]*core.Manager, shards),
	}
	var plane storage.DataPlane = sys.plane
	var mkBackend func(int) backend.Backend
	if tr != nil {
		sys.tplane = &tracedPlane{contendedPlane: sys.plane, tr: tr}
		plane = sys.tplane
		mkBackend = func(int) backend.Backend { return &tracedBackend{Backend: backend.Sim{}, tr: tr} }
	}
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards:  shards,
		Cluster: cluster.Config{Workers: spec.workers, SlotsPerNode: 4, Spec: spec.node, Plane: plane},
		DFS:     dfs.Config{Mode: dfs.ModeOctopus, Seed: seed, ClientRate: 2000e6},
		Build: func(i int, fs *dfs.FileSystem) (*core.Manager, error) {
			ctx := core.NewContext(fs, core.DefaultConfig())
			down := traceDown(policy.NewLRU(ctx), tr)
			up := traceUp(policy.NewOSA(ctx), tr)
			sys.mgrs[i] = core.NewManager(ctx, down, up)
			return sys.mgrs[i], nil
		},
		Backend: mkBackend,
		Inner: server.Config{
			TimeScale: spec.timeScale,
			Executor:  server.ExecutorConfig{QueueDepth: spec.queueDepth},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", spec.name, err)
	}
	sys.srv = srv
	srv.Start()
	return sys, nil
}

// engineNow is the latest virtual time any shard has reached. Replay mode has
// no wall-mapped clock (Clock() is the zero time), and a Flush steps the
// engines well past the last stamp, so stamps are re-based on this after
// every fence.
func (s *system) engineNow() time.Time {
	var latest time.Time
	s.srv.Exec(func(_ int, fs *dfs.FileSystem) {
		if now := fs.Engine().Now(); now.After(latest) {
			latest = now
		}
	})
	return latest
}

// simEvents sums the engine events fired across shards.
func (s *system) simEvents() (n uint64) {
	s.srv.Exec(func(_ int, fs *dfs.FileSystem) { n += fs.Engine().Fired() })
	return n
}

// liveFiles counts namespace entries across shards.
func (s *system) liveFiles() (n int) {
	s.srv.Exec(func(_ int, fs *dfs.FileSystem) { n += fs.Namespace().FileCount() })
	return n
}

// managerMetrics sums the per-shard manager counters (read on the shard
// loops, which own them).
func (s *system) managerMetrics() (out core.Metrics) {
	s.srv.Exec(func(i int, _ *dfs.FileSystem) {
		m := s.mgrs[i].Metrics()
		out.DowngradesScheduled += m.DowngradesScheduled
		out.UpgradesScheduled += m.UpgradesScheduled
		out.DowngradeErrors += m.DowngradeErrors
		out.UpgradeErrors += m.UpgradeErrors
		out.ReplicaDeletes += m.ReplicaDeletes
		out.Ticks += m.Ticks
	})
	return out
}

// heapInuse is HeapInuse after a full collection.
func heapInuse() float64 {
	runtime.GC()
	runtime.GC() // the first cycle only queues finalizers and sweeps lazily
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse)
}

// pending is one asynchronous completion handed to the reaper.
type pending struct {
	ch     <-chan error
	create bool
	retry  string // non-empty: a delete of this path, retried if refused as busy
}

// reaper collects create/delete completions without ever blocking the
// submitter on one: completions only fire as virtual time passes, which takes
// later stamped ops or a Flush. It is a FIFO the submitting goroutine polls
// after each submission (a second goroutine parked on every completion made
// throughput depend on how the scheduler interleaved the two).
type reaper struct {
	queue []pending
	head  int
	// creates counts completed creates. Completions are taken in submission
	// order, so create number k is done once creates > k.
	creates int64
	failed  int64
	first   error
	busy    []string // deletes refused with dfs.ErrBusy since the last takeBusy
}

func (r *reaper) settle(p pending, err error) {
	switch {
	case err == nil:
	case p.retry != "" && errors.Is(err, dfs.ErrBusy):
		r.busy = append(r.busy, p.retry)
	default:
		if r.first == nil {
			r.first = err
		}
		r.failed++
	}
	if p.create {
		r.creates++
	}
	r.head++
}

// submit queues p and takes whatever has completed at the head of the queue.
func (r *reaper) submit(p pending) {
	r.queue = append(r.queue, p)
	for r.head < len(r.queue) {
		select {
		case err := <-r.queue[r.head].ch:
			r.settle(r.queue[r.head], err)
		default:
			r.compact()
			return
		}
	}
	r.compact()
}

// compact drops the settled prefix once it dominates the queue.
func (r *reaper) compact() {
	if r.head >= 1024 && r.head*2 >= len(r.queue) {
		n := copy(r.queue, r.queue[r.head:])
		r.queue, r.head = r.queue[:n], 0
	}
}

// drain waits for every outstanding completion. Call it only after a Flush,
// or the tail may never complete.
func (r *reaper) drain() {
	for r.head < len(r.queue) {
		r.settle(r.queue[r.head], <-r.queue[r.head].ch)
	}
	r.queue, r.head = r.queue[:0], 0
}

// takeBusy returns the refused deletes collected so far.
func (r *reaper) takeBusy() []string {
	busy := r.busy
	r.busy = nil
	return busy
}
