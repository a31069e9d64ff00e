package server

import (
	"fmt"
	"sync"
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

// TestExecutorDeferHoldsThenDrains pins down the SLO controller's lever: a
// Defer holds every admission (burst tokens available, slots free), an
// earlier deadline never pulls the hold in, and the wake event at the
// deadline drains the queue with no further prodding — deferred moves are
// postponed, not lost.
func TestExecutorDeferHoldsThenDrains(t *testing.T) {
	engine, fs, files := executorFixture(t, 4, 32*storage.MB)
	ex := NewMovementExecutor(fs, ExecutorConfig{
		WorkersPerTier: 2, QueueDepth: 16,
		BudgetBytes:     [3]int64{1 << 40, 1 << 40, 1 << 40},
		RateBytesPerSec: [3]float64{1e12, 1e12, 1e12},
		MoveLatency:     10 * time.Millisecond,
	})
	deadline := engine.Now().Add(5 * time.Second)
	ex.Defer(deadline)
	if got := ex.DeferredUntil(); !got.Equal(deadline) {
		t.Fatalf("deferred until %v, want %v", got, deadline)
	}
	// Deferring to an earlier instant must be a no-op: the deadline only
	// ever moves out.
	ex.Defer(engine.Now().Add(2 * time.Second))
	if got := ex.DeferredUntil(); !got.Equal(deadline) {
		t.Fatalf("earlier Defer pulled the deadline in: %v", got)
	}

	var doneAt []time.Time
	for _, f := range files {
		f := f
		ex.Enqueue(core.MoveRequest{File: f, From: storage.HDD, To: storage.SSD,
			Done: func(err error) {
				if err != nil {
					t.Errorf("deferred move failed: %v", err)
				}
				doneAt = append(doneAt, engine.Now())
			}})
	}
	st := ex.Stats().PerTier[storage.SSD]
	if st.Scheduled != 4 || st.AdmittedBytes != 0 || st.Shed != 0 {
		t.Fatalf("deferred executor admitted early: %+v", st)
	}
	engine.Run()
	if len(doneAt) != 4 || !ex.Idle() {
		t.Fatalf("drained %d/4 moves, idle %v", len(doneAt), ex.Idle())
	}
	for i, at := range doneAt {
		if at.Before(deadline) {
			t.Fatalf("move %d completed at %v, before the defer deadline %v", i, at, deadline)
		}
	}
	if got := ex.Stats().Defers; got != 1 {
		t.Fatalf("Defers = %d, want 1 (extending Defer counted, no-op did not)", got)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorRefillWakeKeepsFIFO exhausts the SSD bucket, parks a large
// move at the head of the queue, and checks that later small moves — which
// the residual tokens could cover — wait behind it: refill wakes admit
// strictly in FIFO order, so sustained small moves cannot starve a big one.
func TestExecutorRefillWakeKeepsFIFO(t *testing.T) {
	engine := sim.NewEngine()
	cl, err := cluster.New(engine, cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: diffWorkerSpecInternal()})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(cl, dfs.Config{Mode: dfs.ModePinnedHDD, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{64 * storage.MB, 96 * storage.MB, 16 * storage.MB, 16 * storage.MB}
	files := make([]*dfs.File, 0, len(sizes))
	for i, size := range sizes {
		fs.Create(fmt.Sprintf("/fifo/%d", i), size, func(f *dfs.File, err error) {
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		})
	}
	engine.Run()

	budget := [3]int64{1 << 40, 100 * storage.MB, 1 << 40}
	var rates [3]float64
	rates[storage.SSD] = float64(64 * storage.MB)
	ex := NewMovementExecutor(fs, ExecutorConfig{
		// Slots are never the constraint: only tokens gate admission.
		WorkersPerTier: 4, QueueDepth: 16, BudgetBytes: budget, RateBytesPerSec: rates,
	})
	start := engine.Now()
	var order []int
	for i, f := range files {
		i, f := i, f
		ex.Enqueue(core.MoveRequest{File: f, From: storage.HDD, To: storage.SSD,
			Done: func(err error) {
				if err != nil {
					t.Errorf("move %d failed: %v", i, err)
				}
				order = append(order, i)
			}})
	}
	engine.Run()
	// The 64 MB head drains the full bucket to 36 MB; the 96 MB move then
	// blocks on refill with 32 MB of small moves queued behind it that the
	// residual tokens could pay for. FIFO means they complete in enqueue
	// order anyway (equal MoveLatency, monotone admission times).
	if want := []int{0, 1, 2, 3}; len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 2 || order[3] != 3 {
		t.Fatalf("completion order %v, want %v (small moves bypassed the blocked head)", order, want)
	}
	stats := ex.Stats()
	if v := stats.CheckBudgets(); v != "" {
		t.Fatal(v)
	}
	// And the refill was binding: pushing 192 MB through a 100 MB bucket at
	// 64 MB/s keeps the last admission past (192-100)/64 ≈ 1.44 virtual
	// seconds, plus the 5 s move latency.
	if elapsed := engine.Now().Sub(start).Seconds(); elapsed < 6.4 {
		t.Fatalf("batch drained in %.2f virtual seconds; head never waited for refill", elapsed)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorCheckBudgetsConcurrent reads Stats().CheckBudgets from racing
// goroutines while the owning loop admits, refills, and completes moves (run
// under -race): every interim snapshot must satisfy the token-bucket
// invariant — AdmittedBytes <= BudgetBytes + Rate*VirtualSeconds — because
// refill publishes the virtual-clock sample before tokens are spent.
func TestExecutorCheckBudgetsConcurrent(t *testing.T) {
	engine, fs, files := executorFixture(t, 12, 32*storage.MB)
	budget := [3]int64{1 << 40, 64 * storage.MB, 1 << 40}
	var rates [3]float64
	rates[storage.SSD] = float64(64 * storage.MB)
	ex := NewMovementExecutor(fs, ExecutorConfig{
		WorkersPerTier: 2, QueueDepth: 32, BudgetBytes: budget, RateBytesPerSec: rates,
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v := ex.Stats().CheckBudgets(); v != "" {
					t.Error(v)
					return
				}
				ex.Idle() // exercised concurrently too
			}
		}()
	}
	done := 0
	for _, f := range files {
		ex.Enqueue(core.MoveRequest{File: f, From: storage.HDD, To: storage.SSD,
			Done: func(err error) {
				if err != nil {
					t.Errorf("move failed: %v", err)
				}
				done++
			}})
	}
	engine.Run()
	close(stop)
	wg.Wait()
	if done != 12 || !ex.Idle() {
		t.Fatalf("completed %d/12, idle %v", done, ex.Idle())
	}
	if v := ex.Stats().CheckBudgets(); v != "" {
		t.Fatal(v)
	}
}

// TestDeferredFullQueueStillDrainsOnFlush composes the three ways the
// executor holds work back: an SLO deferral, a queue at its bound and the
// downgrade loop waiting for room. Nothing may start before the deferral runs
// out, and one Flush must still carry the waiting loop to its end — the
// deferral's wake drains the queue, the drained slot wakes the loop.
func TestDeferredFullQueueStillDrainsOnFlush(t *testing.T) {
	var mgr *core.Manager
	srv, err := NewSharded(ShardedConfig{
		Shards:  1,
		Cluster: cluster.Config{Workers: 2, SlotsPerNode: 4, Spec: storage.PaperMediaSpec(128*storage.MB, 4*storage.GB, 32*storage.GB, 2)},
		DFS:     dfs.Config{Mode: dfs.ModeOctopus, Seed: 9, ClientRate: 2000e6},
		Build: func(_ int, fs *dfs.FileSystem) (m *core.Manager, err error) {
			mgr, err = policy.NewManager(fs, "lru", "osa", ml.DefaultLearnerConfig())
			return mgr, err
		},
		Inner: Config{Executor: ExecutorConfig{WorkersPerTier: 1, QueueDepth: 2}}, // replay mode
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	sh := srv.shards[0]

	var deadline time.Time
	sh.inLoop(func(*dfs.FileSystem) {
		deadline = sh.engine.Now().Add(3 * time.Minute)
		sh.exec.Defer(deadline)
	})
	at := sim.Epoch
	for i := 0; i < 400; i++ {
		at = at.Add(10 * time.Millisecond)
		srv.CreateAt(fmt.Sprintf("/defer/d%02d/f%03d", i%8, i), storage.MB, at)
	}
	var early ExecutorStats
	sh.inLoop(func(*dfs.FileSystem) {
		sh.engine.RunUntil(deadline.Add(-time.Second))
		early = sh.exec.Stats()
	})
	if st := early.PerTier[storage.SSD]; st.Scheduled != 2 || st.AdmittedBytes != 0 || st.Shed != 0 {
		t.Fatalf("a second before the deferral ends: %+v; want the queue's two held, nothing started, nothing shed", st)
	}

	flushed := make(chan struct{})
	go func() { srv.Flush(); close(flushed) }()
	select {
	case <-flushed:
	case <-time.After(30 * time.Second):
		t.Fatal("Flush did not return with a deferred, full queue and a waiting loop")
	}
	st := srv.ExecutorStats().PerTier[storage.SSD]
	if st.Scheduled <= 2 || st.Completed+st.Failed != st.Scheduled || st.Shed != 0 {
		t.Fatalf("after the Flush: %+v; want the loop resumed and every admitted move settled", st)
	}
	if mgr.Context().AboveHighWatermark(storage.Memory) {
		t.Error("memory still over its watermark after the Flush")
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
}
