package server

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// executorFixture builds a single-threaded fs with n files pinned to HDD so
// tests can drive the executor directly (no server, no goroutines).
func executorFixture(t *testing.T, n int, size int64) (*sim.Engine, *dfs.FileSystem, []*dfs.File) {
	t.Helper()
	engine := sim.NewEngine()
	cl, err := cluster.New(engine, cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: diffWorkerSpecInternal()})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(cl, dfs.Config{Mode: dfs.ModePinnedHDD, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*dfs.File, 0, n)
	for i := 0; i < n; i++ {
		fs.Create(fmt.Sprintf("/f/%03d", i), size, func(f *dfs.File, err error) {
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		})
	}
	engine.Run()
	if len(files) != n {
		t.Fatalf("created %d files, want %d", len(files), n)
	}
	return engine, fs, files
}

func diffWorkerSpecInternal() storage.NodeSpec {
	return storage.PaperMediaSpec(2*storage.GB, 8*storage.GB, 64*storage.GB, 2)
}

// TestExecutorRoomFollowsQueueDepth is the mover's half of the backpressure
// contract: Room is true exactly while the destination queue is below
// QueueDepth, nothing is shed at the bound, and a caller that stops on a
// refusal is told once, by an engine event of its own, when a slot frees up —
// from which it can enqueue again and see a consistent queue.
func TestExecutorRoomFollowsQueueDepth(t *testing.T) {
	engine, fs, files := executorFixture(t, 6, 64*storage.MB)
	ex := NewMovementExecutor(fs, ExecutorConfig{WorkersPerTier: 1, QueueDepth: 2})
	done := 0
	next := 0
	feed := func() {
		for next < len(files) && ex.Room(storage.SSD) {
			f := files[next]
			next++
			ex.Enqueue(core.MoveRequest{File: f, From: storage.HDD, To: storage.SSD,
				Done: func(err error) {
					if err != nil {
						t.Errorf("move of %s failed: %v", f.Path(), err)
					}
					done++
				}})
		}
	}
	wakes, inWake := 0, false
	ex.OnRoom(func(to storage.Media) {
		if inWake {
			t.Fatal("room wake re-entered from inside its own Enqueue")
		}
		if to != storage.SSD {
			t.Fatalf("room wake for %v, want SSD", to)
		}
		inWake = true
		wakes++
		if !ex.Room(storage.SSD) {
			t.Error("room wake fired with the queue still full")
		}
		before := len(ex.tiers[storage.SSD].queue)
		feed()
		if after := len(ex.tiers[storage.SSD].queue); after != ex.cfg.QueueDepth || after <= before && next < len(files) {
			t.Errorf("queue %d -> %d after feeding from the wake, depth %d", before, after, ex.cfg.QueueDepth)
		}
		inWake = false
	})
	feed()
	// One move went straight to the worker, two wait: the bound is reached.
	if next != 3 || ex.Room(storage.SSD) {
		t.Fatalf("fed %d requests before Room refused (room now %v), want 3", next, ex.Room(storage.SSD))
	}
	if wakes != 0 {
		t.Fatal("room wake ran from inside Enqueue")
	}
	engine.Run()
	if !ex.Idle() {
		t.Fatal("executor not idle after drain")
	}
	st := ex.Stats().PerTier[storage.SSD]
	if done != 6 || st.Scheduled != 6 || st.Completed != 6 || st.Shed != 0 || st.Failed != 0 {
		t.Fatalf("%d done, stats = %+v; want 6 scheduled and completed, nothing shed", done, st)
	}
	// Each of the three slots freed while a refusal stood paid one wake; once
	// the feeder ran dry nobody was refused, so nobody was woken.
	if wakes != 3 {
		t.Fatalf("%d room wakes, want 3", wakes)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorDropsDeletedFileAtDequeue: a request whose file is deleted while
// it waits never draws tokens, never occupies a worker, fails as superseded
// the moment it reaches the head, and the slot it frees pays the room wake
// exactly once.
func TestExecutorDropsDeletedFileAtDequeue(t *testing.T) {
	engine, fs, files := executorFixture(t, 3, 64*storage.MB)
	ex := NewMovementExecutor(fs, ExecutorConfig{WorkersPerTier: 1, QueueDepth: 2})
	outcome := make([]error, len(files))
	for i, f := range files {
		i := i
		ex.Enqueue(core.MoveRequest{File: f, From: storage.HDD, To: storage.SSD,
			Done: func(err error) { outcome[i] = err }})
	}
	wakes := 0
	ex.OnRoom(func(storage.Media) { wakes++ })
	if ex.Room(storage.SSD) {
		t.Fatal("queue should be full: one active, two waiting")
	}
	if err := fs.Delete(files[1]); err != nil {
		t.Fatal(err)
	}
	pool := &ex.tiers[storage.SSD]
	maxActive := 0
	engine.SetEventHook(func() { maxActive = max(maxActive, pool.active) })
	engine.Run()
	if outcome[0] != nil || outcome[2] != nil {
		t.Fatalf("live files' moves: %v, %v", outcome[0], outcome[2])
	}
	if !errors.Is(outcome[1], dfs.ErrSuperseded) || dfs.ReasonOf(outcome[1]) != dfs.ReasonSuperseded {
		t.Fatalf("deleted file's move outcome = %v, want superseded", outcome[1])
	}
	st := ex.Stats().PerTier[storage.SSD]
	if st.AdmittedBytes != 2*64*storage.MB {
		t.Fatalf("admitted %d bytes; the deleted file's request drew tokens", st.AdmittedBytes)
	}
	if st.Completed != 2 || st.Failed != 1 || st.FailedBy[dfs.ReasonSuperseded] != 1 {
		t.Fatalf("stats = %+v, want 2 completed, 1 failed as superseded", st)
	}
	if maxActive > 1 || wakes != 1 || !ex.Idle() {
		t.Fatalf("max active %d, %d room wakes, idle %v; want 1, 1, true", maxActive, wakes, ex.Idle())
	}
}

func TestExecutorTokenBucketPacesAdmissions(t *testing.T) {
	engine, fs, files := executorFixture(t, 8, 64*storage.MB)
	// SSD: a 100 MB bucket refilled at 64 MB of virtual second — the first
	// 64 MB move is admitted from the initial burst, every later one must
	// wait for refill, so the 512 MB batch needs >= (512-100)/64 ≈ 6.4
	// virtual seconds of budget regardless of the 4 free slots.
	budget := [3]int64{1 << 40, 100 * storage.MB, 1 << 40}
	var rates [3]float64
	rates[storage.SSD] = float64(64 * storage.MB)
	ex := NewMovementExecutor(fs, ExecutorConfig{
		WorkersPerTier: 4, QueueDepth: 64, BudgetBytes: budget, RateBytesPerSec: rates,
	})
	start := engine.Now()
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
	stats := ex.Stats()
	st := stats.PerTier[storage.SSD]
	if done != 8 || st.Completed != 8 {
		t.Fatalf("completed %d/%d moves (%+v)", done, 8, st)
	}
	if st.AdmittedBytes != 8*64*storage.MB {
		t.Fatalf("admitted %d bytes, want %d", st.AdmittedBytes, 8*64*storage.MB)
	}
	// The bucket invariant: admissions never outran burst + rate*time.
	if v := stats.CheckBudgets(); v != "" {
		t.Fatal(v)
	}
	// And the rate was actually binding: draining 512 MB through a 100 MB
	// bucket at 64 MB/s takes at least 6.4 virtual seconds.
	if elapsed := engine.Now().Sub(start).Seconds(); elapsed < 6.4 {
		t.Fatalf("batch drained in %.2f virtual seconds; token bucket did not pace admissions", elapsed)
	}
}

func TestExecutorUnmeteredRate(t *testing.T) {
	engine, fs, files := executorFixture(t, 4, 64*storage.MB)
	rates := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	ex := NewMovementExecutor(fs, ExecutorConfig{
		WorkersPerTier: 8, QueueDepth: 64,
		BudgetBytes:     [3]int64{1 << 40, 1 << 40, 1 << 40},
		RateBytesPerSec: rates,
	})
	done := 0
	for _, f := range files {
		ex.Enqueue(core.MoveRequest{File: f, From: storage.HDD, To: storage.SSD,
			Done: func(err error) { done++ }})
	}
	engine.Run()
	if done != 4 || !ex.Idle() {
		t.Fatalf("unmetered executor completed %d/4, idle %v", done, ex.Idle())
	}
}

func TestExecutorShedsOversizedRequest(t *testing.T) {
	_, fs, files := executorFixture(t, 1, 256*storage.MB)
	ex := NewMovementExecutor(fs, ExecutorConfig{BudgetBytes: [3]int64{1, 100 * storage.MB, 1}})
	var got error
	ex.Enqueue(core.MoveRequest{File: files[0], From: storage.HDD, To: storage.SSD,
		Done: func(err error) { got = err }})
	if !errors.Is(got, ErrOversize) {
		t.Fatalf("oversized request outcome = %v, want ErrOversize", got)
	}
	if st := ex.Stats().PerTier[storage.SSD]; st.Shed != 1 || st.Scheduled != 0 || st.FailedBy[dfs.ReasonOversize] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
