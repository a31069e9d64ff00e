package policy_test

// Differential equivalence test for the EXD upgrade admission: the
// weight-heap prefix sum (EXDUp.VictimWeightSum) must return exactly the
// value the retired score-everything-and-sort scan returns, at every
// checkpoint of a workload that fills the memory tier, diversifies the
// Formula 2 weights, runs concurrent movement (busy files filtered from
// the victim set), and survives node churn with repair.

import (
	"fmt"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/policy"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

func exdWorld(t *testing.T) (*sim.Engine, *dfs.FileSystem, *core.Context, *policy.EXDUp, *core.Manager, []*dfs.File) {
	t.Helper()
	e := sim.NewEngine()
	spec := storage.NodeSpec{
		{Media: storage.Memory, Capacity: 512 * storage.MB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
		{Media: storage.SSD, Capacity: 4 * storage.GB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
		{Media: storage.HDD, Capacity: 8 * storage.GB, ReadBW: 160e6, WriteBW: 140e6, Count: 2},
	}
	c := cluster.MustNew(e, cluster.Config{Workers: 2, SlotsPerNode: 4, Spec: spec})
	fs := dfs.MustNew(c, dfs.Config{Mode: dfs.ModePinnedHDD, Seed: 3})
	cfg := core.DefaultConfig()
	cfg.HighWatermark = 0.80
	cfg.LowWatermark = 0.70
	ctx := core.NewContext(fs, cfg)
	down := policy.NewLRU(ctx)
	up := policy.NewEXDUp(ctx, policy.DefaultEXDAlpha)
	mgr := core.NewManager(ctx, down, up)

	var files []*dfs.File
	for i := 0; i < 40; i++ {
		fs.Create(fmt.Sprintf("/exd/d%d/f%02d", i%4, i), 48*storage.MB, func(f *dfs.File, err error) {
			if err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
			files = append(files, f)
		})
		e.Run()
	}
	return e, fs, ctx, up, mgr, files
}

// compareSums checks indexed == linear for a sweep of need sizes and
// returns how many sweeps produced a nontrivial (beatable, nonzero) sum.
func compareSums(t *testing.T, up *policy.EXDUp, label string) int {
	t.Helper()
	nontrivial := 0
	for _, need := range []int64{
		0, 1 * storage.MB, 10 * storage.MB, 50 * storage.MB, 100 * storage.MB,
		300 * storage.MB, 500 * storage.MB, 900 * storage.MB, 2 * storage.GB,
	} {
		got := up.VictimWeightSum(need)
		want := up.VictimWeightSumLinear(need)
		if got != want {
			t.Errorf("%s: VictimWeightSum(%d) diverged: heap %v, linear %v", label, need, got, want)
		}
		if got > 0 && got < 1e299 {
			nontrivial++
		}
	}
	return nontrivial
}

func TestEXDAdmissionDifferential(t *testing.T) {
	e, fs, ctx, up, mgr, files := exdWorld(t)

	// Diversify the Formula 2 weights: every file accessed at a distinct
	// instant, the first half twice.
	for i, f := range files {
		e.RunFor(time.Duration(30+i) * time.Second)
		fs.RecordAccess(f)
		e.Run()
		if i < 20 {
			e.RunFor(7 * time.Second)
			fs.RecordAccess(f)
			e.Run()
		}
	}

	nontrivial := compareSums(t, up, "hdd-only")

	// Fill the memory tier by upgrading files; crossing the 0.80 high
	// watermark triggers LRU downgrades through the monitor, so later
	// checkpoints run with movement in flight.
	busyObserved := false
	for i := 0; i < 18; i++ {
		if err := fs.MoveFileReplicas(files[i], storage.HDD, storage.Memory, nil); err != nil {
			t.Fatalf("upgrade %d: %v", i, err)
		}
		// Settle partially: the manager's MoveLatency (5s) keeps any
		// downgrade it scheduled in flight at this checkpoint.
		e.RunFor(time.Second)
		for _, f := range fs.LiveFiles() {
			if ctx.IsBusy(f) && f.HasReplicaOn(storage.Memory) {
				busyObserved = true
			}
		}
		nontrivial += compareSums(t, up, fmt.Sprintf("fill-%d", i))
		e.Run()
	}
	if !busyObserved {
		t.Error("no busy memory file at any checkpoint; the eligibility-filtering path went unexercised")
	}
	nontrivial += compareSums(t, up, "filled")

	// More accesses after filling, so memory-resident weights keep moving.
	for i := 0; i < 40; i += 3 {
		e.RunFor(11 * time.Second)
		fs.RecordAccess(files[i])
		e.Run()
	}
	nontrivial += compareSums(t, up, "re-touched")

	// Node churn: lose a worker (taking some memory replicas with it),
	// repair, and require the heap to stay exact and audit-clean.
	if removed := fs.FailNode(fs.Cluster().Node(1)); removed[storage.Memory] == 0 {
		t.Fatal("node 1 took no memory capacity; churn case is vacuous")
	}
	mgr.Monitor().CheckReplication()
	e.Run()
	nontrivial += compareSums(t, up, "post-churn")
	if err := ctx.Index().Audit(); err != nil {
		t.Errorf("weight index audit after churn: %v", err)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Errorf("invariants after churn: %v", err)
	}

	if nontrivial < 20 {
		t.Fatalf("only %d nontrivial admission sums; workload too tame to trust the equivalence", nontrivial)
	}
}
