package jobs

import (
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/policy"
	"octostore/internal/sim"
	"octostore/internal/storage"
	"octostore/internal/workload"
)

// smallTrace builds a tiny deterministic trace for unit tests.
func smallTrace() *workload.Trace {
	tr := &workload.Trace{Name: "test", Duration: time.Hour}
	tr.Files = []workload.FileSpec{
		{Path: "/in/a", Size: 32 * storage.MB, Bin: workload.BinA},
		{Path: "/in/b", Size: 48 * storage.MB, Bin: workload.BinA},
	}
	tr.Jobs = []workload.Job{
		{ID: 0, Arrival: time.Minute, InputPath: "/in/a", InputBytes: 32 * storage.MB,
			CPUPerTask: 2 * time.Second, Bin: workload.BinA},
		{ID: 1, Arrival: 2 * time.Minute, InputPath: "/in/b", InputBytes: 48 * storage.MB,
			CPUPerTask: 2 * time.Second, Bin: workload.BinA,
			OutputPath: "/out/1", OutputBytes: 8 * storage.MB},
		{ID: 2, Arrival: 10 * time.Minute, InputPath: "/in/a", InputBytes: 32 * storage.MB,
			CPUPerTask: 2 * time.Second, Bin: workload.BinA},
	}
	return tr
}

func newSystem(t *testing.T, mode dfs.Mode) *dfs.FileSystem {
	t.Helper()
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec()})
	return dfs.MustNew(c, dfs.Config{Mode: mode, BlockSize: 16 * storage.MB, Seed: 9})
}

func TestRunSmallTrace(t *testing.T) {
	fs := newSystem(t, dfs.ModeHDFS)
	stats, err := Run(fs, smallTrace(), DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Jobs) != 3 {
		t.Fatalf("jobs executed = %d", len(stats.Jobs))
	}
	for _, j := range stats.Jobs {
		if j.Finished.Before(j.Arrival) {
			t.Fatalf("job %d finished before arrival", j.ID)
		}
		if j.CompletionTime() <= 0 {
			t.Fatalf("job %d completion = %v", j.ID, j.CompletionTime())
		}
		if j.TaskSeconds <= 0 {
			t.Fatalf("job %d task seconds = %v", j.ID, j.TaskSeconds)
		}
	}
	// Job 0 reads 2 blocks (32 MB / 16 MB), job 1 reads 3, job 2 reads 2.
	if stats.Jobs[0].TotalBlocks != 2 || stats.Jobs[1].TotalBlocks != 3 {
		t.Fatalf("block counts: %d, %d", stats.Jobs[0].TotalBlocks, stats.Jobs[1].TotalBlocks)
	}
	// HDFS mode: every read served from HDD.
	reads, memReads, _, _, bytes, memBytes := stats.Totals()
	if reads != 7 || memReads != 0 || memBytes != 0 {
		t.Fatalf("reads=%d memReads=%d", reads, memReads)
	}
	if bytes != 112*storage.MB {
		t.Fatalf("bytes read = %d", bytes)
	}
	// Output file must exist.
	if _, err := fs.Open("/out/1"); err != nil {
		t.Fatalf("output missing: %v", err)
	}
}

func TestPreloadCreatesAllFiles(t *testing.T) {
	fs := newSystem(t, dfs.ModeHDFS)
	tr := smallTrace()
	stats, err := Run(fs, tr, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tr.Files {
		if _, err := fs.Open(f.Path); err != nil {
			t.Fatalf("input %s missing after run: %v", f.Path, err)
		}
	}
	if stats.PreloadDuration <= 0 {
		t.Fatal("preload took no simulated time")
	}
}

func TestOctopusModeServesFromMemory(t *testing.T) {
	fs := newSystem(t, dfs.ModeOctopus)
	stats, err := Run(fs, smallTrace(), DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, memReads, _, _, _, _ := stats.Totals()
	if memReads == 0 {
		t.Fatal("octopus placement produced no memory reads")
	}
	// Location stats: all blocks had memory replicas (files fit in tier).
	_, _, blocks, memLoc, _, _ := stats.Totals()
	if memLoc != blocks {
		t.Fatalf("memLoc=%d blocks=%d", memLoc, blocks)
	}
}

func TestBaselineSnapshotTaken(t *testing.T) {
	fs := newSystem(t, dfs.ModeHDFS)
	stats, err := Run(fs, smallTrace(), DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FSBaseline.FilesCreated != 2 {
		t.Fatalf("baseline files = %d, want 2 (preload)", stats.FSBaseline.FilesCreated)
	}
	if stats.FSFinal.FilesCreated != 3 {
		t.Fatalf("final files = %d, want 3 (one output)", stats.FSFinal.FilesCreated)
	}
}

func TestBeforePhaseHookRuns(t *testing.T) {
	fs := newSystem(t, dfs.ModeHDFS)
	called := false
	if _, err := Run(fs, smallTrace(), DefaultOptions(), func() { called = true }); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("beforePhase hook never ran")
	}
}

func TestMissingInputReported(t *testing.T) {
	fs := newSystem(t, dfs.ModeHDFS)
	tr := smallTrace()
	tr.Jobs[0].InputPath = "/does/not/exist"
	_, err := Run(fs, tr, DefaultOptions(), nil)
	if err == nil {
		t.Fatal("missing input did not fail the run")
	}
}

func TestSlotContentionSerialisesTasks(t *testing.T) {
	// 1 node x 1 slot: tasks must run one at a time, so a 4-block job takes
	// at least 4 * (overhead + cpu).
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{Workers: 1, SlotsPerNode: 1, Spec: storage.NodeSpec{
		{Media: storage.HDD, Capacity: 2 * storage.GB, ReadBW: 1e9, WriteBW: 1e9, Count: 1},
	}})
	fs := dfs.MustNew(c, dfs.Config{Mode: dfs.ModeHDFS, BlockSize: 16 * storage.MB, Replication: 1, Seed: 9})
	tr := &workload.Trace{Name: "serial", Duration: time.Hour}
	tr.Files = []workload.FileSpec{{Path: "/in/a", Size: 64 * storage.MB, Bin: workload.BinA}}
	tr.Jobs = []workload.Job{{ID: 0, Arrival: time.Second, InputPath: "/in/a",
		InputBytes: 64 * storage.MB, CPUPerTask: 10 * time.Second, Bin: workload.BinA}}
	opts := DefaultOptions()
	stats, err := Run(fs, tr, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	minTime := 4 * (taskOverhead + 10*time.Second)
	if got := stats.Jobs[0].CompletionTime(); got < minTime {
		t.Fatalf("completion %v < serial minimum %v", got, minTime)
	}
}

func TestAggregations(t *testing.T) {
	fs := newSystem(t, dfs.ModeHDFS)
	stats, err := Run(fs, smallTrace(), DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	byBin := stats.JobCountByBin()
	if byBin[workload.BinA] != 3 {
		t.Fatalf("bin A jobs = %d", byBin[workload.BinA])
	}
	mean := stats.MeanCompletionByBin()
	if mean[workload.BinA] <= 0 {
		t.Fatal("mean completion missing")
	}
	if mean[workload.BinF] != 0 {
		t.Fatal("empty bin has non-zero mean")
	}
	ts := stats.TaskSecondsByBin()
	if ts[workload.BinA] <= 0 {
		t.Fatal("task seconds missing")
	}
	reads := stats.ReadsByBinMedia()
	if reads[workload.BinA][storage.HDD] != 7 {
		t.Fatalf("bin A HDD reads = %d", reads[workload.BinA][storage.HDD])
	}
	bytesByBin := stats.BytesReadByBin()
	if bytesByBin[workload.BinA] != 112*storage.MB {
		t.Fatalf("bin A bytes = %d", bytesByBin[workload.BinA])
	}
}

// TestEndToEndWithManager exercises the full Octopus++ stack on a small
// generated workload: placement, policy-driven movement, job execution.
func TestEndToEndWithManager(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{Workers: 3, SlotsPerNode: 2, Spec: storage.PaperMediaSpec(128*storage.MB, 512*storage.MB, 4*storage.GB, 1)})
	fs := dfs.MustNew(c, dfs.Config{Mode: dfs.ModeOctopus, BlockSize: 16 * storage.MB, Seed: 21})
	cfg := core.DefaultConfig()
	cfg.PeriodicInterval = time.Minute
	ctx := core.NewContext(fs, cfg)
	down := policy.NewLRU(ctx)
	up := policy.NewOSA(ctx)
	mgr := core.NewManager(ctx, down, up)
	mgr.Start()
	defer mgr.Stop()

	p := workload.FB()
	p.NumJobs = 60
	p.Duration = time.Hour
	// Scale sizes down: cap bins at C so files fit this small cluster.
	p.BinFractions = [workload.NumBins]float64{0.8, 0.2, 0, 0, 0, 0}
	tr := workload.Generate(p, 31)

	stats, err := Run(fs, tr, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Jobs) != 60 {
		t.Fatalf("jobs = %d", len(stats.Jobs))
	}
	// The manager must have kept memory under control.
	if util := fs.TierUtilization(storage.Memory); util > 0.98 {
		t.Fatalf("memory at %.2f despite downgrades", util)
	}
	if mgr.Metrics().DowngradesScheduled == 0 {
		t.Fatal("no downgrades during workload")
	}
	_, memReads, _, _, _, _ := stats.Totals()
	if memReads == 0 {
		t.Fatal("no memory reads in managed run")
	}
	mm := mgr.Metrics()
	if mm.Ticks == 0 {
		t.Fatal("manager never ticked")
	}
}
