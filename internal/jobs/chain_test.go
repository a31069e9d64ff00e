package jobs

import (
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
	"octostore/internal/workload"
)

// TestChainedInputWaitsForProducer verifies the producer-consumer path: a
// job whose input is an earlier job's output waits (with retries) until
// the output exists, then completes normally.
func TestChainedInputWaitsForProducer(t *testing.T) {
	fs := newSystem(t, dfs.ModeHDFS)
	tr := &workload.Trace{Name: "chain", Duration: time.Hour}
	tr.Files = []workload.FileSpec{
		{Path: "/in/src", Size: 32 * storage.MB, Bin: workload.BinA},
	}
	tr.Jobs = []workload.Job{
		{ID: 0, Arrival: time.Minute, InputPath: "/in/src", InputBytes: 32 * storage.MB,
			CPUPerTask: 2 * time.Second, Bin: workload.BinA,
			OutputPath: "/out/stage1", OutputBytes: 16 * storage.MB},
		// Consumer arrives BEFORE the producer finishes writing: it must
		// retry until /out/stage1 exists.
		{ID: 1, Arrival: time.Minute + time.Second, InputPath: "/out/stage1",
			InputBytes: 16 * storage.MB, CPUPerTask: time.Second, Bin: workload.BinA},
	}
	stats, err := Run(fs, tr, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Jobs) != 2 {
		t.Fatalf("jobs completed = %d", len(stats.Jobs))
	}
	consumer := stats.Jobs[1]
	if consumer.ID != 1 {
		consumer = stats.Jobs[0]
	}
	// The consumer's completion includes the dependency wait, so it must
	// finish after the producer.
	producer := stats.Jobs[0]
	if producer.ID != 0 {
		producer = stats.Jobs[1]
	}
	if !consumer.Finished.After(producer.Finished) {
		t.Fatal("consumer finished before its producer")
	}
	if consumer.CompletionTime() < inputRetryDelay {
		t.Fatalf("consumer completion %v too fast to have waited for its input", consumer.CompletionTime())
	}
}

// TestMissingInputEventuallyFails verifies the retry path gives up: an
// input that never appears fails the run after the retry budget.
func TestMissingInputEventuallyFails(t *testing.T) {
	fs := newSystem(t, dfs.ModeHDFS)
	tr := &workload.Trace{Name: "orphan", Duration: time.Hour}
	tr.Files = []workload.FileSpec{
		{Path: "/in/a", Size: 16 * storage.MB, Bin: workload.BinA},
	}
	tr.Jobs = []workload.Job{
		{ID: 0, Arrival: time.Minute, InputPath: "/never/created",
			InputBytes: 16 * storage.MB, CPUPerTask: time.Second, Bin: workload.BinA},
	}
	if _, err := Run(fs, tr, DefaultOptions(), nil); err == nil {
		t.Fatal("run with an orphan input did not fail")
	}
}

// TestGeneratedTraceWithChainsRuns executes a generated FB trace (which
// contains producer-consumer chains) end to end on plain HDFS.
func TestGeneratedTraceWithChainsRuns(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{Workers: 3, SlotsPerNode: 4, Spec: storage.PaperMediaSpec(512*storage.MB, 4*storage.GB, 32*storage.GB, 1)})
	fs := dfs.MustNew(c, dfs.Config{Mode: dfs.ModeHDFS, BlockSize: 16 * storage.MB, Seed: 9})
	p := workload.FB()
	p.NumJobs = 80
	p.Duration = time.Hour
	p.BinFractions = [workload.NumBins]float64{0.9, 0.1, 0, 0, 0, 0}
	tr := workload.Generate(p, 3)
	stats, err := Run(fs, tr, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Jobs) != 80 {
		t.Fatalf("jobs = %d", len(stats.Jobs))
	}
	for i := range stats.Jobs {
		if stats.Jobs[i].Finished.IsZero() {
			t.Fatalf("job %d has no finish time", stats.Jobs[i].ID)
		}
	}
}
