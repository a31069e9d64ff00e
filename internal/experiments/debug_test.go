package experiments

import (
	"testing"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/eval"
	"octostore/internal/jobs"
	"octostore/internal/policy"
	"octostore/internal/scenario"
	"octostore/internal/sim"
	"octostore/internal/workload"
)

// TestDebugXGBEngagement is a diagnostic harness (run with -run DebugXGB
// -v): it executes one full-scale FB run with the XGB policies and reports
// whether the learners engaged, how much data moved, and the resulting hit
// ratios. It asserts only weak invariants; its value is the -v output.
func TestDebugXGBEngagement(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	o := DefaultOptions()
	p, err := o.profile("fb")
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Generate(p, o.Seed)
	// Wired by hand (not runSystem) so the test keeps hold of the two XGB
	// policies whose learners it reports on.
	cl, err := cluster.New(sim.NewEngine(), o.clusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(cl, dfs.Config{Mode: dfs.ModeOctopus, Seed: o.Seed, ClientRate: 2000e6})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewContext(fs, core.DefaultConfig())
	downXGB := policy.NewXGBDown(ctx, scenario.LearnerConfig(o.Seed))
	upXGB := policy.NewXGBUp(ctx, scenario.LearnerConfig(o.Seed))
	mgr := core.NewManager(ctx, downXGB, upXGB)
	mgr.Start()
	stats, err := jobs.Run(fs, tr, jobs.Options{Seed: o.Seed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Stop()
	mm := mgr.Metrics()
	t.Logf("manager: %+v", mm)
	t.Logf("monitor: done=%d failed=%d repairs=%d",
		mgr.Monitor().MovesDone(), mgr.Monitor().MovesFailed(), mgr.Monitor().Repairs())
	for name, pl := range map[string]interface {
		SamplesSeen() int64
		Trainings() int64
		Updates() int64
		RollingError() float64
		Ready() bool
	}{
		"down": downXGB.Pipeline().Learner,
		"up":   upXGB.Pipeline().Learner,
	} {
		trees := 0
		switch name {
		case "down":
			if m := downXGB.Pipeline().Learner.Model(); m != nil {
				trees = m.NumTrees()
			}
		case "up":
			if m := upXGB.Pipeline().Learner.Model(); m != nil {
				trees = m.NumTrees()
			}
		}
		t.Logf("%s learner: samples=%d trainings=%d updates=%d err=%.3f trees=%d ready=%v",
			name, pl.SamplesSeen(), pl.Trainings(), pl.Updates(), pl.RollingError(), trees, pl.Ready())
	}
	reads, memReads, blocks, memLoc, bytes, memBytes := stats.Totals()
	t.Logf("HR access=%s BHR=%s | HR location=%s | reads=%d blocks=%d",
		eval.Pct(eval.HitRatio(memReads, reads)).Text,
		eval.Pct(eval.ByteHitRatio(memBytes, bytes)).Text,
		eval.Pct(eval.Ratio(float64(memLoc), float64(blocks))).Text, reads, blocks)
	for i, f := range fs.UnderReplicatedFiles() {
		if i >= 5 {
			break
		}
		b := f.Blocks()[0]
		layout := ""
		for _, r := range b.Replicas() {
			layout += r.Media().String() + "/" + r.State().String() + " "
		}
		t.Logf("under-replicated: %s repl=%d block0: %s", f.Path(), f.Replication(), layout)
	}
	if mm.DowngradesScheduled == 0 {
		t.Error("no downgrades happened")
	}
	if mm.UpgradesScheduled == 0 {
		t.Error("XGB upgrade policy never scheduled an upgrade")
	}
}
