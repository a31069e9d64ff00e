package main

import (
	"fmt"
	"runtime"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/jobs"
	"octostore/internal/ml"
	"octostore/internal/policy"
	"octostore/internal/sim"
	"octostore/internal/workload"
)

// xgbSpec sizes the paper-path workload: workload.FB() stretched to jobs over
// hours (same arrival density as the paper's 1000 jobs / 6 h), job sizes
// capped at bin D. Bins E and F are under 3% of the jobs but half the bytes;
// with them, which of a handful of 5-10 GB files happens to sit in memory
// swings the byte hit ratio by a third from one seed to the next.
type xgbSpec struct {
	jobs  int
	hours float64
	// setupOnly drops the jobs after generation, leaving build + staging.
	setupOnly bool
}

// xgbLearner is the experiments' learner configuration (internal/experiments
// learnerConfig): the paper's tree shape with a bounded ensemble.
func xgbLearner(seed int64) ml.LearnerConfig {
	cfg := ml.DefaultLearnerConfig()
	cfg.Seed = seed
	cfg.Params.MaxTrees = 200
	cfg.MinTrainSamples = 300
	cfg.UpdateBatch = 200
	cfg.UpdateRounds = 3
	return cfg
}

// xgbReplay is one replay's measurements. The sim* fields are outcomes in
// virtual time and must repeat exactly for one seed.
type xgbReplay struct {
	generateS   float64
	setupS      float64 // generate + build + staging (jobs.Run's preload)
	replayS     float64
	heapPerFile float64

	simEvents   uint64
	simByteHit  float64
	simJobMeanS float64
	memHit      float64
	accounted   float64
	jobs        int

	mgr      core.Metrics
	trainS   float64
	updates  int64
	samples  int64
	traceSig uint64
	problems []string

	// the finished system, kept for the read-only probes
	fs    *dfs.FileSystem
	index *core.CandidateIndex
}

// traceHash fingerprints the generated trace.
func traceHash(tr *workload.Trace) (h uint64) {
	for _, f := range tr.Files {
		h = fnvMix(h, uint64(f.Size))
	}
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		h = fnvMix(h, uint64(j.Arrival))
		h = fnvMix(h, uint64(j.InputBytes))
		h = fnvMix(h, uint64(j.OutputBytes))
	}
	return h
}

// replayXGB generates the trace, builds a fresh sequential system (no server)
// and replays it through jobs.Run.
func replayXGB(spec xgbSpec, seed int64, tr *tracer) (*xgbReplay, error) {
	out := &xgbReplay{}
	start := time.Now()
	p := workload.FB()
	p.NumJobs = spec.jobs
	p.Duration = time.Duration(spec.hours * float64(time.Hour))
	trace := workload.Generate(workload.CapProfile(p, workload.BinD), seed)
	out.generateS = time.Since(start).Seconds()
	out.traceSig = traceHash(trace)
	if spec.setupOnly {
		trace.Jobs = nil
	}

	engine := sim.NewEngine()
	cl, err := cluster.New(engine, cluster.PaperConfig())
	if err != nil {
		return nil, err
	}
	fs, err := dfs.New(cl, dfs.Config{Mode: dfs.ModeOctopus, Seed: seed, ClientRate: 2000e6})
	if err != nil {
		return nil, err
	}
	ctx := core.NewContext(fs, core.DefaultConfig())
	down := policy.NewXGBDown(ctx, xgbLearner(seed))
	up := policy.NewXGBUp(ctx, xgbLearner(seed))
	mgr := core.NewManager(ctx, traceDown(down, tr), traceUp(up, tr))
	mgr.Start()

	var staged time.Time
	var spanID, spanStart int64
	if tr != nil {
		// The system runs inline on this goroutine: seam calls belong to
		// this replay's span.
		spanID, spanStart = tr.newID(), tr.now()
		tr.seam.Store(spanID)
	}
	stats, err := jobs.Run(fs, trace, jobs.Options{Seed: seed}, func() { staged = time.Now() })
	end := time.Now()
	if tr != nil {
		tr.add(spanID, rootRun, "jobs.run", spanStart, tr.now())
		tr.seam.Store(rootBackground)
	}
	mgr.Stop()
	if err != nil {
		return nil, fmt.Errorf("trace_xgb: %w", err)
	}
	out.setupS = staged.Sub(start).Seconds()
	out.replayS = end.Sub(staged).Seconds()
	if spec.setupOnly {
		return out, nil
	}

	reads, memReads, _, _, bytes, memBytes := stats.Totals()
	var sum time.Duration
	for i := range stats.Jobs {
		sum += stats.Jobs[i].CompletionTime()
	}
	out.jobs = len(stats.Jobs)
	out.simEvents = engine.Fired()
	out.simByteHit = float64(memBytes) / float64(bytes)
	out.simJobMeanS = sum.Seconds() / float64(out.jobs)
	out.memHit = float64(memReads) / float64(reads)
	out.accounted = float64(stats.FSFinal.FileAccesses-stats.FSBaseline.FileAccesses) / float64(out.jobs)
	out.mgr = mgr.Metrics()
	for _, l := range []*ml.Learner{down.Pipeline().Learner, up.Pipeline().Learner} {
		out.trainS += l.TrainTime().Seconds()
		out.updates += l.Updates()
		out.samples += l.SamplesSeen()
	}

	if out.jobs != len(trace.Jobs) {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d jobs completed", out.jobs, len(trace.Jobs)))
	}
	if err := fs.CheckAccounting(); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	if err := fs.CheckInvariants(); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	if err := ctx.Index().Audit(); err != nil {
		out.problems = append(out.problems, "index: "+err.Error())
	}
	out.heapPerFile = heapInuse() / float64(stats.FSFinal.FilesCreated)
	runtime.KeepAlive(mgr)
	out.fs, out.index = fs, ctx.Index()
	return out, nil
}
