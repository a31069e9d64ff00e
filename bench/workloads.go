package main

import (
	"fmt"
	"sort"
	"time"

	"octostore/internal/storage"
)

// options scopes one invocation.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	dir     string // spans and probe scratch files go here
	// setups overrides how many times a workload sets up (0: its default).
	setups int
	// isolated holds the workload-independent probe results when the caller
	// already measured them (nil: runTraced measures them itself).
	isolated map[string]float64
}

// setupReps is how many times a workload sets up so that setup_s is a median:
// def at full scale (3 where set-up takes seconds, 9 where it takes tens of
// milliseconds and more repetitions cost nothing), once with -quick.
func (o options) setupReps(def int) int {
	switch {
	case o.setups > 0:
		return o.setups
	case o.quick:
		return 1
	}
	return def
}

// report is one workload's outcome. EndToEnd comes from the undecorated run;
// PerLayer (traced runs only) from the half-length reference + traced pair.
type report struct {
	Workload     string             `json:"workload"`
	Correct      bool               `json:"correct"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	ScheduleHash string             `json:"schedule_hash"`
	Violations   []string           `json:"violations,omitempty"`
	EndToEnd     map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	// LayerSelfNS is span time minus child-covered time, summed per layer
	// over the (sampled) spans of the traced run.
	LayerSelfNS map[string]float64 `json:"layer_self_ns,omitempty"`
	// Info carries numbers that explain a run but are not part of the
	// contract (sample counts, guard activity).
	Info map[string]float64 `json:"info,omitempty"`
}

func (r *report) violate(format string, args ...any) {
	r.Correct = false
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// windowRates groups consecutive chunk durations into sub-windows of at least
// w seconds and returns each sub-window's ops/s. A single chunk is too short a
// sample: it finishes inside one scheduler time slice or straddles a stall,
// and the bounded pipelines absorb a chunk's worth of submissions at once.
func windowRates(chunkS []float64, chunkOps int, w float64) []float64 {
	var rates []float64
	var dur float64
	var ops int
	for _, d := range chunkS {
		dur += d
		ops += chunkOps
		if dur >= w {
			rates = append(rates, float64(ops)/dur)
			dur, ops = 0, 0
		}
	}
	return rates
}

// subWindows is how many sub-window rates ops_per_s is the median of.
const subWindows = 10

// The sizing below is the issue's, shrunk uniformly where the contract's time
// cap (26 runs per workload, each with set-up) would not hold it; README.md
// has the evidence behind each number.

func readHotSpec(quick bool) (serveSpec, time.Duration) {
	spec := serveSpec{
		name: "read_hot", timeScale: 60,
		files: 200_000, fileSize: 16 * storage.KB, dirs: 1024,
		// 16 x 4 GB of memory against 3.2 GB of data: nothing ever crosses a
		// watermark, and sixteen memory devices keep even the hottest file's
		// device channel well below saturation at CPU-speed reads.
		workers: 16, node: nodeSpec(4*1024, 16*1024, 64*1024),
	}
	warm := time.Second
	if quick {
		spec.files, spec.dirs, warm = 2000, 64, 50*time.Millisecond
	}
	return spec, warm
}

func ingestSpec(quick bool) (serveSpec, replayScale) {
	spec := serveSpec{
		name:  "ingest_replay",
		files: 4000, fileSize: storage.MB, dirs: 64,
		workers: 4, node: nodeSpec(16*1024, 64*1024, 256*1024),
	}
	scale := replayScale{warmOps: 200_000, blockOps: 1 << 19, chunkOps: 1 << 12, refOps: 1e6}
	if quick {
		spec.files, scale = 400, replayScale{warmOps: 2000, blockOps: 2000, chunkOps: 100, refOps: 1e6}
	}
	return spec, scale
}

func churnSpec(quick bool) (serveSpec, replayScale) {
	spec := serveSpec{
		name:  "churn_replay",
		files: 4000, fileSize: storage.MB, dirs: 64,
		workers: 4, node: nodeSpec(512, 4*1024, 64*1024),
		queueDepth: 64,
	}
	scale := replayScale{warmOps: 20_000, blockOps: 50_000, chunkOps: 250, refOps: 1e5}
	if quick {
		spec.files, spec.node = 400, nodeSpec(64, 512, 8*1024)
		scale = replayScale{warmOps: 400, blockOps: 400, chunkOps: 20, refOps: 1e5}
	}
	return spec, scale
}

func traceSpec(quick bool) xgbSpec {
	if quick {
		return xgbSpec{jobs: 60, hours: 0.36}
	}
	return xgbSpec{jobs: 1500, hours: 9}
}

// verifyServer runs the full invariant suite at a quiescent point and checks
// the namespace against the schedule's population.
func verifyServer(rep *report, sys *system, wantFiles int) {
	sys.srv.Flush()
	for _, v := range sys.srv.Verify() {
		rep.violate("%s", v)
	}
	if got := sys.liveFiles(); got != wantFiles {
		rep.violate("namespace holds %d files, schedule says %d", got, wantFiles)
	}
}

// runReadHot measures read_hot untraced (tr == nil) or traced.
func runReadHot(o options, tr *tracer) (*report, *hotRun, *hotResult, error) {
	spec, warm := readHotSpec(o.quick)
	run, res, err := runHot(spec, warm, o, tr, o.setupReps(3))
	if err != nil {
		return nil, nil, nil, err
	}
	rep := &report{Workload: spec.name, Correct: true, Attempted: res.attempted, Failed: res.failed,
		ScheduleHash: fmt.Sprintf("%016x", res.scheduleHash)}
	if res.failed > 0 {
		rep.violate("%d ops failed, first: %v", res.failed, res.firstErr)
	}
	verifyServer(rep, run.sys, spec.files)
	rep.EndToEnd = map[string]float64{
		"ops_per_s":             res.opsPerS,
		"replay_s":              res.replayS,
		"access_accounted_frac": float64(res.stats.EventsDrained) / float64(res.stats.Accesses),
		"mem_hit_frac":          memHitFrac(res.stats),
		"sim_byte_hit_frac":     memHitFrac(res.stats), // equal-size files: bytes and counts agree
		"sim_job_mean_s":        res.latMeanS,
		"heap_bytes_per_file":   res.heapPerFile,
		"setup_s":               median(res.setupS),
	}
	return rep, run, res, nil
}

// runReplayWorkload measures ingest_replay or churn_replay.
func runReplayWorkload(spec serveSpec, scale replayScale, o options, tr *tracer) (*report, *replayRun, *replayResult, error) {
	run, res, err := runReplay(spec, scale, o, tr, o.setupReps(9))
	if err != nil {
		return nil, nil, nil, err
	}
	failed := run.failed + run.reap.failed
	rep := &report{Workload: spec.name, Correct: true, Attempted: run.attempted, Failed: failed,
		ScheduleHash: fmt.Sprintf("%016x", res.scheduleHash)}
	if failed > 0 {
		first := run.firstErr
		if first == nil {
			first = run.reap.first
		}
		rep.violate("%d ops failed, first: %v", failed, first)
	}
	verifyServer(rep, run.sys, run.sched.live())
	timedOps := float64(len(res.chunkS) * res.chunkOps)
	rep.EndToEnd = map[string]float64{
		"ops_per_s": median(windowRates(res.chunkS, res.chunkOps, o.seconds/subWindows)),
		// Mean cost of refOps including the final fence: work deferred past
		// the sub-windows shows here.
		"replay_s":              (res.windowS + res.flushS) / timedOps * scale.refOps,
		"access_accounted_frac": float64(res.stats.EventsDrained) / float64(res.stats.Accesses),
		"mem_hit_frac":          memHitFrac(res.stats),
		"sim_byte_hit_frac":     memHitFrac(res.stats), // equal-size files: bytes and counts agree
		"sim_job_mean_s":        res.latMeanS,
		"heap_bytes_per_file":   res.heapPerFile,
		"setup_s":               median(res.setupS),
	}
	rep.Info = map[string]float64{
		"chunks": float64(len(res.chunkS)), "final_flush_s": res.flushS,
		"guard_fences": float64(run.guardFences), "delete_busy_retries": float64(run.busyRetries),
	}
	return rep, run, res, nil
}

// runTraceXGB replays the trace until seconds of replay time accumulated (at
// least three times) and reports medians; simulated outcomes must be equal
// across the replays.
func runTraceXGB(o options, tr *tracer) (*report, []*xgbReplay, error) {
	spec := traceSpec(o.quick)
	var reps []*xgbReplay
	var total float64
	for len(reps) < 3 || total < o.seconds {
		r, err := replayXGB(spec, o.seed, tr)
		if err != nil {
			return nil, nil, err
		}
		if len(reps) > 0 {
			// Only the last replay's system is probed; let the others go.
			reps[len(reps)-1].fs, reps[len(reps)-1].index = nil, nil
		}
		reps = append(reps, r)
		total += r.replayS
	}
	var setupS []float64
	spec.setupOnly = true // set-up alone: the same trace with no jobs to run
	for i := len(reps); i < o.setupReps(9); i++ {
		r, err := replayXGB(spec, o.seed, nil)
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, r.setupS)
	}
	first := reps[0]
	rep := &report{Workload: "trace_xgb", Correct: true, ScheduleHash: fmt.Sprintf("%016x", first.traceSig)}
	var replayS, heap []float64
	for i, r := range reps {
		rep.Attempted += int64(spec.jobs)
		rep.Failed += int64(spec.jobs - r.jobs)
		for _, p := range r.problems {
			rep.violate("replay %d: %s", i, p)
		}
		if r.simEvents != first.simEvents || r.simByteHit != first.simByteHit || r.simJobMeanS != first.simJobMeanS {
			rep.violate("replay %d diverged: events %d vs %d, byte hit %v vs %v, job mean %v vs %v",
				i, r.simEvents, first.simEvents, r.simByteHit, first.simByteHit, r.simJobMeanS, first.simJobMeanS)
		}
		replayS = append(replayS, r.replayS)
		setupS = append(setupS, r.setupS)
		heap = append(heap, r.heapPerFile)
	}
	rep.EndToEnd = map[string]float64{
		"ops_per_s":             float64(spec.jobs) / median(replayS),
		"replay_s":              median(replayS),
		"access_accounted_frac": first.accounted,
		"mem_hit_frac":          first.memHit,
		"sim_byte_hit_frac":     first.simByteHit,
		"sim_job_mean_s":        first.simJobMeanS,
		"heap_bytes_per_file":   median(heap),
		"setup_s":               median(setupS),
	}
	rep.Info = map[string]float64{"replays": float64(len(reps)), "sim_events": float64(first.simEvents)}
	return rep, reps, nil
}
