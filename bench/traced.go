package main

import (
	"fmt"
	"math"
	"path/filepath"

	"octostore/internal/dfs"
	"octostore/internal/server"
)

// runTraced produces the per-layer metrics of one workload: a half-length
// undecorated reference run, then a half-length run with the decorators and
// span recording on, then the probes. End-to-end numbers never come from
// here.
func runTraced(name string, o options) (*report, error) {
	half := o
	half.seconds = o.seconds / 2
	half.setups = 1
	var rep *report
	var pl map[string]float64
	var tr *tracer
	var err error
	switch name {
	case "read_hot":
		rep, pl, tr, err = tracedReadHot(half)
	case "ingest_replay", "churn_replay":
		rep, pl, tr, err = tracedReplay(name, half)
	default:
		rep, pl, tr, err = tracedTraceXGB(half)
	}
	if err != nil {
		return nil, err
	}
	iso := o.isolated
	if iso == nil {
		if iso, err = isolatedProbes(o); err != nil {
			return nil, err
		}
	}
	for k, v := range iso {
		pl[k] = v
	}
	for _, d := range perLayer {
		if _, ok := pl[d.Name]; !ok {
			pl[d.Name] = 0 // the layer is bypassed on this workload
		}
	}
	if err := finite(pl); err != nil {
		return nil, err
	}
	rep.PerLayer = pl
	rep.EndToEnd = nil
	spans := tr.finish()
	rep.LayerSelfNS = layerSelfNS(spans)
	if err := writeSpans(filepath.Join(o.dir, "spans_"+name+".jsonl"), spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// finite reports whether every value of m is a finite number.
func finite(m map[string]float64) error {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return nil
}

// overhead is the share of throughput the decorators cost.
func overhead(traced, reference float64) float64 {
	if reference <= 0 {
		return 0
	}
	return 1 - traced/reference
}

// spanLayers fills the metrics read off the spans that started in the timed
// window [from, to) (tracer nanoseconds). Hot-path boundaries report the
// median of their sampled spans: a sample that straddles a preemption is ten
// thousand times the typical one and would be the whole mean. The rare, heavy
// calls (select, tick, flush) report the mean, which times their count is the
// time they took.
func spanLayers(pl map[string]float64, tr *tracer, from, to int64, busyHostS float64) {
	tr.mu.Lock()
	var timed []span
	for _, s := range tr.spans {
		if s.Start >= from && s.Start < to {
			timed = append(timed, s)
		}
	}
	tr.mu.Unlock()
	st := statsByName(timed)
	pl["server.access_ns"] = st["server.access"].quantile(0.5)
	pl["server.access_ns_p99"] = st["server.access"].quantile(0.99)
	pl["server.create_submit_ns"] = st["server.create_submit"].quantile(0.5)
	pl["server.delete_submit_ns"] = st["server.delete_submit"].quantile(0.5)
	pl["storage.plane.serve_ns"] = st["storage.plane.serve"].quantile(0.5)
	pl["policy.up.start_ns"] = st["policy.up.start"].quantile(0.5)
	pl["server.flush_s"] = st["server.flush"].mean() / 1e9
	pl["policy.tick_ns"] = st["policy.tick"].mean()
	sel := st["policy.down.select"]
	pl["policy.down.select_ns"] = sel.mean()
	pl["policy.down.select_calls"] = float64(len(sel))
	if busyHostS > 0 {
		pl["policy.down.select_busy_frac"] = sel.sum() / 1e9 / busyHostS
	}
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// serverLayers fills the metrics read off a finished server run, runs the
// probes that need its populated file systems, and verifies the server again
// afterwards (the probes feed the policies).
func serverLayers(rep *report, pl map[string]float64, sys *system, stats server.ServeStats, paths []string) {
	var peak, sum int64
	for _, s := range sys.srv.ShardStats() {
		ops := s.Accesses + s.Creates + s.Deletes + s.Stats
		sum += ops
		peak = max(peak, ops)
	}
	pl["server.shard.imbalance"] = frac(peak*shards, sum)
	pl["server.ring.drained"] = float64(stats.EventsDrained)
	pl["server.ring.dropped"] = float64(stats.EventsDropped)
	pl["server.ring.dropped_frac"] = frac(stats.EventsDropped, stats.Accesses)
	pl["server.ring.events_per_batch"] = frac(stats.EventsDrained, stats.DrainBatches)
	pl["storage.plane.calls"] = float64(sys.tplane.calls.Load())
	pl["storage.plane.saturated_frac"] = frac(sys.tplane.saturated.Load(), sys.tplane.calls.Load())

	m := sys.managerMetrics()
	pl["core.manager.downgrades"] = float64(m.DowngradesScheduled)
	pl["core.manager.upgrades"] = float64(m.UpgradesScheduled)
	pl["core.manager.downgrade_errors"] = float64(m.DowngradeErrors)
	pl["core.manager.upgrade_errors"] = float64(m.UpgradeErrors)
	var scheduled, completed, failed, shed int64
	for _, t := range sys.srv.ExecutorStats().PerTier {
		scheduled += t.Scheduled
		completed += t.Completed
		failed += t.Failed
		shed += t.Shed
	}
	pl["server.executor.scheduled"] = float64(scheduled)
	pl["server.executor.completed"] = float64(completed)
	pl["server.executor.failed"] = float64(failed)
	pl["server.executor.shed"] = float64(shed)
	pl["server.executor.fail_frac"] = frac(failed, completed+failed)
	pl["server.executor.shed_frac"] = frac(shed, scheduled+shed)
	q := sys.srv.QuotaStats()
	pl["cluster.ledger.borrows"] = float64(q.Borrows)
	pl["cluster.ledger.borrow_fail_frac"] = frac(q.BorrowFailures, q.Borrows+q.BorrowFailures)

	n := min(len(paths), probeLimit)
	pl["server.stat_ns"] = perOp(n, func(i int) {
		if info, err := sys.srv.Stat(paths[i]); err == nil {
			probeSink += int(info.Size)
		}
	})
	var p fsProbe
	sys.srv.Exec(func(i int, fs *dfs.FileSystem) { p.run(fs, sys.mgrs[i].Context().Index()) })
	p.fill(pl)
	verifyServer(rep, sys, len(paths))
}

// windowLayers starts a server workload's per-layer map with the numbers both
// kinds of server run measure the same way.
func windowLayers(rep, ref *report, events uint64, windowS, generateS float64) map[string]float64 {
	return map[string]float64{
		"trace_overhead_frac": overhead(rep.EndToEnd["ops_per_s"], ref.EndToEnd["ops_per_s"]),
		"sim.events":          float64(events),
		"sim.event_ns":        windowS * 1e9 / float64(max(events, 1)),
		"workload.generate_s": generateS,
	}
}

// absorb makes the traced report answer for its reference run too.
func (r *report) absorb(ref *report) {
	r.Correct = r.Correct && ref.Correct
	r.Violations = append(r.Violations, ref.Violations...)
}

func tracedReadHot(o options) (*report, map[string]float64, *tracer, error) {
	ref, refRun, _, err := runReadHot(o, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	refRun.sys.srv.Close()
	tr := newTracer()
	rep, run, res, err := runReadHot(o, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	defer run.sys.srv.Close()
	pl := windowLayers(rep, ref, res.events, res.windowS, res.generateS)
	spanLayers(pl, tr, res.spanFrom, res.spanTo, res.windowS*shards)
	serverLayers(rep, pl, run.sys, res.stats, run.paths)
	rep.absorb(ref)
	return rep, pl, tr, nil
}

func tracedReplay(name string, o options) (*report, map[string]float64, *tracer, error) {
	spec, scale := ingestSpec(o.quick)
	if name == "churn_replay" {
		spec, scale = churnSpec(o.quick)
	}
	ref, refRun, _, err := runReplayWorkload(spec, scale, o, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	refRun.sys.srv.Close()
	tr := newTracer()
	rep, run, res, err := runReplayWorkload(spec, scale, o, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	defer run.sys.srv.Close()
	pl := windowLayers(rep, ref, res.events, res.windowS, res.generateS)
	spanLayers(pl, tr, res.spanFrom, res.spanTo, res.windowS*shards)
	paths := make([]string, 0, run.sched.live())
	for seq := run.sched.oldest; seq != run.sched.next; seq++ {
		paths = append(paths, run.sched.paths[seq])
	}
	serverLayers(rep, pl, run.sys, res.stats, paths)
	rep.absorb(ref)
	return rep, pl, tr, nil
}

func tracedTraceXGB(o options) (*report, map[string]float64, *tracer, error) {
	ref, _, err := runTraceXGB(o, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	tr := newTracer()
	rep, reps, err := runTraceXGB(o, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	if rep.ScheduleHash != ref.ScheduleHash {
		rep.violate("traced replay ran trace %s, reference %s", rep.ScheduleHash, ref.ScheduleHash)
	}
	for _, k := range []string{"sim_byte_hit_frac", "sim_job_mean_s", "mem_hit_frac"} {
		if rep.EndToEnd[k] != ref.EndToEnd[k] {
			rep.violate("decorators changed %s: %v vs %v", k, rep.EndToEnd[k], ref.EndToEnd[k])
		}
	}
	first := reps[0]
	var replayS, genS, trainS []float64
	for _, r := range reps {
		replayS = append(replayS, r.replayS)
		genS = append(genS, r.generateS)
		trainS = append(trainS, r.trainS)
	}
	var total float64
	for _, s := range replayS {
		total += s
	}
	pl := map[string]float64{
		"trace_overhead_frac":           overhead(ref.EndToEnd["replay_s"], rep.EndToEnd["replay_s"]),
		"sim.events":                    float64(first.simEvents),
		"sim.event_ns":                  median(replayS) * 1e9 / float64(first.simEvents),
		"workload.generate_s":           median(genS),
		"ml.learner.train_s":            median(trainS),
		"ml.learner.updates":            float64(first.updates),
		"ml.learner.samples":            float64(first.samples),
		"core.manager.downgrades":       float64(first.mgr.DowngradesScheduled),
		"core.manager.upgrades":         float64(first.mgr.UpgradesScheduled),
		"core.manager.downgrade_errors": float64(first.mgr.DowngradeErrors),
		"core.manager.upgrade_errors":   float64(first.mgr.UpgradeErrors),
	}
	spanLayers(pl, tr, 0, math.MaxInt64, total)
	// Every replay made the same calls; report one replay's worth.
	pl["policy.down.select_calls"] /= float64(len(reps))
	last := reps[len(reps)-1]
	var p fsProbe
	p.run(last.fs, last.index)
	p.fill(pl)
	if err := last.fs.CheckInvariants(); err != nil {
		rep.violate("after probes: %v", err)
	}
	rep.absorb(ref)
	return rep, pl, tr, nil
}
