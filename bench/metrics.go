package main

// metricDef names one reported number. The tables below are the single source
// of truth: the harness emits exactly these, BENCHMARK.json lists exactly
// these (bench_test.go compares the two), and -compare reads the bounds here.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the relative worsening of the median that counts as a
	// regression (end-to-end metrics only).
	Bound float64
	// Host is true when the number is wall time (or memory) our code burned
	// on this machine, false when it is an outcome of the simulated system in
	// virtual time. The two kinds are never mixed in one metric.
	Host bool
	// Moves records, for a per-layer metric, which end-to-end metric it is
	// expected to move and on which workload; everywhere else the prediction
	// is "no change".
	Moves string
}

// endToEnd is what a user of the system sees. Every workload reports every
// metric; README.md gives the per-workload definition where a name fits one
// workload more naturally than another.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Host: true},
	{Name: "replay_s", Unit: "s", Better: "lower", Bound: 0.25, Host: true},
	{Name: "access_accounted_frac", Unit: "frac", Better: "higher", Bound: 0.15},
	{Name: "mem_hit_frac", Unit: "frac", Better: "higher", Bound: 0.25},
	{Name: "sim_byte_hit_frac", Unit: "frac", Better: "higher", Bound: 0.25},
	{Name: "sim_job_mean_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "heap_bytes_per_file", Unit: "B", Better: "lower", Bound: 0.15, Host: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Host: true},
}

// perLayer comes from the traced run. Module names are the layers.
var perLayer = []metricDef{
	{Name: "server.route_ns", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@read_hot"},
	{Name: "server.stat_ns", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@read_hot"},
	{Name: "server.access_ns", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@read_hot"},
	{Name: "server.access_ns_p99", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@read_hot"},
	{Name: "server.shard.imbalance", Unit: "ratio", Better: "lower", Moves: "ops_per_s@read_hot"},

	{Name: "server.ring.drained", Unit: "count", Better: "higher", Moves: "access_accounted_frac@read_hot"},
	{Name: "server.ring.dropped", Unit: "count", Better: "lower", Moves: "access_accounted_frac@read_hot"},
	{Name: "server.ring.dropped_frac", Unit: "frac", Better: "lower", Moves: "access_accounted_frac@read_hot"},
	{Name: "server.ring.events_per_batch", Unit: "count", Better: "higher", Moves: "ops_per_s@read_hot"},
	{Name: "core.record_access_ns", Unit: "ns", Better: "lower", Host: true, Moves: "access_accounted_frac,ops_per_s@read_hot"},
	{Name: "policy.up.start_ns", Unit: "ns", Better: "lower", Host: true, Moves: "access_accounted_frac,ops_per_s@read_hot"},

	{Name: "storage.plane.serve_ns", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@read_hot"},
	{Name: "storage.plane.calls", Unit: "count", Better: "lower", Moves: "ops_per_s@read_hot"},
	{Name: "storage.plane.saturated_frac", Unit: "frac", Better: "lower", Moves: "sim_job_mean_s@read_hot"},

	{Name: "server.create_submit_ns", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@ingest_replay"},
	{Name: "server.delete_submit_ns", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@ingest_replay"},
	{Name: "server.flush_s", Unit: "s", Better: "lower", Host: true, Moves: "ops_per_s@ingest_replay"},
	{Name: "dfs.namespace.getfile_ns", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@ingest_replay"},
	{Name: "dfs.create_ns", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@ingest_replay"},
	{Name: "dfs.move_ns", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@churn_replay"},
	{Name: "sim.step_ns", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@ingest_replay"},

	{Name: "policy.down.select_ns", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@churn_replay,replay_s@trace_xgb"},
	{Name: "policy.down.select_calls", Unit: "count", Better: "lower", Moves: "ops_per_s@churn_replay"},
	{Name: "policy.down.select_busy_frac", Unit: "frac", Better: "lower", Host: true, Moves: "ops_per_s@churn_replay"},
	{Name: "core.index.select_lru_ns", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@churn_replay"},
	{Name: "core.manager.downgrades", Unit: "count", Better: "higher", Moves: "mem_hit_frac@churn_replay"},
	{Name: "core.manager.upgrades", Unit: "count", Better: "higher", Moves: "mem_hit_frac@churn_replay"},
	{Name: "core.manager.downgrade_errors", Unit: "count", Better: "lower", Moves: "mem_hit_frac,ops_per_s@churn_replay"},
	{Name: "core.manager.upgrade_errors", Unit: "count", Better: "lower", Moves: "mem_hit_frac,ops_per_s@churn_replay"},

	{Name: "server.executor.scheduled", Unit: "count", Better: "higher", Moves: "mem_hit_frac@churn_replay"},
	{Name: "server.executor.completed", Unit: "count", Better: "higher", Moves: "mem_hit_frac@churn_replay"},
	{Name: "server.executor.failed", Unit: "count", Better: "lower", Moves: "mem_hit_frac@churn_replay"},
	{Name: "server.executor.shed", Unit: "count", Better: "lower", Moves: "ops_per_s@churn_replay"},
	{Name: "server.executor.fail_frac", Unit: "frac", Better: "lower", Moves: "mem_hit_frac@churn_replay"},
	{Name: "server.executor.shed_frac", Unit: "frac", Better: "lower", Moves: "ops_per_s@churn_replay"},
	{Name: "cluster.ledger.borrows", Unit: "count", Better: "lower", Moves: "mem_hit_frac@churn_replay"},
	{Name: "cluster.ledger.borrow_fail_frac", Unit: "frac", Better: "lower", Moves: "mem_hit_frac@churn_replay"},
	{Name: "cluster.ledger.reserve_ns", Unit: "ns", Better: "lower", Host: true, Moves: "ops_per_s@churn_replay"},

	{Name: "policy.tick_ns", Unit: "ns", Better: "lower", Host: true, Moves: "replay_s@trace_xgb"},
	{Name: "ml.learner.train_s", Unit: "s", Better: "lower", Host: true, Moves: "replay_s@trace_xgb"},
	{Name: "ml.learner.updates", Unit: "count", Better: "higher", Moves: "none (must not move under a host-only change)"},
	{Name: "ml.learner.samples", Unit: "count", Better: "higher", Moves: "none (must not move under a host-only change)"},
	{Name: "gbt.predict_ns", Unit: "ns", Better: "lower", Host: true, Moves: "replay_s@trace_xgb"},
	{Name: "gbt.update_ns", Unit: "ns", Better: "lower", Host: true, Moves: "replay_s@trace_xgb"},
	{Name: "sim.events", Unit: "count", Better: "lower", Moves: "none (must not move under a host-only change)"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower", Host: true, Moves: "replay_s@trace_xgb"},
	{Name: "workload.generate_s", Unit: "s", Better: "lower", Host: true, Moves: "setup_s@trace_xgb"},

	{Name: "backend.local.write_us", Unit: "us", Better: "lower", Host: true, Moves: "none (sandbox I/O, informational)"},
	{Name: "backend.local.read_us", Unit: "us", Better: "lower", Host: true, Moves: "none (sandbox I/O, informational)"},

	{Name: "trace_overhead_frac", Unit: "frac", Better: "lower", Host: true, Moves: "none (cost of the decorators themselves)"},
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"read_hot", "read path alone on a live pacer: route, resolve, ring publish, tier pick, plane grant, ring drain; no movement or selection"},
	{"ingest_replay", "write path host cost in replay mode with roomy tiers: creates, deletes and reads share namespace stripes, no selection or movement"},
	{"churn_replay", "same schedule on tight tiers: every create crosses a watermark, so selection, executor shedding and ledger borrows dominate"},
	{"trace_xgb", "the paper path: FB-derived job trace replayed by jobs.Run under XGB downgrade+upgrade, the only workload where ml/gbt matter"},
}

func findWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
