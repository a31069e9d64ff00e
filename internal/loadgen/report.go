package loadgen

import (
	"octostore/internal/backend"
	"octostore/internal/dfs"
	"octostore/internal/obs"
	"octostore/internal/server"
	"octostore/internal/storage"
)

// Report is the BENCH_serve.json document: the one schema octoload writes
// and benchgate reads. Every key is present on every run; a block that does
// not apply to the run's configuration is null.
type Report struct {
	Config         map[string]any `json:"config"`
	ElapsedSeconds float64        `json:"elapsed_seconds"`
	Ops            int64          `json:"ops"`
	// OpsPerSec counts the ops completed inside the load window over -dur;
	// ops worked off after the deadline are in Ops (and Open.Drained) only.
	OpsPerSec float64      `json:"ops_per_sec"`
	Access    LatencyBlock `json:"access"`
	Mutate    LatencyBlock `json:"mutate"`
	// Read is the tier-real virtual read latency across all tiers (device
	// queueing + base + transfer from the data plane); zero counts with
	// -dataplane none. ReadTiers breaks it down per serving tier,
	// ReadTenants per tenant (null without -tenants).
	Read        LatencyBlock         `json:"read"`
	ReadTiers   []TierLatencyBlock   `json:"read_tiers"`
	ReadTenants []TenantLatencyBlock `json:"read_tenants"`
	// Open is null on closed-loop runs.
	Open       *OpenBlock        `json:"open"`
	TimeSeries TimeSeriesBlock   `json:"timeseries"`
	SLO        SLOBlock          `json:"slo"`
	Plane      []PlaneTierReport `json:"plane"`
	Serve      server.ServeStats `json:"serve"`
	// ImbalanceRatio is max/mean of per-shard total ops — the skew signal
	// the rebalancer exists to flatten. Rebalance is null without -rebalance.
	Shards         []ShardReport          `json:"shard_stats"`
	ImbalanceRatio float64                `json:"imbalance_ratio"`
	Rebalance      *server.RebalanceStats `json:"rebalance"`
	Executor       []TierReport           `json:"executor"`
	Quota          server.QuotaStats      `json:"quota"`
	// Backend is the real backend's calibration (null on -backend sim): the
	// measured per-tier wall latencies next to the simulator's profiles.
	Backend    *backend.Calibration `json:"backend_calibration"`
	Violations []string             `json:"violations"`
}

type ShardReport struct {
	Shard     int     `json:"shard"`
	Ops       int64   `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Accesses  int64   `json:"accesses"`
	Creates   int64   `json:"creates"`
	Deletes   int64   `json:"deletes"`
}

type LatencyBlock struct {
	Count int64   `json:"count"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
}

type TierLatencyBlock struct {
	Tier string `json:"tier"`
	LatencyBlock
}

type TenantLatencyBlock struct {
	Tenant int     `json:"tenant"`
	Weight float64 `json:"weight"`
	LatencyBlock
}

// OpenBlock reports the open-loop arrival process: how faithfully the
// dispatcher hit the schedule and what latency looks like when measured
// from the *intended* arrival time rather than the dispatch time — the
// coordinated-omission-corrected numbers a closed loop cannot produce.
type OpenBlock struct {
	RateOpsPerSec float64 `json:"rate_ops_per_sec"`
	Scheduled     int64   `json:"scheduled"`
	Dispatched    int64   `json:"dispatched"`
	Completed     int64   `json:"completed"`
	// Drained counts ops that completed after the deadline (the backlog the
	// drain phase worked off); Abandoned counts queued ops discarded when
	// the -drain budget ran out.
	Drained   int64 `json:"drained"`
	Abandoned int64 `json:"abandoned"`
	// LateDispatch counts ops handed to a worker more than 1ms past their
	// intended arrival; BacklogPeak is the queue high-water mark.
	LateDispatch int64 `json:"late_dispatch"`
	BacklogPeak  int64 `json:"backlog_peak"`
	// Lateness is dequeue-time minus intended arrival; Access/Mutate are
	// completion minus intended arrival (service time plus queueing delay).
	Lateness LatencyBlock `json:"lateness"`
	Access   LatencyBlock `json:"access"`
	Mutate   LatencyBlock `json:"mutate"`
}

type TimeSeriesBlock struct {
	WindowSeconds float64           `json:"window_seconds"`
	PeakOpsPerSec float64           `json:"peak_ops_per_sec"`
	Points        []obs.SeriesPoint `json:"points"`
}

type SLOBlock struct {
	Checks   int64 `json:"checks"`
	Breaches int64 `json:"breaches"`
	Defers   int64 `json:"defers"`
}

type PlaneTierReport struct {
	Tier string `json:"tier"`
	storage.TierPlaneStats
}

// TierReport is one destination tier of the movement executor. FailedBy
// breaks Failed + Shed down by reason (dfs.MoveReason labels); every reason is
// present, zeros included.
type TierReport struct {
	Tier string `json:"tier"`
	server.TierMoveStats
	FailedBy map[string]int64 `json:"failed_by"`
}

func latencyBlock(h *server.Histogram) LatencyBlock {
	return LatencyBlock{
		Count: h.Count(),
		P50us: float64(h.Quantile(0.50).Nanoseconds()) / 1e3,
		P99us: float64(h.Quantile(0.99).Nanoseconds()) / 1e3,
	}
}

// assemble fills the report from the fenced server: the one place a run's
// measurements become a Report.
func (r *run) assemble(rep *Report, plane *storage.ContendedPlane) {
	srv, c := r.srv, r.cfg
	window := r.ops.Load() - r.drained.Load()
	rep.ElapsedSeconds = r.elapsed.Seconds()
	rep.Ops = r.ops.Load()
	rep.OpsPerSec = float64(window) / c.Dur.Seconds()
	rep.Access = latencyBlock(srv.AccessLatency())
	rep.Mutate = latencyBlock(srv.MutateLatency())
	readAll := &server.Histogram{}
	for _, m := range storage.AllMedia {
		h := srv.ReadLatency(m)
		readAll.AddFrom(h)
		rep.ReadTiers = append(rep.ReadTiers, TierLatencyBlock{Tier: m.String(), LatencyBlock: latencyBlock(h)})
	}
	rep.Read = latencyBlock(readAll)
	for _, tc := range r.tenants {
		if h := srv.TenantReadLatency(tc.ID); h != nil {
			rep.ReadTenants = append(rep.ReadTenants, TenantLatencyBlock{
				Tenant: int(tc.ID), Weight: tc.Weight, LatencyBlock: latencyBlock(h),
			})
		}
	}
	rep.Serve = srv.Stats()
	rep.Quota = srv.QuotaStats()

	var maxOps, total int64
	for i, st := range srv.ShardStats() {
		o := st.Accesses + st.Creates + st.Deletes + st.Stats + st.Lists
		rep.Shards = append(rep.Shards, ShardReport{
			Shard: i, Ops: o, OpsPerSec: float64(o) / r.elapsed.Seconds(),
			Accesses: st.Accesses, Creates: st.Creates, Deletes: st.Deletes,
		})
		total += o
		if o > maxOps {
			maxOps = o
		}
	}
	if total > 0 {
		rep.ImbalanceRatio = float64(maxOps) * float64(len(rep.Shards)) / float64(total)
	}
	if c.Rebalance {
		rst := srv.RebalanceStats()
		rep.Rebalance = &rst
	}

	exStats := srv.ExecutorStats()
	for _, m := range storage.AllMedia {
		tr := TierReport{Tier: m.String(), TierMoveStats: exStats.PerTier[m], FailedBy: map[string]int64{}}
		for _, reason := range dfs.MoveReasons {
			tr.FailedBy[reason.String()] = tr.TierMoveStats.FailedBy[reason]
		}
		rep.Executor = append(rep.Executor, tr)
	}
	slo := srv.SLOStats()
	rep.SLO = SLOBlock{Checks: slo.Checks, Breaches: slo.Breaches, Defers: exStats.Defers}
	if plane != nil {
		pst := plane.Stats()
		for _, m := range storage.AllMedia {
			rep.Plane = append(rep.Plane, PlaneTierReport{Tier: m.String(), TierPlaneStats: pst.PerTier[m]})
		}
	}
}
