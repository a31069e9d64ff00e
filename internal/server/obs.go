package server

import (
	"strconv"
	"sync/atomic"
	"time"

	"octostore/internal/backend"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/obs"
	"octostore/internal/storage"
)

// This file is the serving layer's observability wiring: metric
// registration into the hub's registry (pull-based closures over the
// existing atomics — a scrape reads live values with zero hot-path cost)
// and the span-capture helpers the client API uses. Everything degrades to
// a single nil check when no hub is configured.

// sampleSpan starts a span for one in N operations. Returns (nil, zero)
// when obs is disabled or the op is not sampled — the caller's stage stamps
// are all guarded on the span pointer.
func (sh *shard) sampleSpan(op, path string, tenant storage.TenantID) (*obs.Span, time.Time) {
	if !sh.obs.SampleOp() {
		return nil, time.Time{}
	}
	sp := &obs.Span{Op: op, Path: path, Shard: sh.idx, Tenant: int(tenant)}
	return sp, time.Now()
}

// finishSpan stamps the total wall time and the op's virtual instant
// (relative to the server's virtual start) and publishes the span. No-op on
// a nil span.
func (sh *shard) finishSpan(sp *obs.Span, start time.Time, at time.Time, errMsg string) {
	if sp == nil {
		return
	}
	sp.TotalNS = time.Since(start).Nanoseconds()
	if !at.IsZero() {
		sp.VirtNS = at.Sub(sh.virtStart).Nanoseconds()
	}
	sp.Err = errMsg
	sh.obs.EmitSpan(sp)
}

// busyStart/busyEnd bracket core-loop work for the utilization gauge. With
// obs disabled they are a nil check — the loop takes no clock readings.
func (sh *shard) busyStart() time.Time {
	if sh.obs == nil {
		return time.Time{}
	}
	return time.Now()
}

func (sh *shard) busyEnd(t0 time.Time) {
	if t0.IsZero() {
		return
	}
	sh.loopBusyNS.Add(time.Since(t0).Nanoseconds())
}

// registerObs publishes the server's signals into the hub's registry:
// serve counters, access drain and discard counts, per-tier executor queues
// and budgets, the latency histograms, and the core loop's utilization.
func (sh *shard) registerObs() {
	if sh.obs == nil {
		return
	}
	r := sh.obs.Registry()
	idx := strconv.Itoa(sh.idx)
	lbl := func(kv ...string) obs.Labels {
		l := obs.Labels{"shard": idx}
		for i := 0; i+1 < len(kv); i += 2 {
			l[kv[i]] = kv[i+1]
		}
		return l
	}
	ctr := func(name string, v *atomic.Int64, kv ...string) {
		r.CounterFunc(name, lbl(kv...), func() float64 { return float64(v.Load()) })
	}

	ctr("octo_accesses_total", &sh.counters.accesses)
	ctr("octo_access_misses_total", &sh.counters.accessMisses)
	ctr("octo_access_noreplica_total", &sh.counters.noReplica)
	ctr("octo_bytes_served_total", &sh.counters.bytesServed)
	ctr("octo_creates_total", &sh.counters.creates)
	ctr("octo_create_errors_total", &sh.counters.createErrors)
	ctr("octo_deletes_total", &sh.counters.deletes)
	// drained / files_applied is the coalescing ratio: accesses per
	// notification the policy layer received.
	ctr("octo_events_drained_total", &sh.counters.drained)
	ctr("octo_access_files_applied_total", &sh.counters.applied)
	ctr("octo_drain_batches_total", &sh.counters.batches)
	for reason, name := range discardReasons {
		ctr("octo_accesses_discarded_total", &sh.counters.discarded[reason], "reason", name)
	}
	for _, m := range storage.AllMedia {
		m := m
		r.CounterFunc("octo_served_total", lbl("tier", m.String()),
			func() float64 { return float64(sh.counters.servedByTier[m].Load()) })
	}

	// Core-loop utilization: busy wall time over elapsed wall time since
	// Start. The loop only accumulates busy time when obs is enabled.
	start := sh.wallStart
	r.Gauge("octo_loop_utilization", lbl(), func() float64 {
		elapsed := time.Since(start).Nanoseconds()
		if elapsed <= 0 {
			return 0
		}
		return float64(sh.loopBusyNS.Load()) / float64(elapsed)
	})

	r.Histogram("octo_access_latency_ns", lbl(), &sh.accessHist)
	r.Histogram("octo_mutate_latency_ns", lbl(), &sh.mutateHist)
	for _, m := range storage.AllMedia {
		r.Histogram("octo_read_latency_ns", lbl("tier", m.String()), &sh.readLat[m])
	}
	for id, slot := range sh.tenantSlot {
		r.Histogram("octo_tenant_read_latency_ns",
			lbl("tenant", strconv.Itoa(int(id))), &sh.tenantLat[slot])
	}
	if sh.slo != nil {
		ctr("octo_slo_checks_total", &sh.slo.checks)
		ctr("octo_slo_breaches_total", &sh.slo.breaches)
	}

	// Physical-backend op/error counters, one family cell per (tier, op):
	// scrapes snapshot the backend's atomics through the same pull-based
	// closure pattern as everything else.
	if sh.backend != nil {
		for _, m := range storage.AllMedia {
			for _, op := range backend.Ops {
				m, op := m, op
				l := lbl("tier", m.String(), "op", op.String())
				r.CounterFunc("octo_backend_ops_total", l, func() float64 {
					t := sh.backend.Stats().PerTier[m]
					return float64(t.Op(op).Count)
				})
				r.CounterFunc("octo_backend_bytes_total", l, func() float64 {
					t := sh.backend.Stats().PerTier[m]
					return float64(t.Op(op).Bytes)
				})
				r.CounterFunc("octo_backend_errors_total", l, func() float64 {
					t := sh.backend.Stats().PerTier[m]
					return float64(t.Op(op).Errors)
				})
			}
		}
	}

	// Why files are out of selection, and how often which failure put them
	// there: the manager mirrors its eligibility record into atomics.
	if sh.mgr != nil {
		r.Gauge("octo_manager_parked_files", lbl("reason", "busy"), func() float64 {
			busy, _ := sh.mgr.ParkedFiles()
			return float64(busy)
		})
		r.Gauge("octo_manager_parked_files", lbl("reason", "cooldown"), func() float64 {
			_, cooling := sh.mgr.ParkedFiles()
			return float64(cooling)
		})
		for _, reason := range core.CooldownReasons {
			reason := reason
			r.CounterFunc("octo_manager_cooldowns_total", lbl("reason", reason.String()),
				func() float64 { return float64(sh.mgr.Cooldowns(reason)) })
		}
	}

	sh.exec.registerObs(r, lbl)
}

// registerObs publishes the executor's per-tier queue depths, counters, and
// the defer state.
func (e *MovementExecutor) registerObs(r *obs.Registry, lbl func(kv ...string) obs.Labels) {
	for _, m := range storage.AllMedia {
		p := &e.tiers[m]
		tier := m.String()
		r.Gauge("octo_exec_queue_depth", lbl("tier", tier),
			func() float64 { return float64(p.depth.Load()) })
		r.CounterFunc("octo_exec_scheduled_total", lbl("tier", tier),
			func() float64 { return float64(p.scheduled.Load()) })
		r.CounterFunc("octo_exec_completed_total", lbl("tier", tier),
			func() float64 { return float64(p.completed.Load()) })
		// Failed and refused moves, by reason: the per-tier failed and shed
		// totals are sums over these.
		for _, reason := range dfs.MoveReasons {
			n := &p.failedBy[reason]
			r.CounterFunc("octo_moves_failed_total", lbl("tier", tier, "reason", reason.String()),
				func() float64 { return float64(n.Load()) })
		}
		r.CounterFunc("octo_exec_admitted_bytes_total", lbl("tier", tier),
			func() float64 { return float64(p.admitted.Load()) })
	}
	r.CounterFunc("octo_exec_defers_total", lbl(),
		func() float64 { return float64(e.defers.Load()) })
	r.Gauge("octo_exec_busy", lbl(),
		func() float64 { return float64(e.busy.Load()) })
}
