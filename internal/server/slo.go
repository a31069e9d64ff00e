package server

import (
	"sync/atomic"
	"time"

	"octostore/internal/obs"
	"octostore/internal/storage"
)

// This file is the serving layer's multi-tenant control plane: tenant
// declarations, per-tenant read-latency tracking, and the latency-SLO
// admission controller that sheds background movement when a tenant drifts
// past its target.
//
// The controller closes the feedback loop the paper's architecture implies
// for shared clusters: the data plane exposes tier-real read latencies per
// tenant (shard.access observes them), and the only knob the serving layer
// owns that relieves device pressure without touching client traffic is
// background movement admission (the executor's token buckets). Each
// controller tick diffs the per-tenant histogram against the previous tick,
// computes the window's p99, and on a breach defers executor admissions for
// a configurable window — movement stays queued, clients keep their
// bandwidth.

// TenantConfig declares one tenant to the serving layer.
type TenantConfig struct {
	// ID tags the tenant's traffic end to end (plane requests, ledger
	// reservations, latency histograms).
	ID storage.TenantID
	// Weight is the tenant's fair share on the data plane. The serving
	// layer does not schedule by it directly — the plane does — but callers
	// keep one tenant table and mirror it into storage.PlaneConfig.Tenants.
	Weight float64
	// ReadSLO is the tenant's target read p99 (tier-real virtual latency).
	// Zero exempts the tenant from SLO control.
	ReadSLO time.Duration
	// QuotaBytes caps the tenant's cumulative capacity borrows per tier in
	// the sharded layer's ledger (0 = unlimited).
	QuotaBytes [3]int64
}

// PlaneTenants converts a tenant table to the data plane's weight list, so
// callers configure tenants once and derive both sides from it.
func PlaneTenants(tenants []TenantConfig) []storage.TenantWeight {
	out := make([]storage.TenantWeight, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, storage.TenantWeight{ID: t.ID, Weight: t.Weight})
	}
	return out
}

// SLOConfig tunes the admission controller.
type SLOConfig struct {
	// Interval is the virtual-time check period (default 5s).
	Interval time.Duration
	// MinSamples is the fewest read observations a window needs before its
	// p99 is judged (default 16); quieter windows are skipped, which also
	// lets a Flush drain deferred movement once clients stop.
	MinSamples int64
	// DeferWindow is how far each breach pushes movement admission out
	// (default 2×Interval).
	DeferWindow time.Duration
}

func (c *SLOConfig) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 16
	}
	if c.DeferWindow <= 0 {
		c.DeferWindow = 2 * c.Interval
	}
}

// SLOStats snapshots the admission controller.
type SLOStats struct {
	// Checks counts windows with enough samples to judge.
	Checks int64
	// Breaches counts judged windows whose p99 exceeded the target.
	Breaches int64
}

func (s *SLOStats) add(o SLOStats) {
	s.Checks += o.Checks
	s.Breaches += o.Breaches
}

// sloWatch is one tenant's window state: the histogram snapshot at the last
// tick, diffed each tick for the window's p99.
type sloWatch struct {
	slot   int
	target time.Duration
	prev   [64]int64
}

// sloController runs as an engine ticker on the core loop.
type sloController struct {
	sh       *shard
	cfg      SLOConfig
	watch    []sloWatch
	checks   atomic.Int64
	breaches atomic.Int64
}

func newSLOController(sh *shard, cfg SLOConfig, tenants []TenantConfig) *sloController {
	cfg.applyDefaults()
	c := &sloController{sh: sh, cfg: cfg}
	for _, t := range tenants {
		if t.ReadSLO > 0 {
			c.watch = append(c.watch, sloWatch{slot: sh.tenantSlot[t.ID], target: t.ReadSLO})
		}
	}
	if len(c.watch) == 0 {
		return nil
	}
	return c
}

// tick judges each watched tenant's last window and defers movement when
// any breached. Core loop only (engine ticker).
func (c *sloController) tick() {
	breach := false
	for i := range c.watch {
		w := &c.watch[i]
		cur := c.sh.tenantLat[w.slot].Counts()
		var delta [64]int64
		var n int64
		for b := range cur {
			delta[b] = cur[b] - w.prev[b]
			n += delta[b]
		}
		w.prev = cur
		if n < c.cfg.MinSamples {
			continue
		}
		c.checks.Add(1)
		if obs.QuantileOf(delta, 0.99) > w.target {
			breach = true
			c.breaches.Add(1)
		}
	}
	if breach {
		c.sh.exec.Defer(c.sh.engine.Now().Add(c.cfg.DeferWindow))
	}
}

func (c *sloController) stats() SLOStats {
	return SLOStats{Checks: c.checks.Load(), Breaches: c.breaches.Load()}
}
