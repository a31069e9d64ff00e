package server

import (
	"sync"
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
// background movement admission (the executor's token buckets). Each read
// latency lands in the controller window its access was stamped in; each
// controller tick judges the p99 of every window that has closed on the
// engine's clock and, on a breach, defers executor admissions for a
// configurable window — movement stays queued, clients keep their
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

// sloController runs as an engine ticker on the core loop; client goroutines
// feed it through observe.
type sloController struct {
	sh       *shard
	cfg      SLOConfig
	targets  []time.Duration // read p99 target by tenant slot; zero: no SLO
	mu       sync.Mutex
	origin   time.Time                   // window w spans [origin+w·Interval, origin+(w+1)·Interval)
	closed   int64                       // windows below this index have been judged
	open     map[[2]int64]*obs.Histogram // (tenant slot, window) → read latencies
	checks   atomic.Int64
	breaches atomic.Int64
}

func newSLOController(sh *shard, cfg SLOConfig, tenants []TenantConfig) *sloController {
	cfg.applyDefaults()
	c := &sloController{sh: sh, cfg: cfg, targets: make([]time.Duration, len(tenants)),
		origin: sh.engine.Now(), open: make(map[[2]int64]*obs.Histogram)}
	watched := false
	for _, t := range tenants {
		if t.ReadSLO > 0 {
			c.targets[sh.tenantSlot[t.ID]], watched = t.ReadSLO, true
		}
	}
	if !watched {
		return nil
	}
	return c
}

// observe records one read latency of the tenant in slot under the window
// its access was stamped in. An unstamped read, or one whose window was
// already judged, counts toward the oldest window still open. Any goroutine,
// before the access is published to the loop that runs the ticks.
func (c *sloController) observe(slot int, at time.Time, d time.Duration) {
	if c.targets[slot] == 0 {
		return
	}
	c.mu.Lock()
	win := c.closed
	if !at.IsZero() {
		win = max(win, int64(at.Sub(c.origin)/c.cfg.Interval))
	}
	k := [2]int64{int64(slot), win}
	if c.open[k] == nil {
		c.open[k] = new(obs.Histogram)
	}
	c.open[k].Observe(d)
	c.mu.Unlock()
}

// tick judges every window that has closed by now and defers movement when
// any breached. Core loop only (engine ticker).
func (c *sloController) tick() {
	c.mu.Lock()
	c.closed = max(c.closed, int64(c.sh.engine.Now().Sub(c.origin)/c.cfg.Interval))
	breach := false
	for k, h := range c.open {
		if k[1] >= c.closed {
			continue
		}
		delete(c.open, k)
		if h.Count() < c.cfg.MinSamples {
			continue
		}
		c.checks.Add(1)
		if h.Quantile(0.99) > c.targets[k[0]] {
			breach = true
			c.breaches.Add(1)
		}
	}
	c.mu.Unlock()
	if breach {
		c.sh.exec.Defer(c.sh.engine.Now().Add(c.cfg.DeferWindow))
	}
}

func (c *sloController) stats() SLOStats {
	return SLOStats{Checks: c.checks.Load(), Breaches: c.breaches.Load()}
}
