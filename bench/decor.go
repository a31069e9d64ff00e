package main

import (
	"sync/atomic"
	"time"

	"octostore/internal/backend"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// The decorators below sit at seams the caller of the system already
// supplies (cluster.Config.Plane, ShardedConfig.Build, ShardedConfig.Backend).
// Each forwards every call unchanged, so the decorated system makes the same
// decisions as the bare one (TestDecoratorsAreTransparent).

// contendedPlane is what the system may ask of the plane it was given beyond
// Serve: dfs steers reads and placement by Horizon, the cluster registers
// device channels.
type contendedPlane interface {
	storage.DataPlane
	Horizon(deviceID string, dir storage.Direction) time.Time
	Register(deviceID string, media storage.Media)
	Unregister(deviceID string, media storage.Media)
}

// tracedPlane counts every grant and records a span for the sampled ones.
type tracedPlane struct {
	contendedPlane
	tr        *tracer
	calls     atomic.Int64
	saturated atomic.Int64
	seq       atomic.Int64
}

func (p *tracedPlane) Serve(req storage.IORequest) storage.IOGrant {
	p.calls.Add(1)
	// A serve read runs on a client goroutine inside a harness op and is
	// traced iff that op is; everything else runs on a shard loop.
	parent := p.tr.seam.Load()
	if req.Class == storage.ClassServe && req.Dir == storage.Read {
		parent = p.tr.parentOf(sim.Nanos(req.At))
	} else if p.seq.Add(1)%sampleEvery != 0 {
		parent = 0
	}
	var start int64
	if parent != 0 {
		start = p.tr.now()
	}
	g := p.contendedPlane.Serve(req)
	if parent != 0 {
		p.tr.add(p.tr.newID(), parent, "storage.plane.serve", start, p.tr.now())
	}
	if g.Saturated {
		p.saturated.Add(1)
	}
	return g
}

// tracedDown times every SelectFile: it is called rarely and costs far more
// than two clock reads.
type tracedDown struct {
	core.DowngradePolicy
	tr *tracer
}

func (d *tracedDown) SelectFile(tier storage.Media) (f *dfs.File) {
	d.tr.record(d.tr.seam.Load(), "policy.down.select", func() { f = d.DowngradePolicy.SelectFile(tier) })
	return f
}

// tracedDownTicker adds Tick for wrapped policies that have one. The manager
// discovers Tick by type assertion, so a decorator that always offered it
// would change what the manager does for policies without one.
type tracedDownTicker struct{ *tracedDown }

func (d tracedDownTicker) Tick() {
	d.tr.record(d.tr.seam.Load(), "policy.tick", d.DowngradePolicy.(core.Ticker).Tick)
}

func traceDown(p core.DowngradePolicy, tr *tracer) core.DowngradePolicy {
	if tr == nil || p == nil {
		return p
	}
	d := &tracedDown{DowngradePolicy: p, tr: tr}
	if _, ok := p.(core.Ticker); ok {
		return tracedDownTicker{d}
	}
	return d
}

// tracedUp samples StartUpgrade, which runs once per drained access.
type tracedUp struct {
	core.UpgradePolicy
	tr  *tracer
	seq int64 // shard-loop only
}

func (u *tracedUp) StartUpgrade(accessed *dfs.File) (ok bool) {
	if u.seq++; u.seq%sampleEvery != 0 {
		return u.UpgradePolicy.StartUpgrade(accessed)
	}
	u.tr.record(u.tr.seam.Load(), "policy.up.start", func() { ok = u.UpgradePolicy.StartUpgrade(accessed) })
	return ok
}

type tracedUpTicker struct{ *tracedUp }

func (u tracedUpTicker) Tick() {
	u.tr.record(u.tr.seam.Load(), "policy.tick", u.UpgradePolicy.(core.Ticker).Tick)
}

func traceUp(p core.UpgradePolicy, tr *tracer) core.UpgradePolicy {
	if tr == nil || p == nil {
		return p
	}
	u := &tracedUp{UpgradePolicy: p, tr: tr}
	if _, ok := p.(core.Ticker); ok {
		return tracedUpTicker{u}
	}
	return u
}

// tracedBackend counts block operations at the dfs transfer seam. It wraps
// the non-physical backend.Sim, so the serving layer still serves reads
// virtually.
type tracedBackend struct {
	backend.Backend
	tr  *tracer
	ops atomic.Int64
}

func (b *tracedBackend) sampled(name string, fn func(backend.Request) (time.Duration, error), req backend.Request) (d time.Duration, err error) {
	if b.ops.Add(1)%sampleEvery != 0 {
		return fn(req)
	}
	b.tr.record(b.tr.seam.Load(), name, func() { d, err = fn(req) })
	return d, err
}

func (b *tracedBackend) Write(req backend.Request) (time.Duration, error) {
	return b.sampled("backend.write", b.Backend.Write, req)
}

func (b *tracedBackend) Read(req backend.Request) (time.Duration, error) {
	return b.sampled("backend.read", b.Backend.Read, req)
}

func (b *tracedBackend) Delete(req backend.Request) (time.Duration, error) {
	return b.sampled("backend.delete", b.Backend.Delete, req)
}
