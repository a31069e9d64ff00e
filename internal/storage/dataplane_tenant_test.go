package storage

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"octostore/internal/sim"
)

func twoTenantPlane(maxQueue time.Duration) *ContendedPlane {
	return NewContendedPlane(PlaneConfig{
		MaxQueue: maxQueue,
		Tenants:  []TenantWeight{{ID: 1, Weight: 3}, {ID: 2, Weight: 1}},
	})
}

// tenantReq is planeReq tagged with a tenant.
func tenantReq(dev string, m Media, dir Direction, tenant TenantID, bytes int64, at time.Time) IORequest {
	r := planeReq(dev, m, dir, bytes, at)
	r.Tenant = tenant
	return r
}

// TestSingleTenantConfigIsFIFO is the differential anchor of the fair
// scheduler: a plane configured with fewer than two tenants must grant
// bit-for-bit what the plain FIFO plane grants, request for request — the
// single-tenant replays (and their oracles) depend on it.
func TestSingleTenantConfigIsFIFO(t *testing.T) {
	fifo := NewContendedPlane(PlaneConfig{MaxQueue: 300 * time.Millisecond})
	one := NewContendedPlane(PlaneConfig{
		MaxQueue: 300 * time.Millisecond,
		Tenants:  []TenantWeight{{ID: 7, Weight: 5}},
	})
	if one.MultiTenant() {
		t.Fatal("a one-entry tenant list must not enable multi-tenant scheduling")
	}
	rng := rand.New(rand.NewSource(42))
	at := sim.Epoch
	for i := 0; i < 2000; i++ {
		dev := []string{"d0", "d1", "d2"}[rng.Intn(3)]
		m := AllMedia[rng.Intn(3)]
		dir := Direction(rng.Intn(2))
		bytes := int64(rng.Intn(64)+1) * MB
		at = at.Add(time.Duration(rng.Intn(int(5 * time.Millisecond))))
		// The tenant tag must be ignored entirely in single-tenant mode.
		ga := fifo.Serve(tenantReq(dev, m, dir, TenantID(rng.Intn(4)), bytes, at))
		gb := one.Serve(tenantReq(dev, m, dir, TenantID(rng.Intn(4)), bytes, at))
		if ga != gb {
			t.Fatalf("request %d: grants diverged: fifo %+v vs one-tenant %+v", i, ga, gb)
		}
	}
	if one.TenantStats() != nil {
		t.Fatal("single-tenant plane reported tenant stats")
	}
	if err := one.CheckAccounting(); err != nil {
		t.Fatalf("single-tenant CheckAccounting must be a no-op: %v", err)
	}
}

// TestLoneTenantGetsWholeChannel checks work conservation: on a multi-tenant
// plane with only one tenant active, every grant matches the plain FIFO
// plane exactly — fair sharing costs an idle cluster nothing.
func TestLoneTenantGetsWholeChannel(t *testing.T) {
	fifo := NewContendedPlane(PlaneConfig{MaxQueue: 400 * time.Millisecond})
	fair := NewContendedPlane(PlaneConfig{
		MaxQueue: 400 * time.Millisecond,
		Tenants:  []TenantWeight{{ID: 1, Weight: 3}, {ID: 2, Weight: 1}},
	})
	rng := rand.New(rand.NewSource(7))
	at := sim.Epoch
	for i := 0; i < 2000; i++ {
		dev := []string{"d0", "d1"}[rng.Intn(2)]
		dir := Direction(rng.Intn(2))
		bytes := int64(rng.Intn(32)+1) * MB
		at = at.Add(time.Duration(rng.Intn(int(2 * time.Millisecond))))
		ga := fifo.Serve(tenantReq(dev, SSD, dir, 1, bytes, at))
		gb := fair.Serve(tenantReq(dev, SSD, dir, 1, bytes, at))
		if ga != gb {
			t.Fatalf("request %d: lone-tenant grant %+v diverged from FIFO %+v", i, gb, ga)
		}
	}
}

// TestWeightedFairFavorsHeavierTenant puts both tenants into sustained
// backlog on one device and checks the share math: the weight-3 tenant's
// service is stretched 4/3x, the weight-1 tenant's 4x, so the heavier
// tenant accumulates strictly less queueing for identical offered load.
func TestWeightedFairFavorsHeavierTenant(t *testing.T) {
	p := twoTenantPlane(24 * time.Hour)
	at := sim.Epoch
	const bytes = 32 * MB
	// Backlog both tenants: one write each puts both horizons in the future.
	p.Serve(tenantReq("d", HDD, Write, 1, bytes, at))
	p.Serve(tenantReq("d", HDD, Write, 2, bytes, at))
	var q1, q2 time.Duration
	for i := 0; i < 40; i++ {
		q1 += p.Serve(tenantReq("d", HDD, Write, 1, bytes, at)).Queue
		q2 += p.Serve(tenantReq("d", HDD, Write, 2, bytes, at)).Queue
	}
	if q1 >= q2 {
		t.Fatalf("weight-3 tenant queued %v, not below weight-1 tenant's %v", q1, q2)
	}
	st := p.TenantStats()
	if len(st) != 2 || st[0].Tenant != 1 || st[1].Tenant != 2 {
		t.Fatalf("tenant stats %+v", st)
	}
	if st[0].AvgQueue >= st[1].AvgQueue {
		t.Fatalf("avg queue: weight-3 %v not below weight-1 %v", st[0].AvgQueue, st[1].AvgQueue)
	}
	if err := p.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestUnlistedTenantAccountedUntagged routes a tenant id outside the
// configured set through a multi-tenant plane: it is scheduled (at weight 1)
// and its traffic lands in the untagged block, keeping the accounting
// equation closed.
func TestUnlistedTenantAccountedUntagged(t *testing.T) {
	p := twoTenantPlane(time.Hour)
	at := sim.Epoch
	p.Serve(tenantReq("d", SSD, Read, 1, 8*MB, at))
	p.Serve(tenantReq("d", SSD, Read, 99, 8*MB, at))
	ut := p.UntaggedStats()
	if ut.Requests != 1 || ut.Bytes != 8*MB {
		t.Fatalf("untagged stats %+v, want the unlisted tenant's request", ut)
	}
	if err := p.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestSaturatedGrantAdvancesNoTenantHorizon drives one tenant far past the
// backlog window and checks the clamp is a latency floor, not a horizon
// push: saturated grants stop advancing the tenant's virtual time, so a
// flooding tenant cannot build unbounded priority debt for itself (or stall
// forever once the flood stops).
func TestSaturatedGrantAdvancesNoTenantHorizon(t *testing.T) {
	p := twoTenantPlane(50 * time.Millisecond)
	at := sim.Epoch
	// Backlog tenant 1 so tenant 2 runs the contended path.
	p.Serve(tenantReq("d", HDD, Write, 1, 64*MB, at))
	var saturated int
	var last time.Duration
	for i := 0; i < 60; i++ {
		g := p.Serve(tenantReq("d", HDD, Write, 2, 64*MB, at))
		if g.Saturated {
			saturated++
			last = g.Queue
		}
		if g.Queue > 50*time.Millisecond {
			t.Fatalf("queue %v exceeded the clamp", g.Queue)
		}
	}
	if saturated == 0 {
		t.Fatal("sustained flood never saturated")
	}
	if last != 50*time.Millisecond {
		t.Fatalf("saturated queue %v, want the clamp", last)
	}
	st := p.TenantStats()
	if st[1].Saturated != int64(saturated) {
		t.Fatalf("tenant 2 saturated count %d, want %d", st[1].Saturated, saturated)
	}
}

// TestUnregisterDropsChannels is the churn regression for the refcounted
// registration protocol: two views register the same device, one unregister
// keeps the shared channel alive, the second drops it; a lazily charged
// (never registered) device falls to its first unregister; and a
// register/unregister churn loop strands no channels.
func TestUnregisterDropsChannels(t *testing.T) {
	p := NewContendedPlane(PlaneConfig{})
	p.Register("shared", SSD)
	p.Register("shared", SSD) // second shard view of the same physical device
	at := sim.Epoch
	p.Serve(planeReq("shared", SSD, Write, 64*MB, at))
	p.Serve(planeReq("lazy", SSD, Write, 64*MB, at))
	if got := p.Stats().Devices; got != 2 {
		t.Fatalf("devices %d, want 2", got)
	}

	p.Unregister("shared", SSD)
	if got := p.Stats().Devices; got != 2 {
		t.Fatal("channel dropped while a view still holds a registration")
	}
	backlog := p.Horizon("shared", Write)
	if !backlog.After(at) {
		t.Fatal("backlog lost")
	}
	p.Unregister("shared", SSD)
	if got := p.Stats().Devices; got != 1 {
		t.Fatalf("devices %d after final unregister, want 1", got)
	}
	p.Unregister("lazy", SSD)
	if got := p.Stats().Devices; got != 0 {
		t.Fatalf("devices %d after unregistering the lazy channel, want 0", got)
	}

	// Churn: every join/leave round must return the plane to its baseline.
	for i := 0; i < 100; i++ {
		p.Register("churn", HDD)
		p.Serve(planeReq("churn", HDD, Read, MB, at))
		p.Unregister("churn", HDD)
	}
	if got := p.Stats().Devices; got != 0 {
		t.Fatalf("%d channels stranded after churn", got)
	}
}

// TestFairPlanePropertyRandomInterleaving drives a seeded random request
// stream (mixed tenants, devices, directions, tiers, nondecreasing clocks)
// through a multi-tenant plane and checks, after every single grant, the
// two safety properties of the channel model: device horizons never
// retreat, and a grant never books more than its own service beyond
// max(previous horizon, now). At the end the tenant accounting equation
// must close.
func TestFairPlanePropertyRandomInterleaving(t *testing.T) {
	p := NewContendedPlane(PlaneConfig{
		MaxQueue: 24 * time.Hour, // never saturate: every request books its service
		Tenants:  []TenantWeight{{ID: 1, Weight: 4}, {ID: 2, Weight: 2}, {ID: 3, Weight: 1}},
	})
	rng := rand.New(rand.NewSource(1234))
	devices := []string{"a", "b", "c"}
	type key struct {
		dev string
		dir Direction
	}
	prev := map[key]time.Time{}
	at := sim.Epoch
	for i := 0; i < 5000; i++ {
		dev := devices[rng.Intn(len(devices))]
		m := AllMedia[rng.Intn(3)]
		dir := Direction(rng.Intn(2))
		tenant := TenantID(rng.Intn(5)) // includes unlisted ids
		bytes := int64(rng.Intn(16)+1) * MB
		if rng.Intn(4) == 0 {
			at = at.Add(time.Duration(rng.Intn(int(20 * time.Millisecond))))
		}
		g := p.Serve(tenantReq(dev, m, dir, tenant, bytes, at))
		k := key{dev, dir}
		h := p.Horizon(dev, dir)
		if was, ok := prev[k]; ok && h.Before(was) {
			t.Fatalf("request %d: device %s/%v horizon retreated %v -> %v", i, dev, dir, was, h)
		}
		// The grant may book at most its own raw service beyond the busier
		// of (previous horizon, now) — the wall that bounds total granted
		// work per device.
		ceiling := at
		if was, ok := prev[k]; ok && was.After(ceiling) {
			ceiling = was
		}
		if max := ceiling.Add(g.Base + g.Transfer); h.After(max) {
			t.Fatalf("request %d: horizon %v beyond ceiling %v (service %v)", i, h, max, g.Base+g.Transfer)
		}
		prev[k] = h
	}
	if err := p.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	var tenantReqs int64
	for _, ts := range p.TenantStats() {
		tenantReqs += ts.Requests
	}
	tenantReqs += p.UntaggedStats().Requests
	if tenantReqs != 5000 {
		t.Fatalf("tenant request sum %d, want 5000", tenantReqs)
	}
}

// TestFairPlaneConcurrentBounded hammers one device from goroutines split
// across tenants (run under -race) with a fixed issue clock and checks the
// total granted work stays bounded: the device horizon cannot exceed
// now + the sum of every request's raw service, and the accounting equation
// closes once the hammering quiesces.
func TestFairPlaneConcurrentBounded(t *testing.T) {
	p := twoTenantPlane(24 * time.Hour)
	p.Register("shared", Memory)
	const goroutines, each = 8, 250
	const bytes = 4 * MB
	at := sim.Epoch
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		tenant := TenantID(i%2 + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				p.Serve(tenantReq("shared", Memory, Read, tenant, bytes, at))
			}
		}()
	}
	wg.Wait()
	one := p.Serve(tenantReq("probe", Memory, Read, 1, bytes, at))
	ceiling := at.Add(time.Duration(goroutines*each) * (one.Base + one.Transfer))
	if h := p.Horizon("shared", Read); h.After(ceiling) {
		t.Fatalf("horizon %v exceeds total offered work %v", h, ceiling)
	}
	if err := p.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	st := p.TenantStats()
	if st[0].Requests+st[1].Requests != goroutines*each+1 {
		t.Fatalf("tenant requests %d+%d, want %d", st[0].Requests, st[1].Requests, goroutines*each+1)
	}
}
