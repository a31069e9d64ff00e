package storage

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"octostore/internal/sim"
)

// This file defines the data-plane API: the single point through which every
// consumer of storage bandwidth — block writes on create, serve-path reads,
// tier movement, replication repair, cache fills — accounts its I/O against
// the *physical* device it touches.
//
// The need for a first-class surface comes from the sharded serving layer:
// each shard owns a private cluster view whose storage.Device objects model
// a quota slice of the same physical hardware, so per-view bandwidth pools
// cannot see cross-shard contention (two shards hammering one disk each
// observed a private, uncontended device). A DataPlane is shared by every
// view: requests are keyed by the device's stable ID (identical across
// views by construction), so the plane arbitrates the physical channel the
// same way the cluster.TierLedger arbitrates physical capacity.
//
// Timing is virtual-clock based and allocation-free: a device channel is a
// pair of atomic busy-until horizons (read, write) expressed in nanoseconds
// since sim.Epoch. A request issued at virtual time t with service time s
// (per-tier base latency + bytes at nominal bandwidth) is granted
// queue = max(0, busyUntil - t), and the horizon advances to
// t + queue + s — FIFO single-server queueing against the virtual clock,
// safe to call from any goroutine (shard loops with independent engines,
// client goroutines on the serve path). The queue a request may accumulate
// is clamped at MaxQueue, a token-bucket-style bound on the backlog window
// so an open-loop overload saturates loudly instead of diverging.

// TenantID labels the tenant on whose behalf an I/O or capacity claim is
// made. Tenants are a property of the workload, not the topology: every
// shard view tags requests with the same tenant ids, and the shared plane /
// ledger enforce isolation across them.
type TenantID int

// DefaultTenant is the identity of untagged traffic (single-tenant systems,
// background management I/O). A plane configured without tenants treats all
// traffic as DefaultTenant and schedules pure FIFO.
const DefaultTenant TenantID = 0

// TenantWeight assigns a weighted-fair share to one tenant. Weights are
// relative: a tenant with weight 3 sharing a device with a weight-1 tenant
// gets 3/4 of the channel while both are backlogged.
type TenantWeight struct {
	ID     TenantID
	Weight float64 // defaults to 1 when zero
}

// IOClass distinguishes the two consumers of device bandwidth the policies
// care about separately: foreground serving and background movement.
type IOClass int

const (
	// ClassServe is client-facing traffic: initial writes and serve reads.
	ClassServe IOClass = iota
	// ClassMove is management traffic: tier movement, repair, cache fills.
	ClassMove
)

// String implements fmt.Stringer.
func (c IOClass) String() string {
	if c == ClassServe {
		return "serve"
	}
	return "move"
}

// IORequest describes one I/O issued against a physical device.
type IORequest struct {
	// DeviceID is the stable physical identity (Device.ID()); every shard's
	// view of one physical device carries the same ID.
	DeviceID string
	// Media is the device's tier, selecting the service-time profile.
	Media Media
	// Dir selects the read or write channel of the device.
	Dir Direction
	// Class labels the traffic for accounting.
	Class IOClass
	// Tenant identifies whose workload the request belongs to. Zero
	// (DefaultTenant) is untagged traffic; a single-tenant plane ignores it.
	Tenant TenantID
	// Bytes is the transfer size.
	Bytes int64
	// At is the virtual issue time (the issuing engine's clock, or the
	// serving layer's pacer clock on client goroutines).
	At time.Time
}

// IOGrant is the plane's answer: when the device channel frees up for the
// request and how long the device then works on it.
type IOGrant struct {
	// Queue is the wait until the device channel is free (zero when idle).
	Queue time.Duration
	// Base is the per-tier fixed access latency (seek/setup).
	Base time.Duration
	// Transfer is Bytes at the tier's nominal bandwidth.
	Transfer time.Duration
	// Saturated reports that Queue was clamped at the plane's MaxQueue —
	// the device backlog window is full and the latency is a floor, not an
	// estimate.
	Saturated bool
}

// Latency is the request's total virtual service time: queueing plus base
// plus transfer.
func (g IOGrant) Latency() time.Duration { return g.Queue + g.Base + g.Transfer }

// DataPlane arbitrates physical device bandwidth. Serve must be safe for
// concurrent use from any goroutine and must not block or schedule events:
// it answers in virtual time, and callers decide what to do with the grant
// (delay a transfer start, stamp a latency histogram, accumulate stats).
type DataPlane interface {
	Serve(req IORequest) IOGrant
}

// NopPlane is the no-op data plane: zero latency, infinite bandwidth, no
// state. A system running on it behaves bit-for-bit like one with no plane
// attached at all — the differential replay suite relies on this to keep
// the sequential simulator as its oracle.
type NopPlane struct{}

// Serve implements DataPlane.
func (NopPlane) Serve(IORequest) IOGrant { return IOGrant{} }

// TierProfile is the service-time model of one storage tier.
type TierProfile struct {
	// BaseLatency is the fixed per-request access cost.
	BaseLatency time.Duration
	// ReadBW and WriteBW are the nominal channel bandwidths in bytes/second.
	ReadBW  float64
	WriteBW float64
}

// DefaultTierProfiles takes the bandwidths of the paper media (paperBW)
// with base latencies in the hardware's characteristic range, so that for
// any realistic transfer size the tiers order memory < SSD < HDD.
func DefaultTierProfiles() [3]TierProfile {
	base := [3]time.Duration{Memory: 50 * time.Microsecond, SSD: 200 * time.Microsecond, HDD: 6 * time.Millisecond}
	var out [3]TierProfile
	for m, bw := range paperBW {
		out[m] = TierProfile{BaseLatency: base[m], ReadBW: bw.read, WriteBW: bw.write}
	}
	return out
}

// planeProfiles is every ContendedPlane's per-tier service-time model.
var planeProfiles = DefaultTierProfiles()

// PlaneConfig tunes a ContendedPlane.
type PlaneConfig struct {
	// MaxQueue clamps the backlog a single request can wait behind
	// (default 2s of virtual time). Requests arriving at a fuller channel
	// are granted MaxQueue and counted as saturated rather than pushing
	// the horizon further out, so sustained overload yields a bounded,
	// stable latency floor instead of an ever-growing queue.
	MaxQueue time.Duration
	// Tenants enables weighted-fair scheduling across the listed tenants.
	// Empty or a single entry keeps the plane in single-tenant mode, whose
	// arbitration is bit-for-bit the original FIFO (the differential replay
	// suite relies on this). Two or more entries switch every channel to
	// per-tenant virtual-time scheduling with the given weights; requests
	// from unlisted tenants run at weight 1 and are accounted as untagged.
	Tenants []TenantWeight
}

func (c *PlaneConfig) applyDefaults() {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * time.Second
	}
	seen := make(map[TenantID]bool, len(c.Tenants))
	for i := range c.Tenants {
		t := &c.Tenants[i]
		if t.Weight == 0 {
			t.Weight = 1
		}
		if t.Weight < 0 || math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) {
			panic(fmt.Sprintf("storage: tenant %d weight %v is not a positive finite number", t.ID, t.Weight))
		}
		if seen[t.ID] {
			panic(fmt.Sprintf("storage: tenant %d configured twice", t.ID))
		}
		seen[t.ID] = true
	}
}

// planeChannel is one physical device's pair of FIFO bandwidth channels:
// busy-until horizons in virtual nanoseconds since sim.Epoch. On a
// multi-tenant plane the channel additionally carries per-tenant fair state.
type planeChannel struct {
	read  atomic.Int64
	write atomic.Int64
	fair  *fairState // nil on a single-tenant plane

	// Per-device activity counters for observability (DeviceStats): pure
	// atomic adds on the Serve path, never read by scheduling decisions.
	grants    atomic.Int64
	queuedNS  atomic.Int64
	saturated atomic.Int64
}

func (ch *planeChannel) horizon(dir Direction) *atomic.Int64 {
	if dir == Read {
		return &ch.read
	}
	return &ch.write
}

// fairState is one channel's weighted-fair scheduling state: a per-tenant
// finish horizon per direction, in virtual nanoseconds since sim.Epoch. A
// tenant is backlogged on a direction while its horizon is in the future.
// All multi-tenant arbitration for the channel runs under mu (registration
// is rare and Serve calls on one device are short), which also makes the
// device horizon updates on this path plain stores.
type fairState struct {
	mu       sync.Mutex
	horizons [2]map[TenantID]int64 // indexed by dirIndex
}

func dirIndex(dir Direction) int {
	if dir == Read {
		return 0
	}
	return 1
}

// tierPlaneCounters is the per-tier atomic stats block.
type tierPlaneCounters struct {
	requests  atomic.Int64
	bytes     atomic.Int64
	queuedNS  atomic.Int64
	contended atomic.Int64 // requests with nonzero queue
	saturated atomic.Int64 // requests clamped at MaxQueue
	moveReqs  atomic.Int64 // ClassMove subset of requests
}

// TierPlaneStats is a point-in-time snapshot of one tier's plane activity.
type TierPlaneStats struct {
	Requests     int64
	MoveRequests int64
	Bytes        int64
	Contended    int64
	Saturated    int64
	// AvgQueue is the mean queueing delay across all requests.
	AvgQueue time.Duration
}

// tenantPlaneCounters is the per-tenant atomic stats block.
type tenantPlaneCounters struct {
	requests  atomic.Int64
	bytes     atomic.Int64
	queuedNS  atomic.Int64
	saturated atomic.Int64
}

func (c *tenantPlaneCounters) add(bytes int64, queue time.Duration, saturated bool) {
	c.requests.Add(1)
	c.bytes.Add(bytes)
	if queue > 0 {
		c.queuedNS.Add(queue.Nanoseconds())
	}
	if saturated {
		c.saturated.Add(1)
	}
}

// TenantPlaneStats is a point-in-time snapshot of one tenant's plane
// activity across all tiers.
type TenantPlaneStats struct {
	Tenant    TenantID
	Requests  int64
	Bytes     int64
	Saturated int64
	// AvgQueue is the mean queueing delay across the tenant's requests.
	AvgQueue time.Duration
}

// PlaneStats snapshots a ContendedPlane.
type PlaneStats struct {
	PerTier [3]TierPlaneStats
	// Devices counts the live channels. Registrations are refcounted (one
	// per cluster view of the device), so a channel is dropped once the
	// last view unregisters it on node loss; lazily created channels carry
	// no registration and fall to the first Unregister of their id.
	Devices int
}

// ContendedPlane is the shared-bandwidth DataPlane: one channel pair per
// physical device, created on first use (or pre-registered by the cluster),
// with per-tier service profiles. All hot-path state is atomic: the channel
// map is an immutable snapshot behind an atomic pointer (copy-on-write
// under a mutex on the rare registration path), so Serve takes no lock.
type ContendedPlane struct {
	cfg PlaneConfig

	mu    sync.Mutex // guards copy-on-write of chans and refs
	chans atomic.Pointer[map[string]*planeChannel]
	refs  map[string]int // registrations per device id (one per cluster view)

	// weights is non-nil iff the plane is multi-tenant (≥2 configured
	// tenants); immutable after construction.
	weights map[TenantID]float64
	// tenants holds the configured tenants' counters (immutable map) and
	// untagged collects traffic from any other tenant id.
	tenants  map[TenantID]*tenantPlaneCounters
	untagged tenantPlaneCounters

	tiers [3]tierPlaneCounters
}

// NewContendedPlane builds a plane with the given configuration.
func NewContendedPlane(cfg PlaneConfig) *ContendedPlane {
	cfg.applyDefaults()
	p := &ContendedPlane{cfg: cfg, refs: make(map[string]int)}
	if len(cfg.Tenants) >= 2 {
		p.weights = make(map[TenantID]float64, len(cfg.Tenants))
		p.tenants = make(map[TenantID]*tenantPlaneCounters, len(cfg.Tenants))
		for _, t := range cfg.Tenants {
			p.weights[t.ID] = t.Weight
			p.tenants[t.ID] = &tenantPlaneCounters{}
		}
	}
	empty := make(map[string]*planeChannel)
	p.chans.Store(&empty)
	return p
}

// Config returns the resolved configuration.
func (p *ContendedPlane) Config() PlaneConfig { return p.cfg }

// MultiTenant reports whether the plane schedules weighted-fair across
// configured tenants (≥2 tenants in the config).
func (p *ContendedPlane) MultiTenant() bool { return p.weights != nil }

// Register pre-creates a device's channel so the serving hot path never
// pays channel creation; clusters register their devices at attach time.
// Registrations are refcounted: each cluster view of a physical device
// registers the same id once, and the channel — with its accrued backlog —
// is shared by every view.
func (p *ContendedPlane) Register(deviceID string, _ Media) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refs[deviceID]++
	p.insertLocked(deviceID)
}

// Unregister drops one view's registration of a device; the channel is
// removed once no registrations remain, so churned-out devices do not
// accumulate (clusters unregister on node removal). Unregistering an id
// that was only ever lazily charged removes its channel immediately.
func (p *ContendedPlane) Unregister(deviceID string, _ Media) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := p.refs[deviceID]; n > 1 {
		p.refs[deviceID] = n - 1
		return
	}
	delete(p.refs, deviceID)
	old := *p.chans.Load()
	if _, ok := old[deviceID]; !ok {
		return
	}
	next := make(map[string]*planeChannel, len(old)-1)
	for k, v := range old {
		if k != deviceID {
			next[k] = v
		}
	}
	p.chans.Store(&next)
}

// insert returns the device's channel, creating it via copy-on-write if it
// does not exist yet.
func (p *ContendedPlane) insert(id string) *planeChannel {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.insertLocked(id)
}

func (p *ContendedPlane) insertLocked(id string) *planeChannel {
	old := *p.chans.Load()
	if ch, ok := old[id]; ok {
		return ch
	}
	next := make(map[string]*planeChannel, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	ch := &planeChannel{}
	if p.weights != nil {
		ch.fair = &fairState{horizons: [2]map[TenantID]int64{{}, {}}}
	}
	next[id] = ch
	p.chans.Store(&next)
	return ch
}

func (p *ContendedPlane) channel(id string) *planeChannel {
	if ch := (*p.chans.Load())[id]; ch != nil {
		return ch
	}
	return p.insert(id)
}

// Serve implements DataPlane: virtual-clock queueing on the device's
// directional channel with the queue clamped at MaxQueue. Single-tenant
// planes arbitrate FIFO and are lock-free after the channel lookup;
// multi-tenant planes take the channel's fair-state mutex and schedule
// weighted-fair across backlogged tenants. Safe from any goroutine.
func (p *ContendedPlane) Serve(req IORequest) IOGrant {
	if !req.Media.Valid() {
		return IOGrant{}
	}
	prof := planeProfiles[req.Media]
	bw := prof.ReadBW
	if req.Dir == Write {
		bw = prof.WriteBW
	}
	transfer := time.Duration(math.Ceil(float64(req.Bytes) / bw * float64(time.Second)))
	service := prof.BaseLatency + transfer
	now := sim.Nanos(req.At)
	ch := p.channel(req.DeviceID)
	h := ch.horizon(req.Dir)

	var queue time.Duration
	var saturated bool
	if p.weights != nil {
		queue, saturated = p.serveFair(ch, req, service.Nanoseconds(), now)
		tc := p.tenants[req.Tenant]
		if tc == nil {
			tc = &p.untagged
		}
		tc.add(req.Bytes, queue, saturated)
	} else {
		for {
			busy := h.Load()
			queueNS := busy - now
			if queueNS < 0 {
				queueNS = 0
			}
			if maxNS := p.cfg.MaxQueue.Nanoseconds(); queueNS > maxNS {
				queueNS, saturated = maxNS, true
			}
			end := now + queueNS + service.Nanoseconds()
			queue = time.Duration(queueNS)
			if end <= busy {
				// The channel is already booked beyond this request's clamped
				// completion (saturation): never retreat the horizon.
				break
			}
			if h.CompareAndSwap(busy, end) {
				break
			}
		}
	}

	t := &p.tiers[req.Media]
	t.requests.Add(1)
	t.bytes.Add(req.Bytes)
	if queue > 0 {
		t.queuedNS.Add(queue.Nanoseconds())
		t.contended.Add(1)
	}
	if saturated {
		t.saturated.Add(1)
	}
	if req.Class == ClassMove {
		t.moveReqs.Add(1)
	}
	ch.grants.Add(1)
	if queue > 0 {
		ch.queuedNS.Add(queue.Nanoseconds())
	}
	if saturated {
		ch.saturated.Add(1)
	}
	return IOGrant{Queue: queue, Base: prof.BaseLatency, Transfer: transfer, Saturated: saturated}
}

// weight returns the tenant's configured fair share; unlisted tenants run
// at weight 1.
func (p *ContendedPlane) weight(t TenantID) float64 {
	if w, ok := p.weights[t]; ok {
		return w
	}
	return 1
}

// serveFair is the multi-tenant arbitration of one request: weighted-fair
// virtual-time scheduling on the channel's per-tenant horizons.
//
// When no *other* tenant is backlogged on the direction, the request queues
// FIFO against the device horizon with exactly the single-tenant math — the
// scheduler is work-conserving, and a lone active tenant gets the whole
// channel. When others are backlogged, the request instead queues behind
// the tenant's own horizon and its service is stretched by the inverse of
// the tenant's share, Σw(backlogged)/w(tenant): a weight-3 tenant sharing
// with a backlogged weight-1 tenant sees service stretched 4/3×, the
// weight-1 tenant 4×. Either way the queue is clamped at MaxQueue
// (saturated grants advance no horizon), and the device horizon books the
// raw service so total granted work per device stays bounded by the wall
// the single-tenant plane enforces.
func (p *ContendedPlane) serveFair(ch *planeChannel, req IORequest, serviceNS, now int64) (time.Duration, bool) {
	f := ch.fair
	di := dirIndex(req.Dir)
	h := ch.horizon(req.Dir)
	w := p.weight(req.Tenant)
	maxNS := p.cfg.MaxQueue.Nanoseconds()

	f.mu.Lock()
	defer f.mu.Unlock()
	horizons := f.horizons[di]
	wsum := w
	contended := false
	for t, hz := range horizons {
		if t != req.Tenant && hz > now {
			wsum += p.weight(t)
			contended = true
		}
	}

	var queueNS int64
	var saturated bool
	if !contended {
		busy := h.Load()
		queueNS = busy - now
		if queueNS < 0 {
			queueNS = 0
		}
		if queueNS > maxNS {
			queueNS, saturated = maxNS, true
		}
		end := now + queueNS + serviceNS
		if end > busy {
			h.Store(end)
		}
		if end > horizons[req.Tenant] && !saturated {
			horizons[req.Tenant] = end
		}
		return time.Duration(queueNS), saturated
	}

	start := horizons[req.Tenant]
	if start < now {
		start = now
	}
	stretched := int64(float64(serviceNS) * wsum / w)
	queueNS = (start - now) + (stretched - serviceNS)
	if queueNS > maxNS {
		queueNS, saturated = maxNS, true
	}
	if !saturated {
		end := now + queueNS + serviceNS
		if end > horizons[req.Tenant] {
			horizons[req.Tenant] = end
		}
	}
	// The device horizon books the raw service (the physical work exists
	// regardless of whose turn it is), bounded by the same backlog window
	// so saturation cannot diverge it.
	if busy := h.Load(); busy-now <= maxNS {
		base := busy
		if base < now {
			base = now
		}
		h.Store(base + serviceNS)
	}
	return time.Duration(queueNS), saturated
}

// TenantStats snapshots the per-tenant counters of a multi-tenant plane in
// tenant-id order (nil on a single-tenant plane).
func (p *ContendedPlane) TenantStats() []TenantPlaneStats {
	if p.weights == nil {
		return nil
	}
	ids := make([]TenantID, 0, len(p.tenants))
	for id := range p.tenants {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]TenantPlaneStats, 0, len(ids))
	for _, id := range ids {
		c := p.tenants[id]
		s := TenantPlaneStats{
			Tenant:    id,
			Requests:  c.requests.Load(),
			Bytes:     c.bytes.Load(),
			Saturated: c.saturated.Load(),
		}
		if s.Requests > 0 {
			s.AvgQueue = time.Duration(c.queuedNS.Load() / s.Requests)
		}
		out = append(out, s)
	}
	return out
}

// UntaggedStats snapshots the counter block that collects multi-tenant
// traffic from tenant ids outside the configured set.
func (p *ContendedPlane) UntaggedStats() TenantPlaneStats {
	s := TenantPlaneStats{
		Requests:  p.untagged.requests.Load(),
		Bytes:     p.untagged.bytes.Load(),
		Saturated: p.untagged.saturated.Load(),
	}
	if s.Requests > 0 {
		s.AvgQueue = time.Duration(p.untagged.queuedNS.Load() / s.Requests)
	}
	return s
}

// CheckAccounting verifies the multi-tenant accounting equation: every
// request and byte counted against a tier is counted against exactly one
// tenant (or the untagged block). It must be called from a point that
// serializes with Serve (a single-threaded replay's event hook, or any
// quiescent instant); a no-op on single-tenant planes.
func (p *ContendedPlane) CheckAccounting() error {
	if p.weights == nil {
		return nil
	}
	var tierReqs, tierBytes, tierSat int64
	for i := range p.tiers {
		t := &p.tiers[i]
		tierReqs += t.requests.Load()
		tierBytes += t.bytes.Load()
		tierSat += t.saturated.Load()
	}
	tenReqs := p.untagged.requests.Load()
	tenBytes := p.untagged.bytes.Load()
	tenSat := p.untagged.saturated.Load()
	for _, c := range p.tenants {
		tenReqs += c.requests.Load()
		tenBytes += c.bytes.Load()
		tenSat += c.saturated.Load()
	}
	if tierReqs != tenReqs || tierBytes != tenBytes || tierSat != tenSat {
		return fmt.Errorf("storage: plane tenant accounting diverged: tiers (reqs %d, bytes %d, saturated %d) vs tenants (reqs %d, bytes %d, saturated %d)",
			tierReqs, tierBytes, tierSat, tenReqs, tenBytes, tenSat)
	}
	return nil
}

// Stats snapshots the plane counters. Safe from any goroutine.
func (p *ContendedPlane) Stats() PlaneStats {
	var out PlaneStats
	out.Devices = len(*p.chans.Load())
	for i := range p.tiers {
		t := &p.tiers[i]
		s := TierPlaneStats{
			Requests:     t.requests.Load(),
			MoveRequests: t.moveReqs.Load(),
			Bytes:        t.bytes.Load(),
			Contended:    t.contended.Load(),
			Saturated:    t.saturated.Load(),
		}
		if s.Requests > 0 {
			s.AvgQueue = time.Duration(t.queuedNS.Load() / s.Requests)
		}
		out.PerTier[i] = s
	}
	return out
}

// Horizon reports the device channel's current busy-until virtual time;
// tests and diagnostics use it, the serving path never does.
func (p *ContendedPlane) Horizon(deviceID string, dir Direction) time.Time {
	return sim.AtNanos(p.channel(deviceID).horizon(dir).Load())
}

// PlaneDeviceStats is a point-in-time snapshot of one device channel.
type PlaneDeviceStats struct {
	ID        string
	Grants    int64 // requests granted on the channel
	Saturated int64 // grants clamped at MaxQueue
	// AvgQueue is the mean queueing delay across the channel's grants.
	AvgQueue time.Duration
	// ReadHorizonNS / WriteHorizonNS are the busy-until horizons in virtual
	// nanoseconds since sim.Epoch; subtract the current virtual instant for
	// the backlog.
	ReadHorizonNS  int64
	WriteHorizonNS int64
}

// DeviceStats snapshots every live device channel, sorted by id. Safe from
// any goroutine; observability scrapes use it for per-device saturation.
func (p *ContendedPlane) DeviceStats() []PlaneDeviceStats {
	chans := *p.chans.Load()
	out := make([]PlaneDeviceStats, 0, len(chans))
	for id, ch := range chans {
		s := PlaneDeviceStats{
			ID:             id,
			Grants:         ch.grants.Load(),
			Saturated:      ch.saturated.Load(),
			ReadHorizonNS:  ch.read.Load(),
			WriteHorizonNS: ch.write.Load(),
		}
		if s.Grants > 0 {
			s.AvgQueue = time.Duration(ch.queuedNS.Load() / s.Grants)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
