package storage

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"octostore/internal/sim"
)

// planeReq is a request for a fresh, unattached device of media m with id
// dev: the plane books the channel registered under dev.
func planeReq(dev string, m Media, dir Direction, bytes int64, at time.Time) IORequest {
	return attachedReq(testDevice(dev, m), dir, bytes, at)
}

func TestNopPlaneZero(t *testing.T) {
	var p NopPlane
	g := p.Serve(planeReq("d", Memory, Read, 1<<30, sim.Epoch.Add(time.Hour)))
	if g != (IOGrant{}) {
		t.Fatalf("NopPlane granted %+v, want zero", g)
	}
}

func TestTierOrderedServiceTime(t *testing.T) {
	p := NewContendedPlane(PlaneConfig{})
	at := sim.Epoch
	const bytes = 64 * MB
	var lat [3]time.Duration
	for _, m := range AllMedia {
		g := p.Serve(planeReq("dev-"+m.String(), m, Read, bytes, at))
		if g.Queue != 0 {
			t.Fatalf("%v: fresh channel queued %v", m, g.Queue)
		}
		lat[m] = g.Latency()
	}
	if !(lat[Memory] < lat[SSD] && lat[SSD] < lat[HDD]) {
		t.Fatalf("service times not tier-ordered: mem %v ssd %v hdd %v", lat[Memory], lat[SSD], lat[HDD])
	}
}

func TestQueueingAccumulatesAndDrains(t *testing.T) {
	p := NewContendedPlane(PlaneConfig{MaxQueue: time.Hour})
	at := sim.Epoch
	const bytes = 100 * MB
	g1 := p.Serve(planeReq("d0", SSD, Read, bytes, at))
	if g1.Queue != 0 {
		t.Fatalf("first request queued %v", g1.Queue)
	}
	g2 := p.Serve(planeReq("d0", SSD, Read, bytes, at))
	if want := g1.Base + g1.Transfer; g2.Queue != want {
		t.Fatalf("second request queued %v, want the first's service time %v", g2.Queue, want)
	}
	// A different device and the opposite direction are independent.
	if g := p.Serve(planeReq("d1", SSD, Read, bytes, at)); g.Queue != 0 {
		t.Fatalf("independent device queued %v", g.Queue)
	}
	if g := p.Serve(planeReq("d0", SSD, Write, bytes, at)); g.Queue != 0 {
		t.Fatalf("opposite direction queued %v", g.Queue)
	}
	// Issuing after the backlog's horizon drains the queue.
	later := at.Add(g2.Queue + g2.Base + g2.Transfer)
	if g := p.Serve(planeReq("d0", SSD, Read, bytes, later)); g.Queue != 0 {
		t.Fatalf("post-horizon request queued %v", g.Queue)
	}
}

func TestQueueClampSaturates(t *testing.T) {
	p := NewContendedPlane(PlaneConfig{MaxQueue: 100 * time.Millisecond})
	at := sim.Epoch
	var saturated int
	for i := 0; i < 50; i++ {
		g := p.Serve(planeReq("d", HDD, Write, 64*MB, at))
		if g.Queue > 100*time.Millisecond {
			t.Fatalf("queue %v exceeds the clamp", g.Queue)
		}
		if g.Saturated {
			saturated++
		}
	}
	if saturated == 0 {
		t.Fatal("sustained overload never reported saturation")
	}
	st := p.Stats()
	if st.PerTier[HDD].Saturated != int64(saturated) || st.PerTier[HDD].Requests != 50 {
		t.Fatalf("stats %+v disagree with %d saturated of 50", st.PerTier[HDD], saturated)
	}
}

// TestConcurrentServe hammers one device from many goroutines (the shape of
// shard loops plus serve-path clients) and checks the horizon accounting
// stays conserved: with a generous clamp every request's service time is
// booked, so the final horizon equals the total booked work.
func TestConcurrentServe(t *testing.T) {
	p := NewContendedPlane(PlaneConfig{MaxQueue: 24 * time.Hour})
	p.Register("shared", Memory)
	const goroutines, each = 8, 200
	const bytes = 8 * MB
	at := sim.Epoch
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				p.Serve(planeReq("shared", Memory, Read, bytes, at))
			}
		}()
	}
	wg.Wait()
	one := p.Serve(planeReq("probe", Memory, Read, bytes, at))
	total := time.Duration(goroutines*each) * (one.Base + one.Transfer)
	if got := p.Horizon("shared", Read).Sub(at); got != total {
		t.Fatalf("horizon advanced %v, want %v (every request booked exactly once)", got, total)
	}
	st := p.Stats()
	if st.PerTier[Memory].Requests != goroutines*each+1 {
		t.Fatalf("requests %d, want %d", st.PerTier[Memory].Requests, goroutines*each+1)
	}
	if st.PerTier[Memory].Contended == 0 {
		t.Fatal("no request observed contention")
	}
}

func TestRegisterSharesBacklogAcrossViews(t *testing.T) {
	// Two "views" (shards) address the same physical device by ID: backlog
	// created through one is visible to the other.
	p := NewContendedPlane(PlaneConfig{MaxQueue: time.Hour})
	p.Register("worker-0/MEM-0", Memory)
	at := sim.Epoch
	g := p.Serve(planeReq("worker-0/MEM-0", Memory, Write, 256*MB, at))
	g2 := p.Serve(planeReq("worker-0/MEM-0", Memory, Write, 256*MB, at))
	if g2.Queue != g.Base+g.Transfer {
		t.Fatalf("second view queued %v, want %v", g2.Queue, g.Base+g.Transfer)
	}
}

// attachedReq is a request for d, the way dfs and the serving layer charge.
func attachedReq(d *Device, dir Direction, bytes int64, at time.Time) IORequest {
	return IORequest{Device: d, Dir: dir, Class: ClassServe, Bytes: bytes, At: at}
}

// testDevice is a device of media m at the paper table's bandwidths.
func testDevice(id string, m Media) *Device {
	prof := DefaultTierProfiles()[m]
	return NewDevice(sim.NewEngine(), id, m, GB, prof.ReadBW, prof.WriteBW)
}

// TestAttachedChannelSharedWithID: a request naming an attached device and
// a request by its id book the same channel, and DeviceHorizon reads it.
func TestAttachedChannelSharedWithID(t *testing.T) {
	p := NewContendedPlane(PlaneConfig{MaxQueue: time.Hour})
	d := testDevice("worker-0/SSD-0", SSD)
	p.Attach(d)
	at := sim.Epoch
	g1 := p.Serve(attachedReq(d, Write, 64*MB, at))
	g2 := p.Serve(planeReq(d.ID(), SSD, Write, 64*MB, at))
	if g2.Queue != g1.Base+g1.Transfer {
		t.Fatalf("request by id queued %v, want the attached request's service %v", g2.Queue, g1.Base+g1.Transfer)
	}
	g3 := p.Serve(attachedReq(d, Write, 64*MB, at))
	if g3.Queue != g2.Queue+g2.Base+g2.Transfer {
		t.Fatalf("attached request queued %v behind the id request, want %v", g3.Queue, g2.Queue+g2.Base+g2.Transfer)
	}
	if h := p.DeviceHorizon(d, Write); h != sim.Nanos(p.Horizon(d.ID(), Write)) {
		t.Fatalf("DeviceHorizon %d, Horizon by id %d", h, sim.Nanos(p.Horizon(d.ID(), Write)))
	}
	if got := p.Stats().Devices; got != 1 {
		t.Fatalf("devices %d, want 1", got)
	}
}

// TestChannelOfAnotherPlaneIgnored: a device attached to plane A and
// charged on plane B books B's channel for its id, never A's.
func TestChannelOfAnotherPlaneIgnored(t *testing.T) {
	a := NewContendedPlane(PlaneConfig{})
	b := NewContendedPlane(PlaneConfig{})
	d := testDevice("worker-0/HDD-0", HDD)
	a.Attach(d)
	at := sim.Epoch
	b.Serve(attachedReq(d, Read, 64*MB, at))
	if got := b.Stats().Devices; got != 1 {
		t.Fatalf("plane B holds %d channels, want 1 under the id", got)
	}
	if !b.Horizon(d.ID(), Read).After(at) || b.DeviceHorizon(d, Read) != sim.Nanos(b.Horizon(d.ID(), Read)) {
		t.Fatal("plane B did not book its own channel for the id")
	}
	if h := a.DeviceHorizon(d, Read); h != 0 {
		t.Fatalf("plane A's channel advanced to %d by a charge on plane B", h)
	}
}

// TestAttachedChannelRefcountedAcrossViews: two cluster views attach their
// own device of one id; they share the channel, the first Unregister keeps
// it and the second drops it.
func TestAttachedChannelRefcountedAcrossViews(t *testing.T) {
	p := NewContendedPlane(PlaneConfig{MaxQueue: time.Hour})
	v1, v2 := testDevice("worker-3/MEM-0", Memory), testDevice("worker-3/MEM-0", Memory)
	p.Attach(v1)
	p.Attach(v2)
	at := sim.Epoch
	g1 := p.Serve(attachedReq(v1, Read, 256*MB, at))
	if g2 := p.Serve(attachedReq(v2, Read, 256*MB, at)); g2.Queue != g1.Base+g1.Transfer {
		t.Fatalf("second view queued %v, want %v", g2.Queue, g1.Base+g1.Transfer)
	}
	p.Unregister(v1.ID(), Memory)
	if got := p.Stats().Devices; got != 1 {
		t.Fatal("channel dropped while a view still holds a registration")
	}
	p.Unregister(v2.ID(), Memory)
	if got := p.Stats().Devices; got != 0 {
		t.Fatalf("devices %d after the last view unregistered, want 0", got)
	}
}

// TestChannelChargedAfterUnregisterAddsNoEntry: a serve read that races
// node loss charges a device every view has unregistered. It books the
// channel the device holds and leaves the plane's id map empty.
func TestChannelChargedAfterUnregisterAddsNoEntry(t *testing.T) {
	p := NewContendedPlane(PlaneConfig{MaxQueue: time.Hour})
	d := testDevice("worker-1/SSD-0", SSD)
	p.Attach(d)
	at := sim.Epoch
	g1 := p.Serve(attachedReq(d, Read, 64*MB, at))
	p.Unregister(d.ID(), SSD)
	g2 := p.Serve(attachedReq(d, Read, 64*MB, at))
	if g2.Queue != g1.Base+g1.Transfer {
		t.Fatalf("late charge queued %v, want %v on the device's channel", g2.Queue, g1.Base+g1.Transfer)
	}
	p.DeviceHorizon(d, Write)
	if got := p.Stats().Devices; got != 0 {
		t.Fatalf("devices %d after charging an unregistered device, want 0", got)
	}
}

// TestAttachedChannelConcurrentServe charges attached devices from client
// goroutines while another goroutine attaches new devices, as serve reads
// do while a shard loop joins a node; every request is booked once.
func TestAttachedChannelConcurrentServe(t *testing.T) {
	p := NewContendedPlane(PlaneConfig{MaxQueue: 24 * time.Hour})
	d := testDevice("shared", Memory)
	p.Attach(d)
	const goroutines, each = 4, 200
	const bytes = 8 * MB
	at := sim.Epoch
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				p.Serve(attachedReq(d, Read, bytes, at))
				p.DeviceHorizon(d, Read)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			n := testDevice(fmt.Sprintf("join-%d", j), SSD)
			p.Attach(n)
			p.Serve(attachedReq(n, Write, bytes, at))
		}
	}()
	wg.Wait()
	// The probe has d's media and bandwidths, so its service time is d's.
	probe := NewDevice(sim.NewEngine(), "probe", d.Media(), GB, d.bw[Read], d.bw[Write])
	one := p.Serve(attachedReq(probe, Read, bytes, at))
	total := time.Duration(goroutines*each) * (one.Base + one.Transfer)
	if got := time.Duration(p.DeviceHorizon(d, Read)); got != total {
		t.Fatalf("horizon advanced %v, want %v (every request booked exactly once)", got, total)
	}
}

// One serve read granted on an attached device, the plane grant a client
// read pays. It must allocate nothing: the device carries its channel and
// its bandwidth, and the grant is a value.
func BenchmarkPlaneServe(b *testing.B) {
	p := NewContendedPlane(PlaneConfig{})
	d := testDevice("worker-0/MEM-0", Memory)
	p.Attach(d)
	req := attachedReq(d, Read, 64*KB, sim.Epoch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req.At = req.At.Add(100 * time.Microsecond)
		p.Serve(req)
	}
}
