package cluster

import (
	"math/rand"
	"testing"

	"octostore/internal/sim"
	"octostore/internal/storage"
)

func testConfig() Config {
	return Config{Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec()}
}

func TestNewValidation(t *testing.T) {
	e := sim.NewEngine()
	if _, err := New(e, Config{Workers: 0, SlotsPerNode: 1, Spec: storage.SmallWorkerSpec()}); err == nil {
		t.Fatal("expected error for zero workers")
	}
	if _, err := New(e, Config{Workers: 1, SlotsPerNode: 0, Spec: storage.SmallWorkerSpec()}); err == nil {
		t.Fatal("expected error for zero slots")
	}
	if _, err := New(e, Config{Workers: 1, SlotsPerNode: 1}); err == nil {
		t.Fatal("expected error for empty spec")
	}
	bad := storage.NodeSpec{{Media: storage.Media(3), Capacity: storage.GB, ReadBW: 1, WriteBW: 1, Count: 1}}
	if _, err := New(e, Config{Workers: 1, SlotsPerNode: 1, Spec: bad}); err == nil {
		t.Fatal("expected error for invalid media")
	}
}

func TestInvalidMediaHasNoDevices(t *testing.T) {
	c := MustNew(sim.NewEngine(), testConfig())
	n := c.Node(0)
	for _, m := range []storage.Media{-1, 3} {
		if d := n.Devices(m); d != nil {
			t.Fatalf("Devices(%d) = %v", m, d)
		}
		if d := n.PickDevice(m, 1); d != nil {
			t.Fatalf("PickDevice(%d) = %v", m, d)
		}
		if used, capacity := c.TierUsage(m); used != 0 || capacity != 0 || n.TierCapacity(m) != 0 {
			t.Fatalf("tier totals of media %d not zero", m)
		}
	}
}

func TestClusterTopology(t *testing.T) {
	e := sim.NewEngine()
	c := MustNew(e, testConfig())
	if c.Size() != 3 {
		t.Fatalf("size = %d", c.Size())
	}
	if c.TotalSlots() != 6 {
		t.Fatalf("slots = %d", c.TotalSlots())
	}
	n := c.Node(1)
	if n.Name() != "worker-1" || n.ID() != 1 {
		t.Fatalf("node identity: %s/%d", n.Name(), n.ID())
	}
	if len(n.Devices(storage.Memory)) != 1 {
		t.Fatalf("memory devices = %d", len(n.Devices(storage.Memory)))
	}
	if got := len(n.AllDevices()); got != 3 {
		t.Fatalf("all devices = %d", got)
	}
}

func TestPaperConfigShape(t *testing.T) {
	e := sim.NewEngine()
	c := MustNew(e, PaperConfig())
	if c.Size() != 11 {
		t.Fatalf("paper cluster size = %d", c.Size())
	}
	n := c.Node(0)
	if len(n.Devices(storage.HDD)) != 3 {
		t.Fatalf("paper HDDs per node = %d", len(n.Devices(storage.HDD)))
	}
	if got := n.TierCapacity(storage.Memory); got != 4*storage.GB {
		t.Fatalf("memory tier capacity = %d", got)
	}
	_, total := c.TierUsage(storage.Memory)
	if total != 11*4*storage.GB {
		t.Fatalf("cluster memory capacity = %d", total)
	}
}

func TestPickDevicePrefersLeastLoaded(t *testing.T) {
	e := sim.NewEngine()
	cfg := Config{Workers: 1, SlotsPerNode: 1, Spec: storage.NodeSpec{
		{Media: storage.HDD, Capacity: storage.GB, ReadBW: 100e6, WriteBW: 100e6, Count: 2},
	}}
	c := MustNew(e, cfg)
	n := c.Node(0)
	first := n.PickDevice(storage.HDD, 1)
	if first == nil {
		t.Fatal("no device picked")
	}
	first.Start(storage.Write, storage.MB, nil) // make it busy
	second := n.PickDevice(storage.HDD, 1)
	if second == first {
		t.Fatal("picked the busy device")
	}
}

func TestPickDeviceRespectsCapacity(t *testing.T) {
	e := sim.NewEngine()
	c := MustNew(e, testConfig())
	n := c.Node(0)
	d := n.PickDevice(storage.Memory, storage.MB)
	if d == nil {
		t.Fatal("expected a memory device")
	}
	if err := d.Reserve(d.Capacity()); err != nil {
		t.Fatal(err)
	}
	if got := n.PickDevice(storage.Memory, 1); got != nil {
		t.Fatal("picked a full device")
	}
}

func TestTierUsageAndUtilization(t *testing.T) {
	e := sim.NewEngine()
	c := MustNew(e, testConfig())
	d := c.Node(0).Devices(storage.SSD)[0]
	if err := d.Reserve(128 * storage.MB); err != nil {
		t.Fatal(err)
	}
	used, capacity := c.TierUsage(storage.SSD)
	if used != 128*storage.MB {
		t.Fatalf("used = %d", used)
	}
	if capacity != 3*256*storage.MB {
		t.Fatalf("capacity = %d", capacity)
	}
	wantUtil := float64(used) / float64(capacity)
	if got := c.TierUtilization(storage.SSD); got != wantUtil {
		t.Fatalf("utilization = %v, want %v", got, wantUtil)
	}
}

func TestTierUtilizationNoDevices(t *testing.T) {
	e := sim.NewEngine()
	cfg := Config{Workers: 1, SlotsPerNode: 1, Spec: storage.NodeSpec{
		{Media: storage.HDD, Capacity: storage.GB, ReadBW: 1, WriteBW: 1, Count: 1},
	}}
	c := MustNew(e, cfg)
	if got := c.TierUtilization(storage.Memory); got != 0 {
		t.Fatalf("utilization of absent tier = %v", got)
	}
}

// tierWalk sums the member devices' used and capacity bytes of a media:
// what TierUsage's running tally must always equal.
func tierWalk(c *Cluster, m storage.Media) (used, capacity int64) {
	for _, n := range c.Nodes() {
		for _, d := range n.Devices(m) {
			used += d.Used()
			capacity += d.Capacity()
		}
	}
	return used, capacity
}

// TestTierUsageTallyFollowsDevices drives random Reserve, Release, Grow and
// ShrinkUpTo calls, node joins and node losses, and Releases on the devices
// of removed nodes (replica teardown after node loss), and holds TierUsage
// to the per-device walk after every step.
func TestTierUsageTallyFollowsDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := MustNew(sim.NewEngine(), testConfig())
	var removed []*storage.Device
	check := func(step int, what string) {
		t.Helper()
		for _, m := range storage.AllMedia {
			gu, gc := c.TierUsage(m)
			wu, wc := tierWalk(c, m)
			if gu != wu || gc != wc {
				t.Fatalf("step %d (%s): %s tally used %d capacity %d, walk %d / %d", step, what, m, gu, gc, wu, wc)
			}
		}
	}
	check(0, "new")
	for step := 1; step <= 2000; step++ {
		var devs []*storage.Device
		for _, n := range c.Nodes() {
			devs = append(devs, n.AllDevices()...)
		}
		var what string
		switch op := rng.Intn(20); {
		case op == 0:
			c.AddNode(storage.SmallWorkerSpec(), 1)
			what = "add node"
		case op == 1 && c.Size() > 1:
			n := c.Nodes()[rng.Intn(c.Size())]
			removed = append(removed, n.AllDevices()...)
			c.RemoveNode(n.ID())
			what = "remove node"
		case op == 2 && len(removed) > 0:
			d := removed[rng.Intn(len(removed))]
			d.Release(rng.Int63n(d.Used() + 1))
			what = "release on a removed device"
		default:
			d := devs[rng.Intn(len(devs))]
			switch rng.Intn(4) {
			case 0:
				_ = d.Reserve(rng.Int63n(64 * storage.MB))
				what = "reserve"
			case 1:
				d.Release(rng.Int63n(d.Used() + 1))
				what = "release"
			case 2:
				d.Grow(rng.Int63n(32 * storage.MB))
				what = "grow"
			default:
				d.ShrinkUpTo(rng.Int63n(32 * storage.MB))
				what = "shrink"
			}
		}
		check(step, what)
	}
}
