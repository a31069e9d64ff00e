// Package cluster assembles storage devices into worker nodes and nodes into
// a cluster, mirroring the testbed topology of the paper's evaluation
// (1 master + N workers, three storage tiers per worker).
package cluster

import (
	"fmt"

	"octostore/internal/sim"
	"octostore/internal/storage"
)

// Node is one worker machine: a set of storage devices grouped by media and
// a number of task execution slots. devices is indexed by media: placement
// and watermark checks look a tier up under every candidate.
type Node struct {
	id      int
	name    string
	devices [3][]*storage.Device
	slots   int
}

// ID returns the node's index within the cluster.
func (n *Node) ID() int { return n.id }

// Name returns a human-readable node name such as "worker-3".
func (n *Node) Name() string { return n.name }

// Slots returns the number of simultaneous task slots on the node.
func (n *Node) Slots() int { return n.slots }

// Devices returns the node's devices of the given media (possibly empty;
// nil for an invalid media).
func (n *Node) Devices(media storage.Media) []*storage.Device {
	if !media.Valid() {
		return nil
	}
	return n.devices[media]
}

// AllDevices returns every device on the node, ordered from the highest tier
// to the lowest.
func (n *Node) AllDevices() []*storage.Device {
	var all []*storage.Device
	for _, m := range storage.AllMedia {
		all = append(all, n.devices[m]...)
	}
	return all
}

// PickDevice returns the device of the given media best suited to receive a
// new replica of the given size: the least-loaded device with room,
// tie-broken by most free space. It returns nil when no device fits.
func (n *Node) PickDevice(media storage.Media, bytes int64) *storage.Device {
	var best *storage.Device
	for _, d := range n.Devices(media) {
		if d.Free() < bytes {
			continue
		}
		if best == nil || d.Load() < best.Load() ||
			(d.Load() == best.Load() && d.Free() > best.Free()) {
			best = d
		}
	}
	return best
}

// TierCapacity returns the total capacity of the node's devices of a media.
func (n *Node) TierCapacity(media storage.Media) int64 {
	var c int64
	for _, d := range n.Devices(media) {
		c += d.Capacity()
	}
	return c
}

// Cluster is the set of worker nodes plus the shared simulation engine.
// The master is not modelled as a machine: master-side logic (namespace,
// block manager, replication manager) runs as plain in-process components.
type Cluster struct {
	engine *sim.Engine
	nodes  []*Node
	nextID int
	plane  storage.DataPlane
	// tiers is the running used and capacity bytes per media over the
	// member devices: each device tracks its media's entry from AddNode
	// until RemoveNode.
	tiers [3]storage.Tally
}

// Config describes a cluster to build.
type Config struct {
	Workers      int
	SlotsPerNode int
	Spec         storage.NodeSpec
	// Plane, when set, is the data plane the cluster's I/O is accounted
	// against. It is deliberately part of the topology config: the sharded
	// serving layer builds one cluster view per shard from the same Config,
	// so a single shared plane arbitrates the physical devices across every
	// view (device IDs are identical across views by construction), exactly
	// as the tier ledger arbitrates physical capacity. Nil means no
	// data-plane accounting (zero-latency reads, uncontended movement).
	Plane storage.DataPlane
}

// PaperConfig reproduces the paper's testbed: 11 workers, 8 task slots each
// (8-core nodes), with the Section 7 per-node storage configuration.
func PaperConfig() Config {
	return Config{Workers: 11, SlotsPerNode: 8, Spec: storage.PaperWorkerSpec()}
}

// New builds a cluster on the given engine.
func New(engine *sim.Engine, cfg Config) (*Cluster, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("cluster: need at least one worker, got %d", cfg.Workers)
	}
	if cfg.SlotsPerNode <= 0 {
		return nil, fmt.Errorf("cluster: need at least one slot per node, got %d", cfg.SlotsPerNode)
	}
	if len(cfg.Spec) == 0 {
		return nil, fmt.Errorf("cluster: empty storage spec")
	}
	for _, ds := range cfg.Spec {
		if !ds.Media.Valid() {
			return nil, fmt.Errorf("cluster: invalid media %v in storage spec", ds.Media)
		}
	}
	c := &Cluster{engine: engine, plane: cfg.Plane}
	for i := 0; i < cfg.Workers; i++ {
		c.AddNode(cfg.Spec, cfg.SlotsPerNode)
	}
	return c, nil
}

// Plane returns the data plane the cluster's I/O is accounted against (nil
// when none is attached).
func (c *Cluster) Plane() storage.DataPlane { return c.plane }

// planeRegistrar is implemented by planes that want devices pre-registered
// so the serving hot path never pays channel-creation cost.
type planeRegistrar interface {
	Register(deviceID string, media storage.Media)
}

// planeAttacher is implemented by planes that hold a device's channel on
// the device itself; Attach registers the id as Register does.
type planeAttacher interface {
	Attach(d *storage.Device)
}

// planeUnregistrar is the reclamation side of planeRegistrar: each cluster
// view drops its registration when a node leaves, and the plane frees the
// device's channel once the last view lets go (registrations are
// refcounted, so views of other shards mid-churn-fan-out stay safe).
type planeUnregistrar interface {
	Unregister(deviceID string, media storage.Media)
}

// AddNode joins a fresh worker with the given storage spec and task slots to
// the cluster (node membership churn, e.g. scale-out mid-workload). Node ids
// are never reused. It panics on a spec with an invalid media, which New
// rejects.
func (c *Cluster) AddNode(spec storage.NodeSpec, slots int) *Node {
	n := &Node{
		id:    c.nextID,
		name:  fmt.Sprintf("worker-%d", c.nextID),
		slots: slots,
	}
	c.nextID++
	att, _ := c.plane.(planeAttacher)
	reg, _ := c.plane.(planeRegistrar)
	for _, ds := range spec {
		for j := 0; j < ds.Count; j++ {
			id := fmt.Sprintf("%s/%s-%d", n.name, ds.Media, j)
			d := storage.NewDevice(c.engine, id, ds.Media, ds.Capacity, ds.ReadBW, ds.WriteBW)
			n.devices[ds.Media] = append(n.devices[ds.Media], d)
			d.Track(&c.tiers[ds.Media])
			switch {
			case att != nil:
				att.Attach(d)
			case reg != nil:
				reg.Register(id, ds.Media)
			}
		}
	}
	c.nodes = append(c.nodes, n)
	return n
}

// RemoveNode detaches the worker with the given id from the cluster,
// returning it (nil when unknown). Its devices leave capacity accounting:
// they stop tracking the tier tallies, so the teardown of the replicas they
// held leaves TierUsage alone. The caller is responsible for those replicas
// (dfs.FileSystem.FailNode wraps this with replica teardown).
func (c *Cluster) RemoveNode(id int) *Node {
	for i, n := range c.nodes {
		if n.id == id {
			c.nodes = append(c.nodes[:i], c.nodes[i+1:]...)
			unreg, _ := c.plane.(planeUnregistrar)
			for _, d := range n.AllDevices() {
				d.Track(nil)
				if unreg != nil {
					unreg.Unregister(d.ID(), d.Media())
				}
			}
			return n
		}
	}
	return nil
}

// MustNew is New but panics on error; convenient in tests and examples.
func MustNew(engine *sim.Engine, cfg Config) *Cluster {
	c, err := New(engine, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Engine returns the simulation engine driving the cluster.
func (c *Cluster) Engine() *sim.Engine { return c.engine }

// Nodes returns all worker nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the worker with the given id, or nil after it has left the
// cluster. Ids equal slice positions only until the first membership change,
// so this searches rather than indexes.
func (c *Cluster) Node(id int) *Node {
	for _, n := range c.nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

// Size returns the number of worker nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// TotalSlots returns the aggregate number of task slots.
func (c *Cluster) TotalSlots() int {
	total := 0
	for _, n := range c.nodes {
		total += n.slots
	}
	return total
}

// TierUsage returns the used and capacity bytes of a media across the
// cluster's devices, kept as a running tally.
func (c *Cluster) TierUsage(media storage.Media) (used, capacity int64) {
	if !media.Valid() {
		return 0, 0
	}
	t := &c.tiers[media]
	return t.Used, t.Capacity
}

// TierUtilization returns used/capacity for the media, or 0 if the cluster
// has no devices of that media.
func (c *Cluster) TierUtilization(media storage.Media) float64 {
	used, capacity := c.TierUsage(media)
	if capacity == 0 {
		return 0
	}
	return float64(used) / float64(capacity)
}
