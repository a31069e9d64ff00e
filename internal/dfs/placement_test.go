package dfs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// placeBlockReference is octopusPlacement.PlaceBlock as it was before its
// candidates moved to a stack table: a heap candidate slice, the backlog
// term read through the id-keyed Horizon in time.Time arithmetic, the
// diversity penalty charged per candidate, and the nodes already chosen
// found by a scan of the targets. It draws the same one rotor value from
// rng, so a placement seeded alike must return the same targets.
func placeBlockReference(c *cluster.Cluster, rng *rand.Rand, w PlacementWeights, backlog idHorizons, size int64, replication int) []Target {
	nodes := c.Nodes()
	var targets []Target
	start := rng.Intn(len(nodes))
	var now time.Time
	if backlog != nil {
		now = c.Engine().Now()
	}
	var cands []placeCandidate
	for i := 0; i < len(nodes); i++ {
		n := nodes[(start+i)%len(nodes)]
		for _, media := range storage.AllMedia {
			d := n.PickDevice(media, size)
			if d == nil {
				continue
			}
			c := placeCandidate{node: n, dev: d, media: media}
			c.base = w.Throughput * mediaSpeed(media)
			c.base += w.DataBal * (1 - d.Utilization())
			c.base += w.LoadBal / float64(1+d.Load())
			if backlog != nil {
				if wait := backlog.Horizon(d.ID(), storage.Write).Sub(now); wait > 0 {
					ws := wait.Seconds()
					c.backlog = w.Backlog * ws / (ws + 1)
				}
			}
			cands = append(cands, c)
		}
	}
	hasNode := func(n *cluster.Node) bool {
		for _, t := range targets {
			if t.Node.ID() == n.ID() {
				return true
			}
		}
		return false
	}
	var usedMedia [3]int
	for len(targets) < replication {
		best := -1
		bestScore := math.Inf(-1)
		for i := range cands {
			c := &cands[i]
			if hasNode(c.node) {
				continue
			}
			score := c.base - w.Diversity*float64(usedMedia[c.media])
			score -= c.backlog
			if score > bestScore {
				bestScore = score
				best = i
			}
		}
		if best < 0 {
			break
		}
		usedMedia[cands[best].media]++
		targets = append(targets, Target{Node: cands[best].node, Device: cands[best].dev})
	}
	return targets
}

// idOnlyPlane is a decorated plane: it offers the id-keyed horizon and
// registration but cannot attach devices, so the cluster registers ids and
// dfs reads horizons through its id adapter.
type idOnlyPlane struct {
	p *storage.ContendedPlane
}

func (d idOnlyPlane) Serve(req storage.IORequest) storage.IOGrant { return d.p.Serve(req) }
func (d idOnlyPlane) Horizon(id string, dir storage.Direction) time.Time {
	return d.p.Horizon(id, dir)
}
func (d idOnlyPlane) Register(id string, m storage.Media)   { d.p.Register(id, m) }
func (d idOnlyPlane) Unregister(id string, m storage.Media) { d.p.Unregister(id, m) }

// placeMode is how a placement test wires the data plane.
type placeMode int

const (
	modeAttached  placeMode = iota // cluster.Config.Plane: devices hold their channels
	modeSetPlane                   // SetDataPlane after the cluster is built: id lookups
	modeDecorated                  // a plane without Attach: the id adapter
	modeNoPlane
)

func (m placeMode) String() string {
	return [...]string{"attached", "set-plane", "decorated", "none"}[m]
}

// randomPlacementFS builds an octopus file system over a cluster of the
// given workers with 1-3 devices per media of random capacity, wired to
// plane as mode says. Each device is filled to a random level and left with
// 0-3 transfers in flight, so free space, utilization and load all differ.
func randomPlacementFS(rng *rand.Rand, workers int, plane *storage.ContendedPlane, mode placeMode) *FileSystem {
	spec := storage.NodeSpec{}
	for _, m := range storage.AllMedia {
		spec = append(spec, storage.DeviceSpec{
			Media: m, Capacity: int64(1+rng.Intn(8)) * 32 * storage.MB,
			ReadBW: 100e6, WriteBW: 100e6, Count: 1 + rng.Intn(3),
		})
	}
	cfg := cluster.Config{Workers: workers, SlotsPerNode: 1, Spec: spec}
	switch mode {
	case modeAttached:
		cfg.Plane = plane
	case modeDecorated:
		cfg.Plane = idOnlyPlane{plane}
	}
	fs := MustNew(cluster.MustNew(sim.NewEngine(), cfg), Config{Mode: ModeOctopus})
	if mode == modeSetPlane {
		fs.SetDataPlane(plane)
	}
	for _, n := range fs.Cluster().Nodes() {
		for _, d := range n.AllDevices() {
			if err := d.Reserve(rng.Int63n(d.Capacity() + 1)); err != nil {
				panic(err)
			}
			for k := rng.Intn(4); k > 0; k-- {
				d.Start(storage.Direction(rng.Intn(2)), storage.MB, nil)
			}
		}
	}
	return fs
}

// bookWrite charges a write on d the way dfs does.
func bookWrite(plane *storage.ContendedPlane, d *storage.Device, bytes int64, at time.Time) {
	plane.Serve(storage.IORequest{
		Device: d, Dir: storage.Write, Bytes: bytes, At: at,
	})
}

// randomHorizons books random writes on a random subset of devices, issued
// up to 2 s either side of now, then half the time moves the clock to one
// device's write horizon, so horizons land in the past, exactly at now and
// in the future.
func randomHorizons(rng *rand.Rand, c *cluster.Cluster, plane *storage.ContendedPlane) {
	now := c.Engine().Now()
	var devs []*storage.Device
	for _, n := range c.Nodes() {
		for _, d := range n.AllDevices() {
			for k := rng.Intn(3); k > 0; k-- {
				bookWrite(plane, d, rng.Int63n(512*storage.MB),
					now.Add(time.Duration(rng.Int63n(int64(4*time.Second)))-2*time.Second))
			}
			devs = append(devs, d)
		}
	}
	if rng.Intn(2) == 0 {
		h := plane.Horizon(devs[rng.Intn(len(devs))].ID(), storage.Write)
		if h.After(now) {
			c.Engine().RunUntil(h)
		}
	}
}

func targetIDs(targets []Target) string {
	ids := make([]string, len(targets))
	for i, t := range targets {
		ids[i] = t.Device.ID()
	}
	return strings.Join(ids, ",")
}

// TestPlaceBlockMatchesReference holds PlaceBlock to placeBlockReference
// over random clusters of 1, 4, 16 and 30 workers (30 offers up to 90
// candidates, past the stack table), with the plane attached, set later,
// decorated or absent, and with weights that often tie.
func TestPlaceBlockMatchesReference(t *testing.T) {
	weight := func(rng *rand.Rand) float64 { return []float64{0, 0.3, 1, 2}[rng.Intn(4)] }
	for trial := int64(0); trial < 400; trial++ {
		rng := rand.New(rand.NewSource(trial))
		workers := []int{1, 4, 16, 30}[trial%4]
		mode := placeMode(trial / 4 % 4)
		var plane *storage.ContendedPlane
		var backlog idHorizons
		if mode != modeNoPlane {
			plane = storage.NewContendedPlane(storage.PlaneConfig{})
			backlog = plane
		}
		fs := randomPlacementFS(rng, workers, plane, mode)
		c := fs.Cluster()
		if plane != nil {
			randomHorizons(rng, c, plane)
		}
		w := DefaultPlacementWeights()
		if rng.Intn(2) == 0 { // weights that tie often
			w = PlacementWeights{Throughput: weight(rng), DataBal: weight(rng), LoadBal: weight(rng), Diversity: weight(rng), Backlog: weight(rng)}
		}
		p := fs.placement.(*octopusPlacement)
		p.rng, p.weights = rand.New(rand.NewSource(trial)), w
		if (p.horizon == nil) != (plane == nil) {
			t.Fatalf("trial %d (%v): placement horizon set = %v", trial, mode, p.horizon != nil)
		}
		refRng := rand.New(rand.NewSource(trial))
		for block := 0; block < 12; block++ {
			size := rng.Int63n(128*storage.MB) + 1
			replication := 1 + rng.Intn(4)
			got, err := p.PlaceBlock(size, replication)
			want := placeBlockReference(c, refRng, w, backlog, size, replication)
			if (err != nil) != (len(want) == 0) || targetIDs(got) != targetIDs(want) {
				t.Fatalf("trial %d (%d workers, %v) block %d (%d bytes x%d): placed [%s] (err %v), reference [%s]",
					trial, workers, mode, block, size, replication, targetIDs(got), err, targetIDs(want))
			}
			// Write the block so the next one sees less room and, with a
			// plane, longer write queues.
			for _, tg := range got {
				if err := tg.Device.Reserve(size); err != nil {
					t.Fatal(err)
				}
				if plane != nil {
					bookWrite(plane, tg.Device, size, c.Engine().Now())
				}
			}
		}
	}
}

// BenchmarkPlaceBlock is one 3-replica block placed the way a create does:
// the file system's own placement, the contended plane given through
// cluster.Config.Plane so every device holds its channel, and every
// device's write channel booked.
func BenchmarkPlaceBlock(b *testing.B) {
	for _, workers := range []int{4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			plane := storage.NewContendedPlane(storage.PlaneConfig{})
			c := cluster.MustNew(sim.NewEngine(), cluster.Config{
				Workers: workers, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec(), Plane: plane,
			})
			fs := MustNew(c, Config{Mode: ModeOctopus, Seed: 1})
			for _, n := range c.Nodes() {
				for _, d := range n.AllDevices() {
					bookWrite(plane, d, 64*storage.MB, c.Engine().Now())
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fs.placement.PlaceBlock(storage.MB, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
