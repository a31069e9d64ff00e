package dfs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// placeBlockReference is octopusPlacement.PlaceBlock as it was before
// candidates were scored once per block: every replica round re-picks and
// re-scores every (node, media) pair. It draws the same one rotor value
// from p.rng, so a placement seeded alike must return the same targets.
func placeBlockReference(p *octopusPlacement, size int64, replication int) []Target {
	nodes := p.cluster.Nodes()
	var usedMedia [3]int
	var targets []Target
	start := p.rng.Intn(len(nodes))
	var now time.Time
	if p.backlog != nil {
		now = p.cluster.Engine().Now()
	}
	for len(targets) < replication {
		var best Target
		bestScore := math.Inf(-1)
		for i := 0; i < len(nodes); i++ {
			n := nodes[(start+i)%len(nodes)]
			if targetsHaveNode(targets, n.ID()) {
				continue
			}
			for _, media := range storage.AllMedia {
				d := n.PickDevice(media, size)
				if d == nil {
					continue
				}
				score := p.weights.Throughput * mediaSpeed(media)
				score += p.weights.DataBal * (1 - d.Utilization())
				score += p.weights.LoadBal / float64(1+d.Load())
				score -= p.weights.Diversity * float64(usedMedia[media])
				if p.backlog != nil {
					if wait := p.backlog.Horizon(d.ID(), storage.Write).Sub(now); wait > 0 {
						ws := wait.Seconds()
						score -= p.weights.Backlog * ws / (ws + 1)
					}
				}
				if score > bestScore {
					bestScore = score
					best = Target{Node: n, Device: d}
				}
			}
		}
		if best.Device == nil {
			break
		}
		usedMedia[best.Device.Media()]++
		targets = append(targets, best)
	}
	return targets
}

// randomPlacementCluster builds a cluster of 1-7 workers with 1-3 devices
// per media of random capacity, fills each device to a random level and
// leaves 0-3 transfers in flight on it, so free space, utilization and load
// all differ between candidates.
func randomPlacementCluster(rng *rand.Rand) *cluster.Cluster {
	spec := storage.NodeSpec{}
	for _, m := range storage.AllMedia {
		spec = append(spec, storage.DeviceSpec{
			Media: m, Capacity: int64(1+rng.Intn(8)) * 32 * storage.MB,
			ReadBW: 100e6, WriteBW: 100e6, Count: 1 + rng.Intn(3),
		})
	}
	c := cluster.MustNew(sim.NewEngine(), cluster.Config{Workers: 1 + rng.Intn(7), SlotsPerNode: 1, Spec: spec})
	for _, n := range c.Nodes() {
		for _, m := range storage.AllMedia {
			for _, d := range n.Devices(m) {
				if err := d.Reserve(rng.Int63n(d.Capacity() + 1)); err != nil {
					panic(err)
				}
				for k := rng.Intn(4); k > 0; k-- {
					d.Start(storage.Direction(rng.Intn(2)), storage.MB, nil)
				}
			}
		}
	}
	return c
}

// randomHorizons attaches a contended plane to half the clusters and books
// random writes on a random subset of devices, issued up to 2 s either side
// of now, so horizons land in the past, at now and in the future.
func randomHorizons(rng *rand.Rand, c *cluster.Cluster) writeHorizons {
	if rng.Intn(2) == 0 {
		return nil
	}
	plane := storage.NewContendedPlane(storage.PlaneConfig{})
	now := c.Engine().Now()
	for _, n := range c.Nodes() {
		for _, m := range storage.AllMedia {
			for _, d := range n.Devices(m) {
				for k := rng.Intn(3); k > 0; k-- {
					plane.Serve(storage.IORequest{
						DeviceID: d.ID(), Media: m, Dir: storage.Write,
						Bytes: rng.Int63n(512 * storage.MB),
						At:    now.Add(time.Duration(rng.Int63n(int64(4*time.Second))) - 2*time.Second),
					})
				}
			}
		}
	}
	return plane
}

func TestPlaceBlockMatchesReference(t *testing.T) {
	weight := func(rng *rand.Rand) float64 { return []float64{0, 0.3, 1, 2}[rng.Intn(4)] }
	for trial := int64(0); trial < 300; trial++ {
		rng := rand.New(rand.NewSource(trial))
		c := randomPlacementCluster(rng)
		backlog := randomHorizons(rng, c)
		w := DefaultPlacementWeights()
		if rng.Intn(2) == 0 { // weights that tie often
			w = PlacementWeights{Throughput: weight(rng), DataBal: weight(rng), LoadBal: weight(rng), Diversity: weight(rng), Backlog: weight(rng)}
		}
		p := &octopusPlacement{cluster: c, rng: rand.New(rand.NewSource(trial)), weights: w, backlog: backlog}
		ref := &octopusPlacement{cluster: c, rng: rand.New(rand.NewSource(trial)), weights: w, backlog: backlog}
		for block := 0; block < 12; block++ {
			size := rng.Int63n(128*storage.MB) + 1
			replication := 1 + rng.Intn(4)
			got, err := p.PlaceBlock(size, replication)
			want := placeBlockReference(ref, size, replication)
			if (err != nil) != (len(want) == 0) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d block %d (%d bytes x%d): placed %v (err %v), reference %v",
					trial, block, size, replication, got, err, want)
			}
			// Write the block so the next one sees less room.
			for _, tg := range got {
				if err := tg.Device.Reserve(size); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkPlaceBlock is one 3-replica block placed on 4 workers with a
// contended plane attached, every device's write channel booked.
func BenchmarkPlaceBlock(b *testing.B) {
	c := cluster.MustNew(sim.NewEngine(), cluster.Config{
		Workers: 4, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec(),
	})
	plane := storage.NewContendedPlane(storage.PlaneConfig{})
	for _, n := range c.Nodes() {
		for _, m := range storage.AllMedia {
			for _, d := range n.Devices(m) {
				plane.Serve(storage.IORequest{DeviceID: d.ID(), Media: m, Dir: storage.Write, Bytes: 64 * storage.MB, At: c.Engine().Now()})
			}
		}
	}
	p := &octopusPlacement{cluster: c, rng: rand.New(rand.NewSource(1)), weights: DefaultPlacementWeights(), backlog: plane}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.PlaceBlock(storage.MB, 3); err != nil {
			b.Fatal(err)
		}
	}
}
