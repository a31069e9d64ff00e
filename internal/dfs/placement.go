package dfs

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/storage"
)

// writeHorizons is the data plane's per-device queue-horizon view, read by
// read steering (FileSystem.backlog) and write placement alike. A contended
// plane exposes it; nil plane and NopPlane do not, keeping plane-less reads
// and placement bit for bit.
type writeHorizons interface {
	Horizon(deviceID string, dir storage.Direction) time.Time
}

// Target is one chosen destination for a block replica.
type Target struct {
	Node   *cluster.Node
	Device *storage.Device
}

// PlacementPolicy decides where the replicas of a new block are stored.
// Implementations must return targets on distinct nodes (fault tolerance).
type PlacementPolicy interface {
	// PlaceBlock returns up to `replication` targets for a block of the
	// given size. Fewer targets than requested may be returned when the
	// cluster lacks space; zero targets is an error. The returned slice is
	// scratch storage owned by the policy: it is only valid until the next
	// PlaceBlock call.
	PlaceBlock(size int64, replication int) ([]Target, error)
}

// targetsHaveNode reports whether a node already received a replica.
func targetsHaveNode(targets []Target, nodeID int) bool {
	for _, t := range targets {
		if t.Node.ID() == nodeID {
			return true
		}
	}
	return false
}

// octopusPlacement reproduces the OctopusFS multi-objective block placement
// (Section 5.3 / [29]): each replica destination is scored on throughput,
// data balancing, and load balancing, with fault tolerance enforced by the
// distinct-node constraint and a tier-diversity term that spreads a block's
// replicas across media (the behaviour visible in Figure 1(b): one replica
// in memory, one on SSD, one on HDD while space lasts).
type octopusPlacement struct {
	cluster *cluster.Cluster
	rng     *rand.Rand
	weights PlacementWeights
	scratch []Target         // reused PlaceBlock result buffer
	cands   []placeCandidate // reused PlaceBlock candidate buffer
	// backlog, when a horizon-exposing plane is attached, feeds the write
	// backlog each candidate device has already queued into the score, so
	// new replicas steer away from saturated devices (the write-side twin
	// of pickReadReplica's read steering). Nil skips the term entirely.
	backlog writeHorizons
}

// PlacementWeights are the relative objective weights of the OctopusFS
// placement score. The defaults make tier throughput the dominant term,
// with diversity strong enough that a block's second replica prefers the
// next tier down over a second memory replica.
type PlacementWeights struct {
	Throughput float64
	DataBal    float64
	LoadBal    float64
	Diversity  float64
	// Backlog penalizes devices whose write channel the data plane reports
	// as queued up: the penalty approaches Backlog as the device's pending
	// write horizon grows past a second. Only in effect when a
	// horizon-exposing plane is attached; otherwise the term is skipped, so
	// plane-less placement is unchanged at any weight.
	Backlog float64
}

// DefaultPlacementWeights returns the weights used across the evaluation.
func DefaultPlacementWeights() PlacementWeights {
	return PlacementWeights{Throughput: 1.0, DataBal: 0.6, LoadBal: 0.3, Diversity: 2.0, Backlog: 1.0}
}

// mediaSpeed normalises a media's write bandwidth into (0, 1].
func mediaSpeed(m storage.Media) float64 {
	switch m {
	case storage.Memory:
		return 1.0
	case storage.SSD:
		return 0.45
	default:
		return 0.15
	}
}

// placeCandidate is one (node, media) pair able to take a replica, with
// the parts of its score that do not change while one block is placed.
type placeCandidate struct {
	node    *cluster.Node
	dev     *storage.Device
	media   storage.Media
	base    float64 // throughput + data-balance + load-balance terms
	backlog float64 // the write-backlog penalty, 0 without a plane
}

// PlaceBlock scores every (node, media) pair once: the device each node
// would pick, its utilization, load and write backlog are all fixed until
// the block is written. Each replica round then only charges the
// diversity term for the media already used, visiting the candidates in
// the same order and subtracting in the same order as a per-round
// rescoring would, so every score and tie-break is the same.
func (p *octopusPlacement) PlaceBlock(size int64, replication int) ([]Target, error) {
	nodes := p.cluster.Nodes()
	targets := p.scratch[:0]
	start := p.rng.Intn(len(nodes))
	var now time.Time
	if p.backlog != nil {
		now = p.cluster.Engine().Now()
	}
	cands := p.cands[:0]
	for i := 0; i < len(nodes); i++ {
		n := nodes[(start+i)%len(nodes)]
		for _, media := range storage.AllMedia {
			d := n.PickDevice(media, size)
			if d == nil {
				continue
			}
			c := placeCandidate{node: n, dev: d, media: media}
			c.base = p.weights.Throughput * mediaSpeed(media)
			c.base += p.weights.DataBal * (1 - d.Utilization())
			c.base += p.weights.LoadBal / float64(1+d.Load())
			if p.backlog != nil {
				// Saturation-aware placement: devices whose write channel
				// the plane has already booked out score down, bounded so
				// a deep queue defers to the diversity/throughput terms
				// rather than overriding them outright.
				if wait := p.backlog.Horizon(d.ID(), storage.Write).Sub(now); wait > 0 {
					ws := wait.Seconds()
					c.backlog = p.weights.Backlog * ws / (ws + 1)
				}
			}
			cands = append(cands, c)
		}
	}
	p.cands = cands
	var usedMedia [3]int // indexed by storage.Media
	for len(targets) < replication {
		best := -1
		bestScore := math.Inf(-1)
		for i := range cands {
			c := &cands[i]
			if targetsHaveNode(targets, c.node.ID()) {
				continue
			}
			score := c.base - p.weights.Diversity*float64(usedMedia[c.media])
			score -= c.backlog
			if score > bestScore {
				bestScore = score
				best = i
			}
		}
		if best < 0 {
			break // out of eligible nodes or space
		}
		usedMedia[cands[best].media]++
		targets = append(targets, Target{Node: cands[best].node, Device: cands[best].dev})
	}
	p.scratch = targets
	if len(targets) == 0 {
		return nil, fmt.Errorf("%w: %d bytes on any tier", ErrNoCapacity, size)
	}
	return targets, nil
}

// pinnedPlacement places every replica on a fixed media, on distinct nodes
// chosen with a random rotor for balance. On HDD it is stock HDFS, and the
// start layout of the upgrade-policy isolation experiment (Section 7.4).
type pinnedPlacement struct {
	cluster *cluster.Cluster
	rng     *rand.Rand
	media   storage.Media
	scratch []Target // reused PlaceBlock result buffer
}

func (p *pinnedPlacement) PlaceBlock(size int64, replication int) ([]Target, error) {
	nodes := p.cluster.Nodes()
	start := p.rng.Intn(len(nodes))
	targets := p.scratch[:0]
	for i := 0; i < len(nodes) && len(targets) < replication; i++ {
		n := nodes[(start+i)%len(nodes)]
		if d := n.PickDevice(p.media, size); d != nil {
			targets = append(targets, Target{Node: n, Device: d})
		}
	}
	p.scratch = targets
	if len(targets) == 0 {
		return nil, fmt.Errorf("%w: %d bytes on %s tier", ErrNoCapacity, size, p.media)
	}
	return targets, nil
}
