package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"octostore/internal/dfs"
	"octostore/internal/storage"
)

// CapacityCrunch floods the cluster with cold ballast data partway through
// the job phase: TotalBytes of never-read files are created starting at
// Offset, in FileBytes pieces at Parallel concurrent streams. Under tiered
// placement the ballast lands on the fastest tiers with room, shoving
// utilization over the high watermark and forcing the downgrade process to
// run while the workload is still reading — the tier-capacity-crunch
// situation of Section 5.
type CapacityCrunch struct {
	Offset     time.Duration
	TotalBytes int64
	FileBytes  int64
	Parallel   int
}

// Install implements Perturbation.
func (c CapacityCrunch) Install(rp *Replay) {
	fileBytes := c.FileBytes
	if fileBytes <= 0 {
		fileBytes = 256 * storage.MB
	}
	files := int(c.TotalBytes / fileBytes)
	if files < 1 {
		files = 1
	}
	parallel := c.Parallel
	if parallel <= 0 {
		parallel = 4
	}
	rp.Engine.Schedule(c.Offset, func() {
		next := 0
		var launch func()
		launch = func() {
			if next >= files {
				return
			}
			idx := next
			next++
			// Creation failures (a genuinely full cluster) are the point of
			// the crunch, not an error; keep pushing.
			rp.FS.Create(fmt.Sprintf("/ballast/b%04d", idx), fileBytes, func(_ *dfs.File, _ error) {
				launch()
			})
		}
		for i := 0; i < parallel; i++ {
			launch()
		}
	})
}

// ClientSurge models a population of interactive clients hammering the
// file system with reads alongside the batch workload: Clients closed-loop
// virtual clients each repeatedly pick a random live file under PathPrefix
// (any live file when it is empty), record the access (firing the upgrade
// hook, exactly like the serving layer's access path), read one random
// block from a random node, and think for a random interval. Every access
// is Tenant's: the file system's active tenant is scoped around it, so its
// data-plane charges are tagged and a multi-tenant replay exercises
// weighted-fair arbitration and the plane's per-tenant accounting. The
// surge runs from Offset for Duration. Everything is engine-scheduled from
// a seeded RNG, so the "concurrency" is virtual-time interleaving and the
// replay stays deterministic — the scenario-DSL mirror of what
// cmd/octoload does with real goroutines against internal/server.
type ClientSurge struct {
	Tenant     storage.TenantID
	PathPrefix string
	Offset     time.Duration
	Duration   time.Duration
	Clients    int
	// ThinkMin/Max bound each client's pause between requests (defaults
	// 1s/15s).
	ThinkMin, ThinkMax time.Duration
	// Seed offsets the per-client RNG streams (0 uses the replay seed plus
	// Tenant*7919).
	Seed int64
}

// Install implements Perturbation.
func (c ClientSurge) Install(rp *Replay) {
	clients := c.Clients
	if clients <= 0 {
		clients = 16
	}
	thinkMin, thinkMax := c.ThinkMin, c.ThinkMax
	if thinkMin <= 0 {
		thinkMin = time.Second
	}
	if thinkMax <= thinkMin {
		thinkMax = thinkMin + 14*time.Second
	}
	seed := c.Seed
	if seed == 0 {
		seed = rp.Opts.Seed + int64(c.Tenant)*7919
	}
	rp.Engine.Schedule(c.Offset, func() {
		end := rp.Engine.Now().Add(c.Duration)
		for i := 0; i < clients; i++ {
			rng := rand.New(rand.NewSource(seed + int64(i)*9176 + 311))
			var under []*dfs.File // this client's PathPrefix filter, reused
			var loop func()
			loop = func() {
				if rp.Engine.Now().After(end) {
					return
				}
				files := rp.FS.LiveFiles()
				if c.PathPrefix != "" {
					under = under[:0]
					for _, f := range files {
						if strings.HasPrefix(f.Path(), c.PathPrefix) {
							under = append(under, f)
						}
					}
					files = under
				}
				if len(files) > 0 {
					f := files[rng.Intn(len(files))]
					if !f.Deleted() && rp.FS.Complete(f) && len(f.Blocks()) > 0 {
						// RecordAccess, not ServeRead: the ReadBlock below is
						// this client's data-plane charge (startTransfer);
						// charging a whole-file ServeRead too would book the
						// device channel twice for one logical read.
						rp.FS.SetActiveTenant(c.Tenant)
						rp.FS.RecordAccess(f)
						b := f.Blocks()[rng.Intn(len(f.Blocks()))]
						nodes := rp.Cluster.Nodes()
						rp.FS.ReadBlock(b, nodes[rng.Intn(len(nodes))], nil)
						rp.FS.SetActiveTenant(storage.DefaultTenant)
					}
				}
				think := thinkMin + time.Duration(rng.Int63n(int64(thinkMax-thinkMin)+1))
				rp.Engine.Schedule(think, loop)
			}
			// Stagger client starts across the first think window.
			rp.Engine.Schedule(time.Duration(rng.Int63n(int64(thinkMin))+1), loop)
		}
	})
}

// NodeChurn removes and adds workers during the job phase: at every Leave
// offset the highest-id surviving worker fails (its replicas are lost and
// repaired by the replication monitor, when one is attached), and at every
// Join offset a fresh worker with the given spec joins. At least MinNodes
// workers always survive.
type NodeChurn struct {
	Leave    []time.Duration
	Join     []time.Duration
	Spec     storage.NodeSpec
	Slots    int
	MinNodes int
}

// Install implements Perturbation.
func (n NodeChurn) Install(rp *Replay) {
	minNodes := n.MinNodes
	if minNodes < 2 {
		minNodes = 2
	}
	for _, at := range n.Leave {
		rp.Engine.Schedule(at, func() {
			nodes := rp.Cluster.Nodes()
			if len(nodes) <= minNodes {
				return
			}
			// Deterministic victim: the highest-id worker still alive.
			victim := nodes[0]
			for _, nd := range nodes[1:] {
				if nd.ID() > victim.ID() {
					victim = nd
				}
			}
			rp.FS.FailNode(victim)
		})
	}
	for _, at := range n.Join {
		rp.Engine.Schedule(at, func() {
			rp.FS.AddNode(n.Spec, n.Slots)
		})
	}
}
