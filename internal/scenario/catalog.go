package scenario

import (
	"fmt"
	"sort"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/storage"
	"octostore/internal/workload"
)

// The built-in catalog: five situations beyond the two canned FB/CMU
// traces, each stressing a different failure mode of tiering policies.

// HotSetDrift replays an FB-shaped workload whose Zipf hot set rotates
// through four segments: policies (and learned models) must un-learn a
// previously hot file population.
func HotSetDrift() Scenario {
	return Scenario{
		Name:        "hotset-drift",
		Description: "FB-shaped workload whose popular file set rotates every quarter of the trace",
		Cluster:     DefaultCluster,
		Trace: func(o Options) *workload.Trace {
			p := workload.FB()
			if o.Fast {
				p = FastProfile(p)
			}
			return workload.GenerateDrift(p, 4, o.Seed)
		},
	}
}

// BurstStorm compresses FB arrivals into five-minute storms every half
// hour: queueing explodes at storm fronts while tiers must drain between
// them.
func BurstStorm() Scenario {
	return Scenario{
		Name:        "burst-storm",
		Description: "FB workload with arrivals compressed into periodic storms followed by idle gaps",
		Cluster:     DefaultCluster,
		Trace: func(o Options) *workload.Trace {
			p := workload.FB()
			if o.Fast {
				p = FastProfile(p)
			}
			return workload.Burstify(workload.Generate(p, o.Seed), 30*time.Minute, 5*time.Minute)
		},
	}
}

// MultiTenant interleaves an FB tenant (short-term locality) with a CMU
// tenant (periodic re-scans) under separate namespaces: recency-only and
// frequency-only policies each fit only one tenant.
func MultiTenant() Scenario {
	return Scenario{
		Name:        "multi-tenant",
		Description: "FB and CMU tenants share the cluster under /tenant0 and /tenant1",
		Cluster:     DefaultCluster,
		Trace: func(o Options) *workload.Trace {
			fb := workload.FB()
			cmu := workload.CMU()
			if o.Fast {
				fb, cmu = FastProfile(fb), FastProfile(cmu)
				// Halve each tenant so the mix stays at single-workload scale.
				fb.NumJobs /= 2
				cmu.NumJobs /= 2
			}
			return workload.Merge("multi-tenant",
				workload.Generate(fb, o.Seed),
				workload.Generate(cmu, o.Seed+101))
		},
	}
}

// TenantQoS is the multi-tenant mix under a contended, weighted-fair data
// plane: the FB and CMU tenants carry plane weights 3:1, and a per-tenant
// read surge hits each namespace mid-trace, so device arbitration, tenant
// tagging, and the plane's per-tenant accounting are all exercised inside
// the always-on invariant checker (the replay asserts the plane's tenant
// counters reconcile with the tier totals after every checked event).
func TenantQoS() Scenario {
	return Scenario{
		Name:        "tenant-qos",
		Description: "FB and CMU tenants contend on a weighted-fair data plane with per-tenant read surges",
		Cluster: func(o Options) cluster.Config {
			cfg := DefaultCluster(o)
			cfg.Plane = storage.NewContendedPlane(storage.PlaneConfig{
				Tenants: []storage.TenantWeight{
					{ID: 0, Weight: 3},
					{ID: 1, Weight: 1},
				},
			})
			return cfg
		},
		Trace: func(o Options) *workload.Trace {
			fb := workload.FB()
			cmu := workload.CMU()
			if o.Fast {
				fb, cmu = FastProfile(fb), FastProfile(cmu)
				fb.NumJobs /= 2
				cmu.NumJobs /= 2
			}
			return workload.Merge("tenant-qos",
				workload.Generate(fb, o.Seed),
				workload.Generate(cmu, o.Seed+101))
		},
		Perturb: []Perturbation{
			ClientSurge{Tenant: 0, PathPrefix: "/tenant0", Offset: 10 * time.Minute, Duration: 60 * time.Minute, Clients: 12},
			ClientSurge{Tenant: 1, PathPrefix: "/tenant1", Offset: 15 * time.Minute, Duration: 60 * time.Minute, Clients: 12},
		},
	}
}

// TierCrunch runs the FB workload and floods the cluster with cold ballast
// a third of the way in, forcing the downgrade process to run against live
// traffic.
func TierCrunch() Scenario {
	return Scenario{
		Name:        "capacity-crunch",
		Description: "cold ballast floods the fast tiers mid-workload, forcing downgrades under load",
		Cluster:     DefaultCluster,
		Trace: func(o Options) *workload.Trace {
			p := workload.FB()
			if o.Fast {
				p = FastProfile(p)
			}
			return workload.Generate(p, o.Seed)
		},
		Perturb: []Perturbation{
			CapacityCrunch{
				Offset: 40 * time.Minute,
				// Sized against the Fast cluster (3 GB memory + 24 GB SSD
				// cluster-wide): enough to push the fast tiers through their
				// high watermarks. At paper scale the same ballast is a
				// memory-tier crunch.
				TotalBytes: 6 * storage.GB,
				FileBytes:  256 * storage.MB,
				Parallel:   4,
			},
		},
	}
}

// ConcurrentClients overlays the FB batch workload with a surge of
// interactive read clients: the extra access stream heats the upgrade path
// and the read load contends with movement transfers on the same devices —
// the scenario-DSL counterpart of the octoload driver's concurrent serving
// traffic.
func ConcurrentClients() Scenario {
	return Scenario{
		Name:        "client-surge",
		Description: "interactive read clients surge alongside the batch workload",
		Cluster:     DefaultCluster,
		Trace: func(o Options) *workload.Trace {
			p := workload.FB()
			if o.Fast {
				p = FastProfile(p)
			}
			return workload.Generate(p, o.Seed)
		},
		Perturb: []Perturbation{
			ClientSurge{
				Offset:   20 * time.Minute,
				Duration: 60 * time.Minute,
				Clients:  24,
			},
		},
	}
}

// NodeJoinLeave exercises membership churn: a worker is lost a third of the
// way in (its replicas must be re-replicated) and a fresh empty worker joins
// later (placement must discover and fill it).
func NodeJoinLeave() Scenario {
	return Scenario{
		Name:        "node-churn",
		Description: "one worker fails mid-workload and a fresh worker joins later",
		Cluster: func(o Options) cluster.Config {
			cfg := DefaultCluster(o)
			if o.Workers == 0 && o.Fast {
				// One extra worker so losing one keeps replication targets
				// reachable.
				cfg.Workers = 4
			}
			return cfg
		},
		Trace: func(o Options) *workload.Trace {
			p := workload.FB()
			if o.Fast {
				p = FastProfile(p)
			}
			return workload.Generate(p, o.Seed)
		},
		Perturb: []Perturbation{
			nodeChurnFast{},
		},
	}
}

// nodeChurnFast adapts NodeChurn to the options: the joining worker has
// the node spec of the replay's own topology.
type nodeChurnFast struct{}

func (n nodeChurnFast) Install(rp *Replay) {
	NodeChurn{
		Leave:    []time.Duration{40 * time.Minute},
		Join:     []time.Duration{80 * time.Minute},
		Spec:     DefaultCluster(rp.Opts).Spec,
		Slots:    4,
		MinNodes: 3,
	}.Install(rp)
}

// Catalog returns the built-in scenarios in a stable order.
func Catalog() []Scenario {
	return []Scenario{
		HotSetDrift(),
		BurstStorm(),
		MultiTenant(),
		TenantQoS(),
		TierCrunch(),
		NodeJoinLeave(),
		ConcurrentClients(),
	}
}

// Names lists the catalog scenario names, sorted.
func Names() []string {
	var names []string
	for _, sc := range Catalog() {
		names = append(names, sc.Name)
	}
	sort.Strings(names)
	return names
}

// Get looks a catalog scenario up by name.
func Get(name string) (Scenario, error) {
	for _, sc := range Catalog() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (want one of %v)", name, Names())
}
