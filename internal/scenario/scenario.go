// Package scenario is the declarative replay subsystem: it composes the
// workload generators of internal/workload with cluster perturbations
// (hot-set drift, bursty arrival storms, multi-tenant job mixes, tier
// capacity crunches, node join/leave) and replays the result
// deterministically through the discrete-event engine against any dfs.Mode
// plus core.Manager policy configuration.
//
// Every replay runs with the invariant checker enabled: the cheap capacity
// accounting check (dfs.FileSystem.CheckAccounting, O(#devices)) runs after
// every simulation event, and the deep structural check
// (dfs.FileSystem.CheckInvariants) runs on a configurable event cadence and
// again at the end of the replay. A scenario result therefore certifies not
// only throughput and completion-time metrics but that no replayed event
// corrupted namespace, replica, or capacity state — the property the
// paper's six-hour trace replays silently assume.
//
// Scenarios are data, not code: a Scenario couples a cluster topology, a
// trace constructor, and a perturbation list, so adding a workload shape is
// a catalog entry rather than a new harness (see catalog.go and the README
// section "The scenario DSL").
package scenario

import (
	"fmt"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/eval"
	"octostore/internal/jobs"
	"octostore/internal/ml"
	"octostore/internal/policy"
	"octostore/internal/sim"
	"octostore/internal/storage"
	"octostore/internal/workload"
)

// Options scopes one replay.
type Options struct {
	// Seed drives trace generation, placement, and scheduling draws.
	Seed int64
	// Fast shrinks the workload and cluster for tests and smoke runs.
	Fast bool
	// Workers overrides the scenario's cluster size (0 keeps the default).
	Workers int
	// CheckEvery runs the O(#devices) accounting check after every N-th
	// simulation event (default 1: every event).
	CheckEvery int
	// DeepCheckEvery runs the full structural invariant check every N
	// events (default 20000; <0 disables periodic deep checks — the final
	// deep check always runs).
	DeepCheckEvery int
}

func (o *Options) applyDefaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 1
	}
	if o.DeepCheckEvery == 0 {
		o.DeepCheckEvery = 20000
	}
}

// System selects what the scenario replays against: a dfs mode plus a
// downgrade/upgrade policy pair ("" disables that side; both empty means no
// replication manager at all).
type System struct {
	Name string
	Mode dfs.Mode
	Down string
	Up   string
}

// Managed reports whether the system attaches a replication manager.
func (s System) Managed() bool { return s.Down != "" || s.Up != "" }

// Scenario declares one replayable situation.
type Scenario struct {
	// Name identifies the scenario in catalogs, tables, and flags.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Cluster builds the cluster topology for the options.
	Cluster func(o Options) cluster.Config
	// Trace builds the workload trace for the options.
	Trace func(o Options) *workload.Trace
	// Perturb lists runtime perturbations installed when the job phase
	// starts (after input preload).
	Perturb []Perturbation
}

// Perturbation mutates the running system at scheduled points of the job
// phase. Install is called once, at job-phase start, and must only schedule
// engine callbacks (everything stays deterministic and single-threaded).
type Perturbation interface {
	Install(rp *Replay)
}

// Replay is one system under test as Build wires it. A scenario replay
// also fills Scenario and Opts, and its perturbations receive the Replay to
// reach the engine and the system.
type Replay struct {
	Scenario Scenario
	System   System
	Opts     Options
	Engine   *sim.Engine
	Cluster  *cluster.Cluster
	FS       *dfs.FileSystem
	Manager  *core.Manager // nil for unmanaged systems
}

// Result is the outcome of a replay: workload metrics, policy activity, and
// the invariant-checking record.
type Result struct {
	Scenario string
	System   string

	Jobs           int
	MeanCompletion time.Duration
	P95Completion  time.Duration
	BytesRead      int64
	MemHitRatio    float64
	// WallClock is the virtual duration of the job phase.
	WallClock time.Duration
	// ThroughputMBps is BytesRead over the job-phase virtual duration.
	ThroughputMBps float64

	Upgrades        int64
	Downgrades      int64
	UpgradeErrors   int64
	DowngradeErrors int64
	ReplicaDeletes  int64
	Repairs         int64

	// FinalUtilization is used/capacity per tier (MEM, SSD, HDD) at the end
	// of the replay.
	FinalUtilization [3]float64

	Events           uint64
	AccountingChecks int64
	DeepChecks       int64
	// Violations holds the first invariant violations observed (empty on a
	// healthy replay).
	Violations []string
	// DataLossBlocks counts blocks left with no readable replica at the end
	// of the replay (node churn beyond the replication factor).
	DataLossBlocks int
	// TenantPlane holds the data plane's per-tenant traffic counters when the
	// scenario ran under a multi-tenant contended plane (nil otherwise).
	TenantPlane []storage.TenantPlaneStats
}

// maxRecordedViolations bounds the violation log so a systemic corruption
// does not balloon the result.
const maxRecordedViolations = 5

// LearnerConfig tunes the XGB policies for simulation-scale runs (scenario
// replays and the experiment harness alike): the paper's tree shape, but a
// bounded ensemble so six-hour replays stay cheap.
func LearnerConfig(seed int64) ml.LearnerConfig {
	cfg := ml.DefaultLearnerConfig()
	cfg.Seed = seed
	cfg.Params.MaxTrees = 200
	cfg.MinTrainSamples = 300
	cfg.UpdateBatch = 200
	cfg.UpdateRounds = 3
	return cfg
}

// Build wires sys on a fresh engine over ccfg: the cluster, a file system
// in sys.Mode and, for a managed system, its policy pair under
// LearnerConfig(seed), started. Scenario replays and every experiment of
// the paper's evaluation stand their systems up here; the caller stops
// rp.Manager when its run ends.
func Build(sys System, ccfg cluster.Config, seed int64) (*Replay, error) {
	engine := sim.NewEngine()
	cl, err := cluster.New(engine, ccfg)
	if err != nil {
		return nil, err
	}
	fs, err := dfs.New(cl, dfs.Config{Mode: sys.Mode, Seed: seed, ClientRate: 2000e6})
	if err != nil {
		return nil, err
	}
	rp := &Replay{System: sys, Engine: engine, Cluster: cl, FS: fs}
	if sys.Managed() {
		if rp.Manager, err = policy.NewManager(fs, sys.Down, sys.Up, LearnerConfig(seed)); err != nil {
			return nil, err
		}
		rp.Manager.Start()
	}
	return rp, nil
}

// Run replays the scenario against the system and returns the collected
// result. The replay is deterministic: equal (scenario, system, options)
// yield identical results.
func Run(sc Scenario, sys System, o Options) (*Result, error) {
	o.applyDefaults()
	rp, err := Build(sys, sc.Cluster(o), o.Seed)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	rp.Scenario, rp.Opts = sc, o
	if rp.Manager != nil {
		defer rp.Manager.Stop()
	}
	engine, cl, fs := rp.Engine, rp.Cluster, rp.FS

	res := &Result{Scenario: sc.Name, System: sys.Name}
	record := func(err error) {
		if err != nil && len(res.Violations) < maxRecordedViolations {
			res.Violations = append(res.Violations, err.Error())
		}
	}
	// The always-on invariant checker: sampled accounting checks after
	// every event, deep structural checks on a coarser cadence. The deep
	// pass also audits the manager's incremental candidate indexes against
	// a from-scratch membership recompute, so node churn, re-replication,
	// and tier movement cannot silently leak or strand indexed entries.
	deepCheck := func() {
		res.DeepChecks++
		record(fs.CheckInvariants())
		if rp.Manager != nil {
			record(rp.Manager.Context().Index().Audit())
		}
	}
	// Multi-tenant plane profiles additionally reconcile the plane's
	// per-tenant counters against the tier totals on the same cadence, so a
	// mis-tagged or double-counted request fails the replay at the event
	// that introduced it.
	var planeCheck func() error
	if cp, ok := cl.Plane().(*storage.ContendedPlane); ok && cp.MultiTenant() {
		planeCheck = cp.CheckAccounting
	}
	var sinceLight, sinceDeep int
	engine.SetEventHook(func() {
		sinceLight++
		if sinceLight >= o.CheckEvery {
			sinceLight = 0
			res.AccountingChecks++
			record(fs.CheckAccounting())
			if planeCheck != nil {
				record(planeCheck())
			}
		}
		if o.DeepCheckEvery > 0 {
			sinceDeep++
			if sinceDeep >= o.DeepCheckEvery {
				sinceDeep = 0
				deepCheck()
			}
		}
	})
	defer engine.SetEventHook(nil)

	tr := sc.Trace(o)
	var jobStart time.Time
	stats, err := jobs.Run(fs, tr, jobs.Options{Seed: o.Seed}, func() {
		jobStart = engine.Now()
		for _, p := range sc.Perturb {
			p.Install(rp)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s on %s: %w", sc.Name, sys.Name, err)
	}
	// The final deep check runs regardless of cadence.
	deepCheck()

	res.Jobs = len(stats.Jobs)
	res.Events = engine.Fired()
	res.WallClock = engine.Now().Sub(jobStart)
	var completions []float64
	var sum time.Duration
	for i := range stats.Jobs {
		ct := stats.Jobs[i].CompletionTime()
		sum += ct
		completions = append(completions, ct.Seconds())
	}
	if len(stats.Jobs) > 0 {
		res.MeanCompletion = sum / time.Duration(len(stats.Jobs))
	}
	if len(completions) > 0 {
		res.P95Completion = time.Duration(eval.Quantile(completions, 0.95) * float64(time.Second))
	}
	_, _, _, _, bytes, memBytes := stats.Totals()
	res.BytesRead = bytes
	if bytes > 0 {
		res.MemHitRatio = float64(memBytes) / float64(bytes)
	}
	if secs := res.WallClock.Seconds(); secs > 0 {
		res.ThroughputMBps = float64(bytes) / secs / 1e6
	}
	if rp.Manager != nil {
		m := rp.Manager.Metrics()
		res.Upgrades = m.UpgradesScheduled
		res.Downgrades = m.DowngradesScheduled
		res.UpgradeErrors = m.UpgradeErrors
		res.DowngradeErrors = m.DowngradeErrors
		res.ReplicaDeletes = m.ReplicaDeletes
		res.Repairs = rp.Manager.Monitor().Repairs()
	}
	for _, media := range storage.AllMedia {
		res.FinalUtilization[media] = cl.TierUtilization(media)
	}
	if cp, ok := cl.Plane().(*storage.ContendedPlane); ok && cp.MultiTenant() {
		res.TenantPlane = cp.TenantStats()
	}
	for _, f := range fs.LiveFiles() {
		if !fs.Complete(f) {
			continue
		}
		for _, b := range f.Blocks() {
			if b.ReadableReplicas() == 0 {
				res.DataLossBlocks++
			}
		}
	}
	return res, nil
}

// DefaultCluster returns the standard replay topology: the paper's testbed
// at full scale; in Fast mode 3 shrunken workers whose nodes still produce
// memory-tier pressure at a fraction of the event count.
func DefaultCluster(o Options) cluster.Config {
	cfg := cluster.PaperConfig()
	if o.Fast {
		cfg = cluster.Config{Workers: 3, SlotsPerNode: 4,
			Spec: storage.PaperMediaSpec(1*storage.GB, 8*storage.GB, 64*storage.GB, 2)}
	}
	if o.Workers > 0 {
		cfg.Workers = o.Workers
	}
	return cfg
}

// FastProfile shrinks a workload profile for Fast runs, scenario replays
// and experiments alike: a fifth of the jobs over two hours, with job sizes
// capped at bin D so files fit the shrunken cluster.
func FastProfile(p workload.Profile) workload.Profile {
	p.NumJobs /= 5
	p.Duration = 2 * time.Hour
	return workload.CapProfile(p, workload.BinD)
}
