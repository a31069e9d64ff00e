package scenario

import (
	"reflect"
	"testing"
	"time"

	"octostore/internal/dfs"
	"octostore/internal/jobs"
	"octostore/internal/storage"
	"octostore/internal/workload"
)

func fastOpts() Options { return Options{Fast: true, Seed: 1} }

func xgbSystem() System {
	return System{Name: "XGB", Mode: dfs.ModeOctopus, Down: "xgb", Up: "xgb"}
}

// TestCatalogReplaysCleanly replays every catalog scenario against both an
// unmanaged OctopusFS baseline and the managed XGB system: jobs must
// complete, the always-on invariant checker must run and find nothing, and
// no block may lose its last replica.
func TestCatalogReplaysCleanly(t *testing.T) {
	systems := []System{
		{Name: "OctopusFS", Mode: dfs.ModeOctopus},
		xgbSystem(),
	}
	for _, sc := range Catalog() {
		for _, sys := range systems {
			res, err := Run(sc, sys, fastOpts())
			if err != nil {
				t.Fatalf("%s on %s: %v", sc.Name, sys.Name, err)
			}
			if res.Jobs == 0 {
				t.Fatalf("%s on %s: no jobs ran", sc.Name, sys.Name)
			}
			if res.AccountingChecks == 0 || res.DeepChecks == 0 {
				t.Fatalf("%s on %s: invariant checker did not run (acct=%d deep=%d)",
					sc.Name, sys.Name, res.AccountingChecks, res.DeepChecks)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("%s on %s: invariant violations: %v", sc.Name, sys.Name, res.Violations)
			}
			if res.DataLossBlocks != 0 {
				t.Fatalf("%s on %s: %d blocks lost all replicas", sc.Name, sys.Name, res.DataLossBlocks)
			}
			if res.BytesRead == 0 || res.ThroughputMBps <= 0 {
				t.Fatalf("%s on %s: no data read (bytes=%d tput=%f)",
					sc.Name, sys.Name, res.BytesRead, res.ThroughputMBps)
			}
		}
	}
}

// TestReplayDeterministic requires byte-identical results for equal
// (scenario, system, options) triples — the property the paper's replays
// (and every future regression comparison) depend on.
func TestReplayDeterministic(t *testing.T) {
	for _, sc := range Catalog() {
		a, err := Run(sc, xgbSystem(), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(sc, xgbSystem(), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: replay not deterministic:\n  first:  %+v\n  second: %+v", sc.Name, a, b)
		}
	}
}

// TestSeedChangesOutcome guards against accidentally ignoring the seed.
func TestSeedChangesOutcome(t *testing.T) {
	a, err := Run(HotSetDrift(), xgbSystem(), Options{Fast: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(HotSetDrift(), xgbSystem(), Options{Fast: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Events == b.Events && a.MeanCompletion == b.MeanCompletion {
		t.Fatal("different seeds produced identical replays")
	}
}

// TestNodeChurnTriggersRepair checks the churn pipeline end to end: the
// failed worker's replicas must surface as under-replicated and the
// replication monitor must re-replicate them.
func TestNodeChurnTriggersRepair(t *testing.T) {
	res, err := Run(NodeJoinLeave(), xgbSystem(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Repairs == 0 {
		t.Fatal("node loss triggered no re-replication")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("churn violated invariants: %v", res.Violations)
	}
}

// TestCapacityCrunchCrowdsTiers checks that the ballast flood actually
// lands: tier occupancy over the job phase is higher than the plain FB
// replay's, and the crowded memory tier costs hit ratio. Occupancy is a
// time-weighted mean, not the last instant's: the memory tier swings through
// its watermark cycle to the end, so where that cycle stops says nothing.
func TestCapacityCrunchCrowdsTiers(t *testing.T) {
	plain := TierCrunch()
	plain.Perturb = nil
	crunchUtil, crunchHit := jobPhaseUtilization(t, TierCrunch(), fastOpts())
	baseUtil, baseHit := jobPhaseUtilization(t, plain, fastOpts())
	if crunchUtil <= baseUtil {
		t.Fatalf("crunch utilization %.3f not above baseline %.3f", crunchUtil, baseUtil)
	}
	if crunchHit >= baseHit {
		t.Fatalf("crunch hit ratio %.3f did not drop below baseline %.3f", crunchHit, baseHit)
	}
}

// jobPhaseUtilization replays sc on the XGB system the way Run does and
// returns the sum of the three tiers' utilisations averaged over the job
// phase's virtual time (each value holds from the event that set it to the
// next), with the memory hit ratio Run reports.
func jobPhaseUtilization(t *testing.T, sc Scenario, o Options) (meanUtil, memHit float64) {
	t.Helper()
	o.applyDefaults()
	rp, err := Build(xgbSystem(), sc.Cluster(o), o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Manager.Stop()
	rp.Scenario, rp.Opts = sc, o
	engine := rp.Engine
	util := func() (sum float64) {
		for _, m := range storage.AllMedia {
			sum += rp.Cluster.TierUtilization(m)
		}
		return sum
	}
	var start, last time.Time
	var cur, area float64
	hold := func() {
		now := engine.Now()
		area += cur * now.Sub(last).Seconds()
		last = now
	}
	stats, err := jobs.Run(rp.FS, sc.Trace(o), jobs.Options{Seed: o.Seed}, func() {
		start, last, cur = engine.Now(), engine.Now(), util()
		engine.SetEventHook(func() { hold(); cur = util() })
		for _, p := range sc.Perturb {
			p.Install(rp)
		}
	})
	engine.SetEventHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	hold()
	_, _, _, _, bytes, memBytes := stats.Totals()
	if bytes == 0 || !last.After(start) {
		t.Fatalf("%s: empty job phase (%d bytes read)", sc.Name, bytes)
	}
	return area / last.Sub(start).Seconds(), float64(memBytes) / float64(bytes)
}

// TestPerturbationsScheduleOnly ensures Install never mutates the system
// synchronously: everything must flow through engine events.
func TestPerturbationsScheduleOnly(t *testing.T) {
	sc := NodeJoinLeave()
	res, err := Run(sc, System{Name: "plain", Mode: dfs.ModeOctopus}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Unmanaged system: node loss is not repaired, but invariants must
	// still hold (lost replicas are accounted, not leaked).
	if len(res.Violations) != 0 {
		t.Fatalf("unmanaged churn violated invariants: %v", res.Violations)
	}
}

// TestTenantQoSAccountsPerTenant replays the tenant-qos scenario and checks
// the multi-tenant plane wiring end to end: the per-event accounting hook
// (tenant counters vs tier totals) found nothing, both tenants actually
// drove tagged traffic through the weighted-fair plane, and the surge load
// queued somewhere (the contended profile is not a no-op).
func TestTenantQoSAccountsPerTenant(t *testing.T) {
	res, err := Run(TenantQoS(), xgbSystem(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("tenant-qos violated invariants: %v", res.Violations)
	}
	if len(res.TenantPlane) != 2 {
		t.Fatalf("want plane stats for 2 tenants, got %+v", res.TenantPlane)
	}
	var queued time.Duration
	for _, ts := range res.TenantPlane {
		if ts.Requests == 0 || ts.Bytes == 0 {
			t.Fatalf("tenant %d drove no plane traffic: %+v", ts.Tenant, ts)
		}
		queued += ts.AvgQueue
	}
	if queued == 0 {
		t.Fatal("no tenant ever queued: contended plane profile is a no-op")
	}
}

func TestCatalogLookup(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("catalog has %d scenarios, want 7: %v", len(names), names)
	}
	for _, name := range names {
		sc, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name != name {
			t.Fatalf("Get(%q) returned %q", name, sc.Name)
		}
		if sc.Description == "" || sc.Cluster == nil || sc.Trace == nil {
			t.Fatalf("scenario %q incomplete", name)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestCustomScenario exercises the DSL the README documents: a user-defined
// scenario composed from existing generators and perturbations.
func TestCustomScenario(t *testing.T) {
	sc := Scenario{
		Name:        "custom",
		Description: "burstified CMU with a mid-run crunch",
		Cluster:     DefaultCluster,
		Trace: func(o Options) *workload.Trace {
			p := FastProfile(workload.CMU())
			p.NumJobs = 60
			return workload.Burstify(workload.Generate(p, o.Seed), 20*time.Minute, 4*time.Minute)
		},
		Perturb: []Perturbation{
			// FileBytes deliberately omitted: the perturbation must apply
			// its own default rather than divide by zero.
			CapacityCrunch{Offset: 30 * time.Minute, TotalBytes: storage.GB},
		},
	}
	res, err := Run(sc, xgbSystem(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 60 {
		t.Fatalf("jobs = %d, want 60", res.Jobs)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}
