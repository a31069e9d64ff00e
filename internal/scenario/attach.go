package scenario

// This file lets external drivers attach to a catalog scenario instead of
// replaying it themselves: cmd/octoload stands its concurrent serving layer
// on top of a scenario's cluster topology and file population, then calls
// Attach so the scenario's perturbations (ballast floods, node churn,
// client surges) run against the served system while real client goroutines
// hammer it — surge load and perturbations compose into one report.

// Attach installs every perturbation of the scenario onto an externally
// built replay. The caller owns the Replay's fields (engine, cluster, file
// system, optional manager) and must invoke Attach from whatever context
// owns the engine — for the serving layer that is the shard loop, via
// ShardedServer.Exec — because perturbations schedule engine callbacks
// directly.
func Attach(sc Scenario, rp *Replay) {
	rp.Scenario = sc
	for _, p := range sc.Perturb {
		p.Install(rp)
	}
}
