package policy_test

// Differential equivalence tests: for every indexed downgrade policy the
// new SelectFile must pick exactly the file the retired linear scan would
// have picked, at every decision point of a replayed workload — the linear
// implementations are retained on the policies as test-only oracles. The
// same harness cross-checks the indexed LRUFiles / UpgradeCandidates
// collections against their scan-and-sort oracles, and validates index
// maintenance under node churn and re-replication.

import (
	"fmt"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/jobs"
	"octostore/internal/ml"
	"octostore/internal/policy"
	"octostore/internal/scenario"
	"octostore/internal/sim"
	"octostore/internal/storage"
	"octostore/internal/workload"
)

// linearSelector is the oracle interface the indexed policies retain.
type linearSelector interface {
	SelectFileLinear(tier storage.Media) *dfs.File
}

// checkedDowngrade wraps a downgrade policy and asserts, on every
// selection, that the indexed pick equals the linear oracle's pick. It
// optionally cross-checks the context's indexed candidate collections.
type checkedDowngrade struct {
	core.DowngradePolicy
	oracle linearSelector
	ctx    *core.Context
	t      *testing.T

	checkLists bool
	bufA, bufB []*dfs.File
	checks     int

	// XGB only: selections made with the model serving, and the length of
	// the current burst (selections at one virtual instant)
	served  int
	burst   int
	burstAt time.Time
}

func (c *checkedDowngrade) SelectFile(tier storage.Media) *dfs.File {
	got := c.DowngradePolicy.SelectFile(tier)
	want := c.oracle.SelectFileLinear(tier)
	c.checks++
	if got != want {
		c.t.Errorf("%s.SelectFile(%v) diverged: indexed %s, linear %s",
			c.DowngradePolicy.Name(), tier, fileName(got), fileName(want))
	}
	if c.checkLists {
		c.compareLists(tier)
	}
	if xgb, ok := c.DowngradePolicy.(*policy.XGBDown); ok {
		c.checkWindow(xgb)
	}
	return got
}

// checkWindow bounds the XGB burst window by the burst it serves: it holds
// at most 2·CandidateK files, the first selection from it scores at most
// CandidateK of them and every further one replaces the file just moved with
// one newcomer.
func (c *checkedDowngrade) checkWindow(xgb *policy.XGBDown) {
	if now := c.ctx.Clock.Now(); !now.Equal(c.burstAt) {
		c.burst, c.burstAt = 0, now
	}
	c.burst++
	if xgb.Pipeline().Learner.Ready() {
		c.served++
	}
	files, scored := xgb.WindowLen()
	if limit := 2 * c.ctx.Cfg.CandidateK; files > limit {
		c.t.Errorf("XGB window holds %d files at selection %d of a burst, want at most %d", files, c.burst, limit)
	}
	if limit := c.ctx.Cfg.CandidateK + c.burst; scored > limit {
		c.t.Errorf("XGB window holds %d scores at selection %d of a burst, want at most %d", scored, c.burst, limit)
	}
}

// Tick forwards the manager's periodic tick, which the embedded interface
// does not carry, so a wrapped XGB policy keeps sampling files for training.
func (c *checkedDowngrade) Tick() {
	if t, ok := c.DowngradePolicy.(core.Ticker); ok {
		t.Tick()
	}
}

func (c *checkedDowngrade) compareLists(tier storage.Media) {
	const k = 200
	c.bufA = c.ctx.LRUFilesInto(c.bufA[:0], tier, k)
	c.bufB = policy.LRUFilesLinear(c.ctx, c.bufB[:0], tier, k)
	if !sameFiles(c.bufA, c.bufB) {
		c.t.Errorf("LRUFiles(%v, %d) diverged: indexed %d files, linear %d files", tier, k, len(c.bufA), len(c.bufB))
	}
	c.bufA = c.ctx.UpgradeCandidatesInto(c.bufA[:0], k)
	c.bufB = policy.UpgradeCandidatesLinear(c.ctx, c.bufB[:0], k)
	if !sameFiles(c.bufA, c.bufB) {
		c.t.Errorf("UpgradeCandidates(%d) diverged: indexed %d files, linear %d files", k, len(c.bufA), len(c.bufB))
	}
}

func sameFiles(a, b []*dfs.File) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fileName(f *dfs.File) string {
	if f == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s(id=%d)", f.Path(), f.ID())
}

// replayTrace is a shrunken FB workload that still overflows the small
// cluster's memory tier, so the downgrade process fires continuously.
func replayTrace(seed int64) *workload.Trace {
	p := scenario.FastProfile(workload.FB())
	p.Duration = time.Hour
	return workload.Generate(p, seed)
}

func replayCluster(e *sim.Engine) *cluster.Cluster {
	spec := storage.PaperMediaSpec(1*storage.GB, 8*storage.GB, 64*storage.GB, 2)
	return cluster.MustNew(e, cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: spec})
}

// runDifferential replays the workload with the named downgrade policy
// wrapped in the divergence checker; perturb (optional) is installed at
// job-phase start.
func runDifferential(t *testing.T, name string, checkLists bool, perturb func(*sim.Engine, *dfs.FileSystem)) (*checkedDowngrade, *core.Context) {
	t.Helper()
	return runDifferentialWith(t, name, core.DefaultConfig(), checkLists, perturb)
}

// runDifferentialWith is runDifferential under a given core configuration.
func runDifferentialWith(t *testing.T, name string, cfg core.Config, checkLists bool, perturb func(*sim.Engine, *dfs.FileSystem)) (*checkedDowngrade, *core.Context) {
	t.Helper()
	e := sim.NewEngine()
	c := replayCluster(e)
	fs := dfs.MustNew(c, dfs.Config{Mode: dfs.ModeOctopus, Seed: 11, ClientRate: 2000e6})
	ctx := core.NewContext(fs, cfg)
	lcfg := ml.DefaultLearnerConfig()
	down, err := policy.NewDowngrade(name, ctx, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, ok := down.(linearSelector)
	if !ok {
		t.Fatalf("policy %s does not retain a linear oracle", name)
	}
	if checkLists {
		// Enable the collections the checker cross-validates even when the
		// policy under test does not require them itself.
		ctx.Index().RequireRecency()
		ctx.Index().RequireUpgradeMRU()
	}
	checked := &checkedDowngrade{DowngradePolicy: down, oracle: oracle, ctx: ctx, t: t, checkLists: checkLists}
	mgr := core.NewManager(ctx, checked, nil)
	mgr.Start()
	defer mgr.Stop()
	_, err = jobs.Run(fs, replayTrace(11), jobs.Options{Seed: 11}, func() {
		if perturb != nil {
			perturb(e, fs)
		}
	})
	if err != nil {
		t.Fatalf("replay with %s: %v", name, err)
	}
	if err := ctx.Index().Audit(); err != nil {
		t.Errorf("index audit after replay: %v", err)
	}
	return checked, ctx
}

// TestDifferentialSelectFile replays the workload once per indexed policy
// and requires indexed selection to match the linear oracle at every
// decision point.
func TestDifferentialSelectFile(t *testing.T) {
	if testing.Short() {
		t.Skip("workload replays in non-short mode only")
	}
	for _, name := range []string{"lru", "lfu", "lrfu", "exd"} {
		name := name
		t.Run(name, func(t *testing.T) {
			checked, _ := runDifferential(t, name, name == "lru", nil)
			if checked.checks < 50 {
				t.Fatalf("only %d selection points exercised; workload too tame to trust the equivalence", checked.checks)
			}
			t.Logf("%s: %d selections compared", name, checked.checks)
		})
	}
}

// TestXGBDownMemoMatchesUncached replays the workload, once undisturbed and
// once under node churn, under the XGB downgrade policy: at every selection
// the windowed choice must be the one the uncached oracle makes by scoring
// all candidates afresh, and the window must stay within its burst. Most
// selections must happen with the model serving, or the LRU fallback is all
// that was compared.
func TestXGBDownMemoMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("workload replays in non-short mode only")
	}
	for name, perturb := range map[string]func(*sim.Engine, *dfs.FileSystem){"steady": nil, "node-churn": nodeChurn} {
		perturb := perturb
		t.Run(name, func(t *testing.T) {
			// The replay lasts an hour: a model of "accessed within six
			// hours" would never see a labelled sample.
			cfg := core.DefaultConfig()
			cfg.DowngradeWindow = 10 * time.Minute
			checked, _ := runDifferentialWith(t, "xgb", cfg, false, perturb)
			if checked.checks < 50 || checked.served < checked.checks/2 {
				t.Fatalf("%d selections compared, %d with the model serving; too few to trust the equivalence", checked.checks, checked.served)
			}
			t.Logf("%d selections compared, %d with the model serving", checked.checks, checked.served)
		})
	}
}

// nodeChurn fails the highest-numbered worker five minutes into the job
// phase and joins a fresh one ten minutes later.
func nodeChurn(e *sim.Engine, fs *dfs.FileSystem) {
	e.Schedule(5*time.Minute, func() {
		nodes := fs.Cluster().Nodes()
		victim := nodes[0]
		for _, n := range nodes[1:] {
			if n.ID() > victim.ID() {
				victim = n
			}
		}
		fs.FailNode(victim)
	})
	e.Schedule(15*time.Minute, func() {
		fs.AddNode(storage.PaperMediaSpec(1*storage.GB, 8*storage.GB, 64*storage.GB, 2), 4)
	})
}

// TestIndexUnderNodeChurn fails a worker mid-replay and joins a fresh one,
// then requires (a) the indexed selections to keep matching the oracle
// throughout, and (b) every index — the context structures and its
// weight heaps — to audit clean against a from-scratch
// membership recompute: FailNode teardown and monitor re-replication must
// evict and re-home entries without leaking.
func TestIndexUnderNodeChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("workload replays in non-short mode only")
	}
	// runDifferential ends with the index audit, the weight heaps included.
	checked, _ := runDifferential(t, "lrfu", false, nodeChurn)
	if checked.checks < 50 {
		t.Fatalf("only %d selection points exercised", checked.checks)
	}
}

// TestScenarioReplayAuditsIndexes replays the node-churn catalog scenario
// against the managed XGB system: scenario.Run wires the candidate-index
// audit into its deep invariant checks, so a clean result certifies index
// consistency at every checkpoint of the churn replay.
func TestScenarioReplayAuditsIndexes(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay in non-short mode only")
	}
	sc, err := scenario.Get("node-churn")
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(sc, scenario.System{Name: "XGB", Mode: dfs.ModeOctopus, Down: "xgb", Up: "xgb"},
		scenario.Options{Seed: 1, Fast: true, DeepCheckEvery: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("invariant/index violations during churn replay: %v", res.Violations)
	}
	if res.DeepChecks < 2 {
		t.Fatalf("deep checks = %d, want the periodic cadence to fire", res.DeepChecks)
	}
}
