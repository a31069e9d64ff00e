package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"octostore/internal/backend"
	"octostore/internal/dfs"
	"octostore/internal/workload"
)

// testConfig is octoload's flag defaults at a scale that runs in well under a
// second.
func testConfig() Config {
	return Config{
		Clients: 4, Dur: 300 * time.Millisecond, Files: 40, Workload: "fb", FileSizeMB: 1,
		Zipf: 1.1, ReadFrac: 0.82, StatFrac: 0.10,
		Workers: 5, MemCapMB: 256, SSDCapMB: 16 * 1024, HDDCapMB: 128 * 1024,
		Down: "lru", Up: "osa", TimeScale: 120, Seed: 1,
		Arrival: "closed", Window: 100 * time.Millisecond, Drain: 10 * time.Second,
		Shards: 1, MoveQueue: 64, BudgetMB: [3]int64{512, 1024, 2048},
		Dataplane: "none", Backend: "sim",
	}
}

func testPopulation(c *Config) *population {
	hot, hotDirs := hotFiles(c)
	return newPopulation(generatedFiles(c), hot, hotDirs)
}

// draw takes n ops from a generator, reporting every one as successful.
func draw(g *generator, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
		g.done(ops[i], nil)
	}
	return ops
}

func TestGeneratorIsAPureFunctionOfItsSeed(t *testing.T) {
	c := testConfig()
	pop := testPopulation(&c)
	a := draw(newGenerator(&c, pop, 3, 42), 2000)
	b := draw(newGenerator(&c, pop, 3, 42), 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generators with one seed produced different op sequences")
	}
	if reflect.DeepEqual(a, draw(newGenerator(&c, pop, 3, 43), 2000)) {
		t.Fatal("a different seed produced the same op sequence")
	}
	var kinds [4]int
	for _, o := range a {
		kinds[o.kind]++
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("the default mix never produced op kind %d in 2000 draws", k)
		}
	}
}

// The open-loop schedule is the generator's own sequence laid over Poisson
// arrival times: there is no second copy of the op mix to drift.
func TestOpenScheduleDrawsFromTheGenerator(t *testing.T) {
	c := testConfig()
	c.Arrival, c.Rate, c.Dur = "open", 4000, time.Second
	pop := testPopulation(&c)
	schedule := openSchedule(&c, pop)
	if n := float64(len(schedule)); math.Abs(n-4000) > 400 {
		t.Fatalf("scheduled %d arrivals over 1s at rate 4000", len(schedule))
	}
	want := draw(newGenerator(&c, pop, 0, c.Seed*7717), len(schedule))
	var last time.Duration
	for i, so := range schedule {
		if so.op != want[i] {
			t.Fatalf("schedule[%d] = %+v, the generator's op %d is %+v", i, so.op, i, want[i])
		}
		if so.offset < last || so.offset >= c.Dur {
			t.Fatalf("schedule[%d] arrives at %v (previous %v, window %v)", i, so.offset, last, c.Dur)
		}
		last = so.offset
	}
}

// A delete the server refuses as busy leaves the file in place; the
// generator must keep owning it (the parent's closed loop popped the path
// before the delete returned and leaked the file for the rest of the run).
func TestRefusedDeleteKeepsThePath(t *testing.T) {
	c := testConfig()
	c.ReadFrac, c.StatFrac = 0, 0 // creates and deletes only
	g := newGenerator(&c, testPopulation(&c), 0, 7)
	busy := fmt.Errorf("%w: %q", dfs.ErrBusy, "/x")
	live := map[string]bool{}
	for i := 0; i < 1000; i++ {
		o := g.next()
		switch o.kind {
		case opCreate:
			live[o.path] = true
			g.done(o, nil)
		case opDelete:
			if !live[o.path] {
				t.Fatalf("op %d deletes %s, which is not live", i, o.path)
			}
			if i%2 == 0 {
				g.done(o, busy) // refused: the file is still there
			} else {
				delete(live, o.path)
				g.done(o, nil)
			}
		}
	}
	if len(g.own) != len(live) {
		t.Fatalf("generator owns %d files, %d are live: refused deletes leaked", len(g.own), len(live))
	}
	for _, p := range g.own {
		if !live[p] {
			t.Fatalf("generator owns %s, which was deleted", p)
		}
	}
}

// The generated population must spread over shard loops: the workload
// generators put it in one directory per bin, and routing is by directory.
func TestGeneratedPopulationFansOutOfItsBinDirectories(t *testing.T) {
	c := testConfig()
	c.Files = 150
	before := map[string]bool{}
	for _, f := range workload.Generate(workload.CapProfile(workload.FB(), workload.BinD), c.Seed).Files {
		before[f.Path[:strings.LastIndexByte(f.Path, '/')]] = true
	}
	after := map[string]bool{}
	for _, f := range generatedFiles(&c) {
		after[f.Path[:strings.LastIndexByte(f.Path, '/')]] = true
	}
	if len(after) < 4*len(before) {
		t.Fatalf("population lives in %d directories (the generator's own layout has %d)", len(after), len(before))
	}
}

func TestRunSmallShardedTenantedContended(t *testing.T) {
	c := testConfig()
	c.Shards, c.Dataplane, c.Tenants = 2, "contended", 2
	rep, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Ops == 0 || rep.OpsPerSec <= 0 || rep.Read.Count == 0 {
		t.Fatalf("run did no work: ops %d, ops/s %g, reads %d", rep.Ops, rep.OpsPerSec, rep.Read.Count)
	}
	if len(rep.Shards) != 2 || rep.ImbalanceRatio < 1 || len(rep.ReadTenants) != 2 || len(rep.Plane) != 3 {
		t.Fatalf("blocks: %d shards, imbalance %g, %d tenants, %d plane tiers",
			len(rep.Shards), rep.ImbalanceRatio, len(rep.ReadTenants), len(rep.Plane))
	}
	if len(rep.TimeSeries.Points) == 0 {
		t.Fatal("no time-series windows")
	}
	if rep.Open != nil || rep.Rebalance != nil || rep.Backend != nil {
		t.Fatal("closed-loop sim run without -rebalance carries an open, rebalance or backend block")
	}

	// The report round-trips through JSON into the same type: what the gate
	// decodes is what the producer encoded.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("report changed across a JSON round trip:\n%s\n%s", data, again)
	}
	if back.OpsPerSec != rep.OpsPerSec || back.ImbalanceRatio != rep.ImbalanceRatio {
		t.Fatal("gated fields changed across a JSON round trip")
	}
}

// -hotdir under open arrival: the parent refused the combination because
// its second copy of the op mix had no hot branch.
func TestHotDirUnderOpenArrival(t *testing.T) {
	c := testConfig()
	c.Arrival, c.Rate, c.Shards, c.HotDir = "open", 3000, 4, 0.8
	rep, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Open == nil || rep.Open.Completed == 0 {
		t.Fatalf("no open block or nothing completed: %+v", rep.Open)
	}
	if rep.ImbalanceRatio <= 2 {
		t.Fatalf("imbalance %.2fx with 80%% of traffic on one shard's subtree: the skew is not real", rep.ImbalanceRatio)
	}
}

// Open-loop ops_per_sec is the rate sustained inside the load window, not
// ops over an elapsed time that includes working the backlog off (the parent
// divided by elapsed, -drain included).
func TestOpenLoopOpsPerSecCoversTheLoadWindowOnly(t *testing.T) {
	c := testConfig()
	// One worker against a create/delete-only stream at several times the
	// rate it can sustain (a create waits on its virtual transfer): the run
	// ends with a backlog to drain.
	c.Arrival, c.Rate, c.Clients, c.ReadFrac, c.StatFrac = "open", 4000, 1, 0, 0
	rep, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	o := rep.Open
	if o.Drained == 0 {
		t.Fatalf("nothing drained after the deadline (%d completed): the overload did not build a backlog", o.Completed)
	}
	if o.Completed != rep.Ops || o.Completed+o.Abandoned != o.Scheduled {
		t.Fatalf("completed %d + abandoned %d != scheduled %d (ops %d)", o.Completed, o.Abandoned, o.Scheduled, rep.Ops)
	}
	if got, want := rep.OpsPerSec*c.Dur.Seconds(), float64(o.Completed-o.Drained); math.Abs(got-want) > 0.5 {
		t.Fatalf("ops_per_sec x dur = %.1f, completed - drained = %.0f", got, want)
	}
	if rep.ElapsedSeconds <= c.Dur.Seconds() {
		t.Fatalf("elapsed %.3fs does not include the drain", rep.ElapsedSeconds)
	}
}

// A real-backend run must move real bytes on every tier and read some back;
// one that did not is reported by the producer itself.
func TestRealBackendRunAndItsVacuityCheck(t *testing.T) {
	c := testConfig()
	c.Workload, c.Files, c.Shards, c.Backend, c.BackendRoot = "fixed", 24, 2, "real", t.TempDir()
	rep, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	cal := rep.Backend
	if cal == nil || len(cal.Tiers) != 3 {
		t.Fatalf("calibration block: %+v", cal)
	}

	idle := *cal
	idle.Tiers = append([]backend.TierCalibration(nil), cal.Tiers...)
	idle.Tiers[1].Write = backend.OpCalibration{}
	if v := backendVacuity(idle); len(v) != 1 || !strings.Contains(v[0], idle.Tiers[1].Tier) {
		t.Fatalf("a tier with no physical writes: violations %q", v)
	}
	for i := range idle.Tiers {
		idle.Tiers[i].Read = backend.OpCalibration{}
	}
	if v := backendVacuity(idle); len(v) != 2 {
		t.Fatalf("no writes on one tier and no reads at all: violations %q", v)
	}
}

func TestRunErrors(t *testing.T) {
	// A run that fails midway leaves a partial report with a violations entry.
	c := testConfig()
	c.Down = "no-such-policy"
	rep, err := Run(c)
	if err == nil || rep == nil {
		t.Fatalf("Run = (%v, %v), want a partial report and an error", rep, err)
	}
	if len(rep.Violations) != 1 || !strings.HasPrefix(rep.Violations[0], "fatal: ") {
		t.Fatalf("violations = %q", rep.Violations)
	}
	if rep.Config["down"] != "no-such-policy" {
		t.Fatalf("partial report config = %v", rep.Config)
	}

	// A rejected configuration runs nothing and reports nothing.
	for name, mutate := range map[string]func(*Config){
		"mix":      func(c *Config) { c.ReadFrac, c.StatFrac = 0.9, 0.2 },
		"zipf":     func(c *Config) { c.Zipf = 1 },
		"workload": func(c *Config) { c.Workload = "nope" },
		"open":     func(c *Config) { c.Arrival = "open" },
		"tenants":  func(c *Config) { c.Tenants = 2 },
		"scenario": func(c *Config) { c.Scenario, c.Shards = "node-churn", 2 },
		"window":   func(c *Config) { c.Window = 0 },
	} {
		c := testConfig()
		mutate(&c)
		if rep, err := Run(c); err == nil || rep != nil {
			t.Errorf("%s: Run = (%v, %v), want (nil, error)", name, rep, err)
		}
	}
}
