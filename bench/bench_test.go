package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"octostore/internal/core"
	"octostore/internal/workload"
)

func quickOptions(t *testing.T) options {
	return options{seed: 1, seconds: 0.2, quick: true, dir: t.TempDir()}
}

// checkMetrics asserts that got holds exactly the metrics of defs, all finite.
func checkMetrics(t *testing.T, what string, defs []metricDef, got map[string]float64) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", what, len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("%s: metric %s = %v", what, d.Name, v)
		case d.Unit == "":
			t.Errorf("%s: metric %s has no unit", what, d.Name)
		}
	}
}

// TestQuickSuite runs every workload at about 1% scale, end to end and
// traced, so the harness keeps compiling and reporting as the APIs it drives
// move.
func TestQuickSuite(t *testing.T) {
	o := quickOptions(t)
	var err error
	if o.isolated, err = isolatedProbes(o); err != nil {
		t.Fatal(err)
	}
	// The per-layer metrics each workload exists to expose must be exercised
	// by it (trace_xgb is too short at this scale to train or to fill memory).
	reaches := map[string][]string{
		"read_hot":      {"server.access_ns", "storage.plane.serve_ns", "server.ring.drained", "policy.up.start_ns"},
		"ingest_replay": {"server.create_submit_ns", "server.delete_submit_ns", "server.flush_s", "sim.events"},
		"churn_replay":  {"policy.down.select_calls", "policy.down.select_ns", "server.executor.scheduled", "core.manager.downgrades"},
		"trace_xgb":     {"policy.tick_ns", "policy.up.start_ns", "sim.event_ns", "gbt.predict_ns"},
	}
	for _, w := range workloads {
		rep, err := guarded(w.Name, o, false, watchdogLimit)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d violations=%v", w.Name, rep.Correct, rep.Attempted, rep.Failed, rep.Violations)
		}
		checkMetrics(t, w.Name, endToEnd, rep.EndToEnd)
		for _, d := range endToEnd {
			if rep.EndToEnd[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, rep.EndToEnd[d.Name])
			}
		}

		traced, err := guarded(w.Name, o, true, watchdogLimit)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if !traced.Correct {
			t.Errorf("%s traced: violations=%v", w.Name, traced.Violations)
		}
		checkMetrics(t, w.Name+" traced", perLayer, traced.PerLayer)
		for _, m := range reaches[w.Name] {
			if traced.PerLayer[m] <= 0 {
				t.Errorf("%s traced: %s = %v, want > 0", w.Name, m, traced.PerLayer[m])
			}
		}
		if traced.LayerSelfNS["bench"] <= 0 {
			t.Errorf("%s traced: no self time for the harness layer: %v", w.Name, traced.LayerSelfNS)
		}
		spans, err := os.ReadFile(filepath.Join(o.dir, "spans_"+w.Name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var first span
		if err := json.Unmarshal(bytes.SplitN(spans, []byte("\n"), 2)[0], &first); err != nil || first.Name == "" {
			t.Errorf("%s: first span line does not parse: %v", w.Name, err)
		}

		var line bytes.Buffer
		printContractLine(&line, rep, false)
		var contract struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]metricValue
		}
		if err := json.Unmarshal(line.Bytes(), &contract); err != nil {
			t.Fatalf("%s: contract line: %v", w.Name, err)
		}
		for _, d := range endToEnd {
			if contract.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("%s: contract metric %s carries unit %q, want %q", w.Name, d.Name, contract.Metrics[d.Name].Unit, d.Unit)
			}
		}
	}
}

// Same seed, same schedule; another seed, another schedule. The generators
// take nothing but the seed.
func TestScheduleDeterminism(t *testing.T) {
	replayHash := func(seed int64) uint64 {
		s := newReplaySchedule(seed, 64)
		s.mix(s.stage(nil, 400), 4000)
		return s.hash
	}
	hotHash := func(seed int64) uint64 {
		_, h := hotSchedule(seed, 2000)
		return h
	}
	xgbHash := func(seed int64) uint64 {
		p := workload.FB()
		p.NumJobs = 60
		return traceHash(workload.Generate(p, seed))
	}
	for name, hash := range map[string]func(int64) uint64{"replay": replayHash, "hot": hotHash, "trace": xgbHash} {
		if hash(7) != hash(7) {
			t.Errorf("%s: same seed gave two schedules", name)
		}
		if hash(7) == hash(8) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}

	// The hash in the report is the generator's: two runs of one seed agree.
	o := quickOptions(t)
	a, err := runWorkload("ingest_replay", o, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload("ingest_replay", o, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.ScheduleHash != b.ScheduleHash || a.ScheduleHash == "" {
		t.Errorf("schedule hashes %q and %q", a.ScheduleHash, b.ScheduleHash)
	}
}

// finalState is what the decorators must not change.
type finalState struct {
	residency map[string][3]bool
	executor  any
	manager   core.Metrics
	hash      uint64
}

func lockstepChurn(t *testing.T, tr *tracer) finalState {
	t.Helper()
	spec, _ := churnSpec(true)
	sys, err := buildSystem(spec, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	run := &replayRun{spec: spec, sys: sys, tr: tr, sched: newReplaySchedule(1, spec.dirs), reap: &reaper{}, lockstep: true}
	defer sys.srv.Close()
	run.exec(run.sched.stage(nil, spec.files), 0, nil)
	run.exec(run.sched.mix(nil, 1200), 0, nil)
	run.fence()
	if run.failed+run.reap.failed > 0 {
		t.Fatalf("%d ops failed: %v %v", run.failed+run.reap.failed, run.firstErr, run.reap.first)
	}
	if v := sys.srv.Verify(); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	return finalState{sys.srv.TierResidency(), sys.srv.ExecutorStats(), sys.managerMetrics(), run.sched.hash}
}

// A short churn_replay, fenced after every op so that it is deterministic,
// ends in the same state with and without the plane, policy and backend
// decorators.
func TestDecoratorsAreTransparent(t *testing.T) {
	bare := lockstepChurn(t, nil)
	tr := newTracer()
	traced := lockstepChurn(t, tr)
	if bare.manager.DowngradesScheduled == 0 {
		t.Fatal("vacuous: the bare run scheduled no downgrade")
	}
	if len(statsByName(tr.finish())["policy.down.select"]) == 0 {
		t.Fatal("vacuous: the decorated run recorded no select span")
	}
	if !reflect.DeepEqual(bare, traced) {
		t.Errorf("decorated run diverged:\nbare   %+v %+v\ntraced %+v %+v", bare.executor, bare.manager, traced.executor, traced.manager)
	}
}

// tickless is a policy without Tick.
type tickless struct{ core.DowngradePolicy }

// ticking is a policy with Tick.
type ticking struct {
	core.DowngradePolicy
	ticks int
}

func (p *ticking) Tick() { p.ticks++ }

type ticklessUp struct{ core.UpgradePolicy }

type tickingUp struct {
	core.UpgradePolicy
	ticks int
}

func (p *tickingUp) Tick() { p.ticks++ }

// The manager finds Tick by type assertion; a decorator must offer it exactly
// when the wrapped policy does, or it adds (or removes) engine work.
func TestDecoratorsKeepTickOptional(t *testing.T) {
	tr := newTracer()
	if _, ok := traceDown(tickless{}, tr).(core.Ticker); ok {
		t.Error("decorated tickless downgrade policy offers Tick")
	}
	if _, ok := traceUp(ticklessUp{}, tr).(core.Ticker); ok {
		t.Error("decorated tickless upgrade policy offers Tick")
	}
	down, up := &ticking{}, &tickingUp{}
	traceDown(down, tr).(core.Ticker).Tick()
	traceUp(up, tr).(core.Ticker).Tick()
	if down.ticks != 1 || up.ticks != 1 {
		t.Errorf("ticks forwarded: down %d up %d, want 1 each", down.ticks, up.ticks)
	}
	if traceDown(nil, tr) != nil || traceUp(nil, tr) != nil {
		t.Error("a nil policy must stay nil")
	}
}

func TestLayerSelfTime(t *testing.T) {
	spans := []span{
		{ID: rootRun, Name: "bench.run", Start: 0, End: 100},
		{ID: 3, Parent: rootRun, Name: "server.access", Start: 10, End: 50},
		{ID: 4, Parent: 3, Name: "storage.plane.serve", Start: 20, End: 30},
		{ID: 5, Parent: 3, Name: "storage.plane.serve", Start: 25, End: 40}, // overlaps its sibling
	}
	got := layerSelfNS(spans)
	want := map[string]float64{"bench": 60, "server": 20, "storage": 25}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestWatchdogFailsAStall(t *testing.T) {
	_, err := guard(func() (*report, error) { select {} }, 20*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Errorf("stalled workload returned %v", err)
	}
	_, err = guard(func() (*report, error) { return nil, errors.New("boom") }, time.Second)
	if err == nil || err.Error() != "boom" {
		t.Errorf("workload error came back as %v", err)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64) string {
		path := filepath.Join(dir, name)
		rep := &report{Workload: "read_hot", Correct: true, EndToEnd: map[string]float64{"ops_per_s": opsPerS, "setup_s": 1}}
		if err := writeSuite(path, options{seed: 1}, []*report{rep}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 1000), write("b.json", 990), write("c.json", 500)
	var out bytes.Buffer
	if ok, err := compareReports(&out, base, same); err != nil || !ok {
		t.Errorf("1%% slower: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareReports(&out, base, slow); err != nil || ok {
		t.Errorf("50%% slower passed: err=%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no regression line in:\n%s", out.String())
	}
	// A set is compared by its median.
	if ok, err := compareReports(&out, base, strings.Join([]string{same, slow, same}, ",")); err != nil || !ok {
		t.Errorf("median of {990, 500, 990}: ok=%v err=%v", ok, err)
	}
}

// BENCHMARK.json at the repository root must list exactly what the harness
// reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %+v", i, b.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(what string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, %d defined", what, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (bounded && g.Bound != d.Bound) {
				t.Errorf("%s %d: %+v, want %+v", what, i, g, d)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v", b.Paths)
	}
}
