// Command benchgate gates pairs of load reports (loadgen.Report, as written
// by cmd/octoload) produced back to back by the same CI job: same machine,
// same commit, one switch flipped. Only such A/B comparisons are sound — the
// ratio is a property of the code, not of runner drift — so they are the only
// rules here; parent-vs-change performance is bench/run.sh plus bench -compare.
//
//	benchgate -overhead-off BENCH_off.json -overhead-on BENCH_obs.json
//	benchgate -skew-off BENCH_skew_off.json -skew-on BENCH_skew_on.json
//
// Both reports of a pair come from this commit's octoload, so a metric or
// block missing from either is a failure, never something to wait out.
// Exit status: 0 all rules hold, 1 some rule failed, 2 usage or unreadable
// report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"octostore/internal/loadgen"
)

// rule is one A/B gate: the "on" report is the same configuration as "off"
// with one switch flipped, and every metric must move by at least its factor.
type rule struct {
	name    string // flags are -<name>-off and -<name>-on
	off, on string // what each side is, for the flag help
	metrics []metric
	// moved, when set, reports whether the on-run did the work the comparison
	// is about; a win without it is vacuous.
	moved func(on *loadgen.Report) (ok bool, detail string)
}

// metric holds when improvement >= factor, where improvement is on/off for
// higher-is-better metrics and off/on for lower-is-better ones. A factor
// below 1 is a bounded tax; above 1, a required win.
type metric struct {
	name        string
	get         func(*loadgen.Report) float64
	lowerBetter bool
	factor      float64
}

func opsPerSec(r *loadgen.Report) float64 { return r.OpsPerSec }

var rules = []rule{
	{
		// The observability tax: the obs plane is a nil check when off and
		// sampled spans plus pull-based closures when on, and may cost at
		// most 5% throughput.
		name: "overhead", off: "observability off", on: "-obs-listen/-trace on",
		metrics: []metric{{name: "ops_per_sec", get: opsPerSec, factor: 1 / 1.05}},
	},
	{
		// The rebalancer on an adversarially skewed load (octoload -hotdir):
		// it must win 1.3x on throughput, flatten the per-shard imbalance
		// 1.2x, and have actually migrated — a run that wins without moving
		// a subtree is vacuous.
		name: "skew", off: "static routing", on: "-rebalance",
		metrics: []metric{
			{name: "ops_per_sec", get: opsPerSec, factor: 1.3},
			{name: "imbalance_ratio", get: func(r *loadgen.Report) float64 { return r.ImbalanceRatio }, lowerBetter: true, factor: 1.2},
		},
		moved: func(on *loadgen.Report) (bool, string) {
			rb := on.Rebalance
			if rb == nil {
				return false, "report has no rebalance block (run without -rebalance?)"
			}
			return rb.Completed > 0 && rb.FilesMoved > 0,
				fmt.Sprintf("%d migrations, %d files moved", rb.Completed, rb.FilesMoved)
		},
	},
}

// gate applies the rule to a report pair, prints one line per check and
// returns the number of failed checks.
func (ru rule) gate(off, on *loadgen.Report, w io.Writer) (failed int) {
	line := func(ok bool, check, format string, args ...any) {
		verdict := "OK  "
		if !ok {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s  %-28s %s\n", verdict, ru.name+":"+check, fmt.Sprintf(format, args...))
	}
	if n := len(off.Violations) + len(on.Violations); n > 0 {
		line(false, "violations", "the runs recorded %d violations", n)
	}
	for _, m := range ru.metrics {
		a, b := m.get(off), m.get(on)
		if a <= 0 || b <= 0 {
			line(false, m.name, "missing from a report (off %g, on %g)", a, b)
			continue
		}
		improvement := b / a
		if m.lowerBetter {
			improvement = a / b
		}
		line(improvement >= m.factor, m.name, "%.6g (%s) vs %.6g (%s): %.2fx, need >= %.2fx", b, ru.on, a, ru.off, improvement, m.factor)
	}
	if ru.moved != nil {
		ok, detail := ru.moved(on)
		line(ok, "not_vacuous", "%s", detail)
	}
	return failed
}

func load(path string) (*loadgen.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(loadgen.Report)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// run is main without the process exit, for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	paths := make([][2]*string, len(rules))
	for i, ru := range rules {
		paths[i][0] = fs.String(ru.name+"-off", "", "load report: "+ru.off)
		paths[i][1] = fs.String(ru.name+"-on", "", "load report: the same configuration with "+ru.on)
	}
	if fs.Parse(args) != nil {
		return 2
	}
	ran, failed := 0, 0
	for i, ru := range rules {
		offPath, onPath := *paths[i][0], *paths[i][1]
		if offPath == "" && onPath == "" {
			continue
		}
		off, err := load(offPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: -%s-off: %v\n", ru.name, err)
			return 2
		}
		on, err := load(onPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: -%s-on: %v\n", ru.name, err)
			return 2
		}
		ran++
		failed += ru.gate(off, on, stdout)
	}
	switch {
	case ran == 0:
		fmt.Fprintln(stderr, "benchgate: need -overhead-off/-overhead-on and/or -skew-off/-skew-on")
		return 2
	case failed > 0:
		fmt.Fprintf(stdout, "benchgate: %d check(s) failed\n", failed)
		return 1
	}
	fmt.Fprintln(stdout, "benchgate: all checks hold")
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
