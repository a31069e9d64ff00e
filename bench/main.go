// Command bench is the repository's benchmark: four named workloads that keep
// host CPU cost and simulated outcomes in separate numbers, plus a traced run
// that attributes host cost to layers. See README.md.
//
//	bench -workload read_hot -seed 1 -seconds 10 -trace 0   one workload, one JSON line
//	bench -seed 1 -trace 1 -out report.json                 the whole suite
//	bench -compare a.json b.json                            regression check between two reports
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// watchdogLimit turns a stalled workload into a failed run: the driver allows
// one run 180 s.
const watchdogLimit = 150 * time.Second

func main() {
	var o options
	workload := flag.String("workload", "", "workload to run (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "schedule seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "timed seconds per workload")
	trace := flag.Int("trace", 0, "1: per-layer run (decorators and probes on) instead of the end-to-end run")
	flag.BoolVar(&o.quick, "quick", false, "run every workload at about 1% scale")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for spans_<workload>.jsonl and probe scratch files")
	out := flag.String("out", "", "write the full report (all workloads, all metrics) to this file")
	compare := flag.Bool("compare", false, "compare two report files given as arguments; exit 1 beyond a bound")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two report files"))
		}
		ok, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if o.seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fatal(err)
	}

	if *workload != "" {
		// Contract mode: one workload, last line of stdout is the result.
		if !findWorkload(*workload) {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		rep, err := guarded(*workload, o, *trace == 1, watchdogLimit)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeSuite(*out, o, []*report{rep}); err != nil {
				fatal(err)
			}
		}
		printContractLine(os.Stdout, rep, *trace == 1)
		if !rep.Correct {
			for _, v := range rep.Violations {
				fmt.Fprintln(os.Stderr, "bench: violation:", v)
			}
			os.Exit(1)
		}
		return
	}

	// Suite mode: every workload end to end, then (with -trace 1) traced.
	if *trace == 1 {
		var err error
		if o.isolated, err = isolatedProbes(o); err != nil {
			fatal(err)
		}
	}
	var reps []*report
	ok := true
	for _, w := range workloads {
		rep, err := guarded(w.Name, o, false, watchdogLimit)
		if err != nil {
			fatal(err)
		}
		if *trace == 1 {
			traced, err := guarded(w.Name, o, true, watchdogLimit)
			if err != nil {
				fatal(err)
			}
			rep.PerLayer, rep.LayerSelfNS = traced.PerLayer, traced.LayerSelfNS
			rep.absorb(traced)
		}
		printHuman(rep)
		ok = ok && rep.Correct
		reps = append(reps, rep)
	}
	if *out != "" {
		if err := writeSuite(*out, o, reps); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// guard runs fn under a wall-clock watchdog: a stall becomes a failed run,
// never a hang. (The stalled goroutine is abandoned; the process is about to
// exit non-zero.)
func guard(fn func() (*report, error), limit time.Duration) (*report, error) {
	type result struct {
		rep *report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := fn()
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(limit):
		return nil, fmt.Errorf("stalled for %v (watchdog)", limit)
	}
}

// guarded runs one workload under the watchdog.
func guarded(name string, o options, traced bool, limit time.Duration) (*report, error) {
	rep, err := guard(func() (*report, error) { return runWorkload(name, o, traced) }, limit)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return rep, nil
}

// runWorkload dispatches to the end-to-end or the traced measurement.
func runWorkload(name string, o options, traced bool) (*report, error) {
	if traced {
		return runTraced(name, o)
	}
	switch name {
	case "read_hot":
		rep, run, _, err := runReadHot(o, nil)
		if err == nil {
			run.sys.srv.Close()
		}
		return rep, err
	case "ingest_replay", "churn_replay":
		spec, scale := ingestSpec(o.quick)
		if name == "churn_replay" {
			spec, scale = churnSpec(o.quick)
		}
		rep, run, _, err := runReplayWorkload(spec, scale, o, nil)
		if err == nil {
			run.sys.srv.Close()
		}
		return rep, err
	default:
		rep, _, err := runTraceXGB(o, nil)
		return rep, err
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine prints the driver's result object as the last line.
func printContractLine(w io.Writer, rep *report, traced bool) {
	defs, values := endToEnd, rep.EndToEnd
	if traced {
		defs, values = perLayer, rep.PerLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

func printHuman(rep *report) {
	fmt.Printf("== %s  correct=%v attempted=%d failed=%d schedule=%s\n",
		rep.Workload, rep.Correct, rep.Attempted, rep.Failed, rep.ScheduleHash)
	for _, d := range endToEnd {
		kind := "virtual"
		if d.Host {
			kind = "host"
		}
		fmt.Printf("  %-24s %14.6g %-6s (%s)\n", d.Name, rep.EndToEnd[d.Name], d.Unit, kind)
	}
	if rep.PerLayer != nil {
		for _, d := range perLayer {
			fmt.Printf("    %-30s %14.6g %s\n", d.Name, rep.PerLayer[d.Name], d.Unit)
		}
	}
	for _, v := range rep.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
}

// suite is the -out file: what -compare reads.
type suite struct {
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Quick     bool               `json:"quick"`
	Workloads map[string]*report `json:"workloads"`
}

func writeSuite(path string, o options, reps []*report) error {
	s := suite{Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Workloads: make(map[string]*report)}
	for _, r := range reps {
		s.Workloads[r.Workload] = r
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
