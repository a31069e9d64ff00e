// Command octobench regenerates the paper's tables and figures.
//
// Usage:
//
//	octobench -exp fig6              # one experiment at paper scale
//	octobench -exp all -fast         # every experiment, reduced scale
//	octobench -list                  # show available experiment ids
//	octobench -exp scenarios -fast   # replay the whole scenario catalog
//	octobench -exp scenarios -scenario node-churn   # one scenario
//	octobench -scenario list         # show available scenario names
//	octobench -exp all -parallel 0   # fan cells out across all cores
//	octobench -exp fig6 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Each experiment prints one or more aligned text tables whose rows mirror
// the series the paper plots. The id → figure/table mapping is the registry
// in internal/experiments, whose runners each name their Section 7
// artefact; internal/experiments/testdata/fast_seed1.golden is the output
// of `-exp all -fast`, held byte for byte by the package's tests.
//
// -parallel runs independent experiment cells (system × policy × workload
// simulations) concurrently; every cell is deterministic and isolated, so
// the output is identical at any parallelism level. -cpuprofile and
// -memprofile write pprof profiles covering the experiment runs, so perf
// regressions are diagnosable without editing code.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"octostore/internal/experiments"
	"octostore/internal/scenario"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (or 'all')")
		list       = flag.Bool("list", false, "list available experiments")
		fast       = flag.Bool("fast", false, "reduced-scale run (small cluster, short workload)")
		workers    = flag.Int("workers", 11, "cluster worker count")
		seed       = flag.Int64("seed", 1, "workload/placement seed")
		scenName   = flag.String("scenario", "", "scenario name for -exp scenarios ('list' to enumerate, empty for all)")
		parallel   = flag.Int("parallel", 1, "concurrent experiment cells (0 = all cores); results are identical at any level")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile after the experiment runs to this file")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *scenName == "list" {
		for _, name := range scenario.Names() {
			fmt.Println(name)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "octobench: -exp is required (use -list to see options)")
		os.Exit(2)
	}
	if *scenName != "" && *exp != "scenarios" && *exp != "all" {
		fmt.Fprintf(os.Stderr, "octobench: -scenario only applies to -exp scenarios (got -exp %s)\n", *exp)
		os.Exit(2)
	}
	opts := experiments.Options{Workers: *workers, Seed: *seed, Fast: *fast, Scenario: *scenName}
	// Options.Parallel: 0 sequential (zero value), negative all cores.
	switch {
	case *parallel == 0:
		opts.Parallel = -1
	case *parallel > 1:
		opts.Parallel = *parallel
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "octobench: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "octobench: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		runner, err := experiments.Get(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "octobench:", err)
			exitProfiled(2, *memProfile)
		}
		start := time.Now()
		tables, err := runner(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "octobench: %s: %v\n", id, err)
			exitProfiled(1, *memProfile)
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
			fmt.Println()
		}
		fmt.Printf("-- %s completed in %v --\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	writeMemProfile(*memProfile)
}

// exitProfiled flushes the profiles (deferred CPU stop does not run across
// os.Exit) and terminates.
func exitProfiled(code int, memProfile string) {
	pprof.StopCPUProfile()
	writeMemProfile(memProfile)
	os.Exit(code)
}

// writeMemProfile dumps the heap profile after a GC, mirroring `go test
// -memprofile` semantics.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "octobench: memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "octobench: memprofile:", err)
	}
}
