// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7). Each experiment is a function returning one or
// more eval.Tables whose rows mirror the series plotted in the paper, and
// whose numeric cells carry the numbers they print; cmd/octobench prints
// them and testdata/fast_seed1.golden pins their Fast rendering. Every
// system under test is wired by scenario.Build.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/eval"
	"octostore/internal/scenario"
	"octostore/internal/storage"
	"octostore/internal/workload"
)

// Options scopes an experiment run.
type Options struct {
	// Workers is the cluster size (paper testbed: 11).
	Workers int
	// Seed drives workload generation and placement.
	Seed int64
	// Fast shrinks the workload and cluster for unit tests and smoke runs;
	// shapes still hold but absolute values are noisier.
	Fast bool
	// Scenario restricts the "scenarios" experiment to one named catalog
	// scenario; empty replays the whole catalog.
	Scenario string
	// Parallel is how many experiment cells (independent simulations) run
	// concurrently: 0 or 1 sequential, negative all cores, otherwise the
	// given worker count. Results are identical at any level because each
	// cell is deterministic and isolated (see parallel.go).
	Parallel int
}

// DefaultOptions reproduces the paper's testbed scale.
func DefaultOptions() Options {
	return Options{Workers: 11, Seed: 1}
}

func (o *Options) applyDefaults() {
	if o.Workers <= 0 {
		o.Workers = 11
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// replayOptions is the options as scenario sees them. Fast pins the
// shrunken topology, so Workers only carries at paper scale.
func (o Options) replayOptions() scenario.Options {
	so := scenario.Options{Seed: o.Seed, Fast: o.Fast}
	if !o.Fast {
		so.Workers = o.Workers
	}
	return so
}

// clusterConfig is the scenario default topology for the options.
func (o Options) clusterConfig() cluster.Config {
	return scenario.DefaultCluster(o.replayOptions())
}

// profile returns the workload profile for a name ("fb" or "cmu"), scaled
// down in Fast mode.
func (o Options) profile(name string) (workload.Profile, error) {
	var p workload.Profile
	switch name {
	case "fb", "FB":
		p = workload.FB()
	case "cmu", "CMU":
		p = workload.CMU()
	default:
		return p, fmt.Errorf("experiments: unknown workload %q", name)
	}
	if o.Fast {
		p = scenario.FastProfile(p)
	}
	return p, nil
}

// Runner is an experiment entry point.
type Runner func(Options) ([]*eval.Table, error)

// registry maps experiment ids to runners.
var registry = map[string]Runner{
	"fig2":      Fig2DFSIO,
	"table3":    Table3JobBins,
	"fig5":      Fig5CDFs,
	"fig6":      Fig6CompletionTime,
	"fig7":      Fig7Efficiency,
	"fig8":      Fig8TierAccess,
	"fig9":      Fig9HitRatios,
	"fig10":     Fig10DowngradeCompletion,
	"fig11":     Fig11DowngradeHitRatios,
	"fig12":     Fig12UpgradeCompletion,
	"table4":    Table4UpgradeStats,
	"fig13":     Fig13Scalability,
	"fig14":     Fig14ROC,
	"fig15":     Fig15FeatureAblation,
	"fig16":     Fig16LearningModes,
	"fig17":     Fig17WorkloadSwitch,
	"overheads": OverheadsReport,
	"scenarios": Scenarios,
	"tieraware": TierAwareScheduling,
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Get looks up an experiment by id.
func Get(id string) (Runner, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, IDs())
	}
	return r, nil
}

// text is a cell that prints fmt.Sprint(a) and carries no number.
func text(a any) eval.Cell { return eval.Cell{Text: fmt.Sprint(a)} }

// num is a cell holding v, printed with format.
func num(format string, v float64) eval.Cell {
	return eval.Cell{Text: fmt.Sprintf(format, v), Value: v}
}

// minutes is a duration in decimal minutes.
func minutes(d time.Duration) eval.Cell { return num("%.1f", d.Minutes()) }

// gb is a byte count in decimal gigabytes.
func gb(bytes int64) eval.Cell { return num("%.2f", float64(bytes)/float64(storage.GB)) }
