package experiments

import (
	"fmt"
	"sort"
	"time"

	"octostore/internal/dfs"
	"octostore/internal/eval"
	"octostore/internal/scenario"
	"octostore/internal/storage"
)

// dfsioConfig parameterises the Figure 2 microbenchmark.
type dfsioConfig struct {
	totalBytes     int64
	fileBytes      int64
	writersPerNode int
	buckets        int
}

func (o Options) dfsioConfig() dfsioConfig {
	if o.Fast {
		return dfsioConfig{
			totalBytes:     9 * storage.GB,
			fileBytes:      512 * storage.MB,
			writersPerNode: 2,
			buckets:        6,
		}
	}
	return dfsioConfig{
		totalBytes:     84 * storage.GB,
		fileBytes:      1 * storage.GB,
		writersPerNode: 2,
		buckets:        14,
	}
}

// Fig2DFSIO regenerates Figure 2: DFSIO-style average write and read
// throughput per node as a function of cumulative data volume, for the
// four systems (HDFS, HDFS with cache, OctopusFS, Octopus++). The paper's
// crossover — tiered benefits collapsing once aggregate memory is
// exhausted, and Octopus++ sustaining them — shows up as the series'
// shapes.
func Fig2DFSIO(o Options) ([]*eval.Table, error) {
	o.applyDefaults()
	cfg := o.dfsioConfig()
	systems := []System{
		{Name: "HDFS", Mode: dfs.ModeHDFS},
		{Name: "HDFS+Cache", Mode: dfs.ModeHDFSCache},
		{Name: "OctopusFS", Mode: dfs.ModeOctopus},
		{Name: "Octopus++", Mode: dfs.ModeOctopus, Down: "xgb", Up: "xgb"},
	}
	header := []string{"Data (GB)", "HDFS", "HDFS+Cache", "OctopusFS", "Octopus++"}
	tables := []*eval.Table{ // indexed like the phases of runDFSIO's series
		{ID: "fig2a", Title: "DFSIO average write throughput per node (MB/s) vs data written (GB)", Header: header},
		{ID: "fig2b", Title: "DFSIO average read throughput per node (MB/s) vs data read (GB)", Header: header},
	}
	series := make([][2][]float64, len(systems))
	err := runCells(o.parallelism(), len(systems), func(i int) error {
		var err error
		series[i], err = runDFSIO(systems[i], o, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	bucketGB := float64(cfg.totalBytes) / float64(cfg.buckets) / float64(storage.GB)
	for i := 0; i < cfg.buckets; i++ {
		for phase, t := range tables {
			row := []eval.Cell{num("%.1f", bucketGB*float64(i+1))}
			for s := range systems {
				row = append(row, num("%.0f", series[s][phase][i]))
			}
			t.AddRow(row...)
		}
	}
	return tables, nil
}

// runDFSIO writes and then reads the benchmark dataset on one system,
// returning per-bucket MB/s-per-node series for both phases, write first.
func runDFSIO(sys System, o Options, cfg dfsioConfig) (series [2][]float64, err error) {
	rp, err := scenario.Build(sys, o.clusterConfig(), o.Seed)
	if err != nil {
		return series, err
	}
	if rp.Manager != nil {
		defer rp.Manager.Stop()
	}
	engine, fs, nodes := rp.Engine, rp.FS, rp.Cluster.Nodes()
	nFiles := int(cfg.totalBytes / cfg.fileBytes)
	paths := make([]string, nFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("/dfsio/f%03d", i)
	}
	workers := cfg.writersPerNode * len(nodes)

	// Both phases run the files in order on `workers` concurrent streams:
	// launch hands every free stream the next file, and start must call
	// finish once that file is done.
	var (
		next, active int
		start        func(idx int)
		done         []time.Time
		failure      error
	)
	fail := func(err error) {
		if err != nil && failure == nil {
			failure = err
		}
	}
	launch := func() {
		for active < workers && next < nFiles {
			next++
			active++
			start(next - 1)
		}
	}
	finish := func(idx int) {
		done[idx] = engine.Now()
		active--
		launch()
	}
	phase := func(name string, s func(idx int)) ([]float64, error) {
		start, next, active, done = s, 0, 0, make([]time.Time, nFiles)
		begin := engine.Now()
		launch()
		for (active > 0 || next < nFiles) && engine.Step() {
		}
		if failure != nil {
			return nil, fmt.Errorf("dfsio %s (%s): %w", name, sys.Name, failure)
		}
		return bucketThroughput(begin, done, cfg, len(nodes)), nil
	}

	if series[0], err = phase("write", func(idx int) {
		fs.Create(paths[idx], cfg.fileBytes, func(_ *dfs.File, err error) {
			fail(err)
			finish(idx)
		})
	}); err != nil {
		return series, err
	}
	// Read phase: the same streams read files in creation order, each
	// stream pinned to a node (block reads prefer local replicas).
	series[1], err = phase("read", func(idx int) {
		f, err := fs.Open(paths[idx])
		if err != nil {
			fail(err)
			finish(idx)
			return
		}
		fs.RecordAccess(f)
		blocks := f.Blocks()
		node := nodes[(idx%workers)%len(nodes)]
		var step func(i int)
		step = func(i int) {
			if i >= len(blocks) {
				finish(idx)
				return
			}
			fs.ReadBlock(blocks[i], node, func(_ dfs.ReadResult, err error) {
				fail(err)
				step(i + 1)
			})
		}
		step(0)
	})
	return series, err
}

// bucketThroughput converts per-file completion times into the cumulative
// average MB/s per node at each data-volume bucket, which is how DFSIO
// reports progressive throughput. Completions are sorted first because the
// concurrent streams finish out of order (and, under processor sharing,
// often simultaneously).
func bucketThroughput(start time.Time, done []time.Time, cfg dfsioConfig, nodes int) []float64 {
	sorted := append([]time.Time(nil), done...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Before(sorted[b]) })
	perBucket := len(sorted) / cfg.buckets
	if perBucket == 0 {
		perBucket = 1
	}
	out := make([]float64, 0, cfg.buckets)
	for b := 0; b < cfg.buckets; b++ {
		hi := (b + 1) * perBucket
		if b == cfg.buckets-1 || hi > len(sorted) {
			hi = len(sorted)
		}
		end := sorted[hi-1]
		bytes := float64(hi) * float64(cfg.fileBytes)
		dt := end.Sub(start).Seconds()
		if dt <= 0 {
			dt = 1e-9
		}
		out = append(out, bytes/dt/float64(nodes)/1e6)
	}
	return out
}
