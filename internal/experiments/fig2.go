package experiments

import (
	"fmt"
	"sort"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/dfs"
	"octostore/internal/eval"
	"octostore/internal/policy"
	"octostore/internal/scenario"
	"octostore/internal/sim"
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
	writeTable := &eval.Table{
		ID:     "fig2a",
		Title:  "DFSIO average write throughput per node (MB/s) vs data written (GB)",
		Header: []string{"Data (GB)", "HDFS", "HDFS+Cache", "OctopusFS", "Octopus++"},
	}
	readTable := &eval.Table{
		ID:     "fig2b",
		Title:  "DFSIO average read throughput per node (MB/s) vs data read (GB)",
		Header: []string{"Data (GB)", "HDFS", "HDFS+Cache", "OctopusFS", "Octopus++"},
	}
	writeSeries := make([][]float64, len(systems))
	readSeries := make([][]float64, len(systems))
	err := runCells(o.parallelism(), len(systems), func(i int) error {
		w, r, err := runDFSIO(systems[i], o, cfg)
		if err != nil {
			return err
		}
		writeSeries[i], readSeries[i] = w, r
		return nil
	})
	if err != nil {
		return nil, err
	}
	bucketGB := float64(cfg.totalBytes) / float64(cfg.buckets) / float64(storage.GB)
	for i := 0; i < cfg.buckets; i++ {
		wRow := []string{fmt.Sprintf("%.1f", bucketGB*float64(i+1))}
		rRow := []string{fmt.Sprintf("%.1f", bucketGB*float64(i+1))}
		for s := range systems {
			wRow = append(wRow, fmt.Sprintf("%.0f", writeSeries[s][i]))
			rRow = append(rRow, fmt.Sprintf("%.0f", readSeries[s][i]))
		}
		writeTable.AddRow(wRow...)
		readTable.AddRow(rRow...)
	}
	return []*eval.Table{writeTable, readTable}, nil
}

// runDFSIO writes and then reads the benchmark dataset on one system,
// returning per-bucket MB/s-per-node series for both phases.
func runDFSIO(sys System, o Options, cfg dfsioConfig) (writeMBs, readMBs []float64, err error) {
	engine := sim.NewEngine()
	cl, err := cluster.New(engine, o.clusterConfig())
	if err != nil {
		return nil, nil, err
	}
	fs, err := dfs.New(cl, dfs.Config{Mode: sys.Mode, Seed: o.Seed, ClientRate: 2000e6})
	if err != nil {
		return nil, nil, err
	}
	if sys.Managed() {
		mgr, err := policy.NewManager(fs, sys.Down, sys.Up, scenario.LearnerConfig(o.Seed))
		if err != nil {
			return nil, nil, err
		}
		mgr.Start()
		defer mgr.Stop()
	}

	nFiles := int(cfg.totalBytes / cfg.fileBytes)
	paths := make([]string, nFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("/dfsio/f%03d", i)
	}
	workers := cfg.writersPerNode * cl.Size()
	nodes := cl.Nodes()

	// Write phase: `workers` concurrent streams create files in order.
	writeDone := make([]time.Time, nFiles)
	next := 0
	active := 0
	var failure error
	var launch func()
	launch = func() {
		for active < workers && next < nFiles {
			idx := next
			next++
			active++
			fs.Create(paths[idx], cfg.fileBytes, func(_ *dfs.File, cerr error) {
				active--
				writeDone[idx] = engine.Now()
				if cerr != nil && failure == nil {
					failure = cerr
				}
				launch()
			})
		}
	}
	writeStart := engine.Now()
	launch()
	for (active > 0 || next < nFiles) && engine.Step() {
	}
	if failure != nil {
		return nil, nil, fmt.Errorf("dfsio write (%s): %w", sys.Name, failure)
	}
	writeMBs = bucketThroughput(writeStart, writeDone, cfg, cl.Size())

	// Read phase: the same streams read files in creation order, each
	// stream pinned to a node (block reads prefer local replicas).
	readDone := make([]time.Time, nFiles)
	next, active = 0, 0
	var readFile func(idx int, node int)
	readFile = func(idx, node int) {
		f, oerr := fs.Open(paths[idx])
		if oerr != nil {
			if failure == nil {
				failure = oerr
			}
			readDone[idx] = engine.Now()
			active--
			launchRead(&next, &active, workers, nFiles, readFile)
			return
		}
		fs.RecordAccess(f)
		blocks := f.Blocks()
		var step func(i int)
		step = func(i int) {
			if i >= len(blocks) {
				readDone[idx] = engine.Now()
				active--
				launchRead(&next, &active, workers, nFiles, readFile)
				return
			}
			fs.ReadBlock(blocks[i], nodes[node%len(nodes)], func(_ dfs.ReadResult, rerr error) {
				if rerr != nil && failure == nil {
					failure = rerr
				}
				step(i + 1)
			})
		}
		step(0)
	}
	readStart := engine.Now()
	launchReadInit(&next, &active, workers, nFiles, readFile)
	for (active > 0 || next < nFiles) && engine.Step() {
	}
	if failure != nil {
		return nil, nil, fmt.Errorf("dfsio read (%s): %w", sys.Name, failure)
	}
	readMBs = bucketThroughput(readStart, readDone, cfg, cl.Size())
	return writeMBs, readMBs, nil
}

// launchReadInit starts the initial batch of read streams.
func launchReadInit(next, active *int, workers, nFiles int, readFile func(int, int)) {
	for *active < workers && *next < nFiles {
		idx := *next
		*next = idx + 1
		*active = *active + 1
		readFile(idx, idx%workers)
	}
}

// launchRead starts the next file on a freed stream.
func launchRead(next, active *int, workers, nFiles int, readFile func(int, int)) {
	if *next < nFiles {
		idx := *next
		*next = idx + 1
		*active = *active + 1
		readFile(idx, idx%workers)
	}
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
