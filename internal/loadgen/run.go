package loadgen

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"octostore/internal/backend"
	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/ml"
	"octostore/internal/obs"
	"octostore/internal/policy"
	"octostore/internal/scenario"
	"octostore/internal/server"
	"octostore/internal/storage"
	"octostore/internal/workload"
)

// Run executes one load run. A rejected configuration returns a nil report
// (nothing ran). A run that fails midway still returns its partial report —
// the config block plus a "fatal: ..." violations entry — next to the error,
// so an aborted run leaves a machine-readable record instead of a stale file.
// A completed run returns a nil error even when Report.Violations is
// non-empty: invariant violations are the run's result, not a failure to run.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rep := &Report{Config: cfg.echo()}
	if err := (&run{cfg: &cfg, tenants: cfg.tenantTable()}).do(rep); err != nil {
		rep.Violations = append(rep.Violations, "fatal: "+err.Error())
		return rep, err
	}
	return rep, nil
}

// run is the state of one load run that its phases share.
type run struct {
	cfg     *Config
	tenants []server.TenantConfig
	pop     *population
	srv     *server.ShardedServer

	// ops counts completed client ops; drained the subset that completed
	// after the load window closed (past flips at the deadline).
	ops, drained atomic.Int64
	past         atomic.Bool
	start        time.Time // of the load phase
	elapsed      time.Duration
}

// tenantOf maps a client, schedule or file index to a tenant identity
// (round-robin across the table); untenanted runs are storage.DefaultTenant
// throughout.
func (r *run) tenantOf(i int) storage.TenantID {
	if len(r.tenants) == 0 {
		return storage.DefaultTenant
	}
	return r.tenants[i%len(r.tenants)].ID
}

func (r *run) do(rep *Report) error {
	c := r.cfg

	// Resolve the world: either the driver's own cluster and generated
	// population, or a scenario catalog entry's.
	clCfg := c.cluster()
	var files []workload.FileSpec
	var sc *scenario.Scenario
	scOpts := scenario.Options{Seed: c.Seed, Fast: true, Workers: c.Workers}
	if c.Scenario != "" {
		got, err := scenario.Get(c.Scenario)
		if err != nil {
			return err
		}
		sc = &got
		clCfg = sc.Cluster(scOpts)
		files = sc.Trace(scOpts).Files
		if len(files) < 2 {
			return fmt.Errorf("scenario %s stages %d files; need at least 2", sc.Name, len(files))
		}
	} else {
		files = generatedFiles(c)
	}
	hot, hotDirs := hotFiles(c)
	r.pop = newPopulation(files, hot, hotDirs)
	rep.Config["files"], rep.Config["workers"] = len(r.pop.files), clCfg.Workers

	// One plane spans every shard's cluster view, so serve reads and movement
	// contend for the physical device channels across shards.
	var plane *storage.ContendedPlane
	if c.Dataplane == "contended" {
		plane = storage.NewContendedPlane(storage.PlaneConfig{Tenants: server.PlaneTenants(r.tenants)})
		clCfg.Plane = plane
		if c.Obs != nil {
			// Per-device plane signals as a dynamic collector: the channel set
			// changes under node churn, so membership is resolved per scrape.
			c.Obs.Registry().Collector(func(emit obs.Emit) {
				for _, d := range plane.DeviceStats() {
					l := obs.Labels{"device": d.ID}
					emit("octo_plane_device_grants_total", l, "counter", float64(d.Grants))
					emit("octo_plane_device_saturated_total", l, "counter", float64(d.Saturated))
					emit("octo_plane_device_avg_queue_ns", l, "gauge", float64(d.AvgQueue.Nanoseconds()))
					emit("octo_plane_device_read_horizon_ns", l, "gauge", float64(d.ReadHorizonNS))
					emit("octo_plane_device_write_horizon_ns", l, "gauge", float64(d.WriteHorizonNS))
				}
			})
		}
	}

	var locals []*backend.Local
	var backendRoot string
	var mkBackend func(shard int) backend.Backend
	if c.Backend == "real" {
		var cleanup func()
		var err error
		if locals, backendRoot, cleanup, err = openLocals(c); err != nil {
			return err
		}
		defer cleanup()
		mkBackend = func(shard int) backend.Backend { return locals[shard] }
	}

	// One engine, manager and shard loop per namespace shard over
	// quota-sliced cluster views. -scenario hands shard 0's manager to the
	// attached replay.
	mgrs := make([]*core.Manager, c.Shards)
	scfg := c.sharded(clCfg, mgrs)
	scfg.Backend = mkBackend
	scfg.Inner.Tenants = r.tenants
	srv, err := server.NewSharded(scfg)
	if err != nil {
		return err
	}
	r.srv = srv
	srv.Start()
	defer srv.Close()

	r.preload()

	// Scenario perturbations start with the load phase, after preload. The
	// installer runs on the shard loop (-scenario implies -shards 1), so
	// scenario callbacks interleave with serving commands on the engine they
	// expect to own.
	if sc != nil {
		srv.Exec(func(shard int, fs *dfs.FileSystem) {
			scenario.Attach(*sc, &scenario.Replay{
				System:  scenario.System{Name: c.Down + "/" + c.Up, Mode: dfs.ModeOctopus, Down: c.Down, Up: c.Up},
				Opts:    scOpts,
				Engine:  fs.Engine(),
				Cluster: fs.Cluster(),
				FS:      fs,
				Manager: mgrs[shard],
			})
		})
	}

	// Load phase, with the time-series sampler windowing the cumulative op
	// counter and the merged read histogram into the over-time curve.
	stopSampler := r.startSampler()
	switch c.Arrival {
	case "open":
		rep.Open = r.driveOpen()
	default:
		r.driveClosed()
	}
	r.elapsed = time.Since(r.start)
	series := stopSampler()
	rep.TimeSeries = TimeSeriesBlock{
		WindowSeconds: c.Window.Seconds(),
		PeakOpsPerSec: series.PeakOpsPerSec(),
		Points:        series.Points(),
	}

	srv.Flush()
	// Close before verifying so Verify sees fully quiescent shards (no pacer,
	// reconcile tick, or policy-tick borrow can move capacity between
	// per-shard snapshots).
	srv.Close()
	rep.Violations = srv.Verify()
	r.assemble(rep, plane)

	if locals != nil {
		all := make([]backend.Stats, len(locals))
		for i, l := range locals {
			all[i] = l.Stats()
		}
		cal := backend.Calibrate("real", backendRoot, backendSync, backend.MergeStats(all...))
		rep.Backend = &cal
		rep.Violations = append(rep.Violations, backendVacuity(cal)...)
	}

	if c.MemProfile != "" {
		// The KeepAlives hold the served world live across the profile write:
		// without them the GC (liveness-based, not scope-based) would have
		// collected the namespace already and the inuse profile would show an
		// empty heap instead of the retained per-file footprint.
		runtime.GC()
		f, err := os.Create(c.MemProfile)
		if err != nil {
			return err
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		runtime.KeepAlive(srv)
		runtime.KeepAlive(r.pop)
	}
	return nil
}

// cluster is the driver's own world: -workers nodes of one memory, one SSD
// and two HDD devices at the flag capacities.
func (c *Config) cluster() cluster.Config {
	return cluster.Config{Workers: c.Workers, SlotsPerNode: 4,
		Spec: storage.PaperMediaSpec(c.MemCapMB*storage.MB, c.SSDCapMB*storage.MB, c.HDDCapMB*storage.MB, 2)}
}

// sharded is the serving stack every run stands up over clCfg: one engine,
// manager (kept in mgrs) and shard loop per namespace shard over
// quota-sliced cluster views, the flag policies, the flag executor.
func (c *Config) sharded(clCfg cluster.Config, mgrs []*core.Manager) server.ShardedConfig {
	lcfg := ml.DefaultLearnerConfig()
	lcfg.Seed = c.Seed
	return server.ShardedConfig{
		Shards:  c.Shards,
		Cluster: clCfg,
		DFS:     dfs.Config{Mode: dfs.ModeOctopus, Seed: c.Seed, ClientRate: 2000e6},
		Build: func(shard int, fs *dfs.FileSystem) (mgr *core.Manager, err error) {
			mgrs[shard], err = policy.NewManager(fs, c.Down, c.Up, lcfg)
			return mgrs[shard], err
		},
		Rebalance: server.RebalanceConfig{Enabled: c.Rebalance},
		Inner: server.Config{
			TimeScale: c.TimeScale,
			Executor: server.ExecutorConfig{
				WorkersPerTier: moveWorkers,
				QueueDepth:     c.MoveQueue,
				BudgetBytes:    [3]int64{c.BudgetMB[0] * storage.MB, c.BudgetMB[1] * storage.MB, c.BudgetMB[2] * storage.MB},
			},
			Obs: c.Obs,
		},
	}
}

// backendVacuity is the real backend's own check: a run that did no physical
// I/O measured the simulator — the backend silently detached from the write
// path (some tier wrote nothing) or from the serve path (nothing was read).
func backendVacuity(cal backend.Calibration) (violations []string) {
	var reads int64
	for _, t := range cal.Tiers {
		reads += t.Read.Count
		if t.Write.Count == 0 || t.Write.Bytes == 0 {
			violations = append(violations, fmt.Sprintf("backend: tier %s did no physical writes", t.Tier))
		}
	}
	if reads == 0 {
		violations = append(violations, "backend: no tier recorded a physical read (serve path detached from backend)")
	}
	return violations
}

// openLocals opens one Local backend per shard under a shared root (block
// ids are per-FileSystem, so shards must not share a directory tree): the
// explicit -backend-root, which is kept, or a temp dir that cleanup removes.
// The memory tier lands on tmpfs when the platform has one, so its measured
// latencies are memory-speed rather than disk-speed.
func openLocals(c *Config) (locals []*backend.Local, root string, cleanup func(), err error) {
	var scratch []string
	cleanup = func() {
		for _, d := range scratch {
			os.RemoveAll(d)
		}
	}
	if root = c.BackendRoot; root == "" {
		if root, err = os.MkdirTemp("", "octoload-backend-"); err != nil {
			return nil, "", nil, err
		}
		scratch = append(scratch, root)
	}
	memRoot := ""
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		if dir, err := os.MkdirTemp("/dev/shm", "octoload-mem-"); err == nil {
			memRoot = dir
			scratch = append(scratch, dir)
		}
	}
	for i := 0; i < c.Shards; i++ {
		lcfg := backend.LocalConfig{Root: filepath.Join(root, fmt.Sprintf("shard%d", i)), SyncWrites: backendSync}
		if memRoot != "" {
			lcfg.TierDirs[storage.Memory] = filepath.Join(memRoot, fmt.Sprintf("shard%d", i))
		}
		l, err := backend.OpenLocal(lcfg)
		if err != nil {
			cleanup()
			return nil, "", nil, err
		}
		locals = append(locals, l)
	}
	return locals, root, cleanup, nil
}

// preload stages the population through the serving layer: creates are
// submitted and their completions reaped through a bounded FIFO instead of
// blocking per create. A blocking create pays one pacer tick of wall
// latency; at a million files that dominates the run, while the pipeline
// keeps the shard loops fed and completes creates in bulk as virtual time
// advances.
func (r *run) preload() {
	type pend struct {
		path string
		ch   <-chan error
	}
	// 1024 in flight: deep enough to keep every shard loop busy across a
	// pacer tick, small enough that a million-file stage holds no more than
	// that many completion channels at once.
	pending := make(chan pend, 1024)
	reaped := make(chan struct{})
	go func() {
		defer close(reaped)
		var errs int
		for p := range pending {
			if err := <-p.ch; err != nil {
				if errs < 5 {
					fmt.Fprintf(os.Stderr, "loadgen: preload %s: %v\n", p.path, err)
				}
				errs++
			}
		}
		if errs > 5 {
			fmt.Fprintf(os.Stderr, "loadgen: preload: %d errors total\n", errs)
		}
	}()
	for i, f := range r.pop.files {
		pending <- pend{path: f.Path, ch: r.srv.Submit(server.Op{
			Kind: server.OpCreate, Path: f.Path, Size: f.Size, Tenant: r.tenantOf(i),
		})}
	}
	close(pending)
	<-reaped
}

// startSampler runs the time-series collector on a ticker: every window it
// snapshots the cumulative op counter and the merged read histogram and
// closes a window. The returned stop function halts sampling and hands back
// the collector.
func (r *run) startSampler() func() *obs.Series {
	sample := func() obs.SeriesSample {
		s := obs.SeriesSample{Ops: r.ops.Load()}
		for _, m := range storage.AllMedia {
			cts := r.srv.ReadLatency(m).Counts()
			for i := range s.Read {
				s.Read[i] += cts[i]
			}
		}
		return s
	}
	coll := obs.NewSeries(time.Now(), sample())
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(r.cfg.Window)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				coll.Sample(now, sample())
			}
		}
	}()
	return func() *obs.Series {
		close(stop)
		<-done
		return coll
	}
}

// exec issues one generated op and counts it. The zero at means "now on the
// server's clock"; open-loop ops carry the virtual time of their intended
// arrival. Refusals (busy under movement, no capacity) are expected outcomes
// and still count as completed ops.
func (r *run) exec(o op, at time.Time, tenant storage.TenantID) error {
	var err error
	if o.kind == opStat {
		_, err = r.srv.Stat(o.path)
	} else {
		_, err = r.srv.Do(server.Op{Kind: o.kind.serverKind(), Path: o.path, Size: o.size, At: at, Tenant: tenant})
	}
	r.ops.Add(1)
	if r.past.Load() {
		r.drained.Add(1)
	}
	return err
}

// begin opens the load window: it stamps the start and arms the deadline.
func (r *run) begin() {
	r.start = time.Now()
	time.AfterFunc(r.cfg.Dur, func() { r.past.Store(true) })
}

// awaitDrain waits for the workers, calling expired once if they are still
// busy when the -drain budget runs out.
func (r *run) awaitDrain(wg *sync.WaitGroup, expired func()) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Until(r.start.Add(r.cfg.Dur + r.cfg.Drain))):
		expired()
		<-done
	}
}

// driveClosed is the closed arrival process: -clients clients, each with its
// own generator, each issuing its next op when the previous one completes,
// until the deadline. A closed-loop op cannot be interrupted mid-call, so
// when the drain budget runs out the driver warns and keeps waiting rather
// than tear the server down under live clients.
func (r *run) driveClosed() {
	c := r.cfg
	r.begin()
	var wg sync.WaitGroup
	for cli := 0; cli < c.Clients; cli++ {
		wg.Add(1)
		go func(cli int) {
			defer wg.Done()
			g := newGenerator(c, r.pop, cli, c.Seed*1000+int64(cli))
			tenant := r.tenantOf(cli)
			for !r.past.Load() {
				o := g.next()
				g.done(o, r.exec(o, time.Time{}, tenant))
			}
		}(cli)
	}
	r.awaitDrain(&wg, func() {
		fmt.Fprintf(os.Stderr, "loadgen: ops still in flight %v past the deadline; waiting\n", c.Drain)
	})
}

// scheduledOp is one open-loop arrival: an op and its intended arrival time
// relative to load start.
type scheduledOp struct {
	op
	offset time.Duration
}

// openSchedule draws Poisson arrivals (exponential inter-arrival times at
// -rate) over the load window and assigns each the generator's next op. The
// whole schedule is decided up front — so it is deterministic for a seed and
// the dispatcher's only job is to fire each op at its wall time — which means
// outcomes cannot feed back: every op is assumed to succeed.
func openSchedule(c *Config, pop *population) []scheduledOp {
	g := newGenerator(c, pop, 0, c.Seed*7717)
	arrivals := rand.New(rand.NewSource(c.Seed*7717 + 1))
	mean := float64(time.Second) / c.Rate
	var schedule []scheduledOp
	for at := time.Duration(0); ; {
		at += time.Duration(arrivals.ExpFloat64() * mean)
		if at >= c.Dur {
			return schedule
		}
		o := g.next()
		g.done(o, nil)
		schedule = append(schedule, scheduledOp{op: o, offset: at})
	}
}

// driveOpen is the open arrival process: a dispatcher enqueues each scheduled
// op at its intended wall time (never blocking on completions — the queue
// holds the whole schedule), -clients workers execute them, and latency is
// measured from the intended arrival so queueing delay under overload shows
// up in the histograms instead of silently stretching the arrival process.
func (r *run) driveOpen() *OpenBlock {
	c := r.cfg
	schedule := openSchedule(c, r.pop)
	work := make(chan int, len(schedule)+1) // schedule indices; holds them all, so the dispatcher never blocks
	r.begin()
	var abandoned, late atomic.Int64
	var abandon atomic.Bool
	var accessHist, mutateHist, latenessHist server.Histogram
	virtBase := r.srv.Clock()

	var wg sync.WaitGroup
	for w := 0; w < c.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range work {
				if abandon.Load() {
					abandoned.Add(1)
					continue
				}
				q := schedule[seq]
				intended := r.start.Add(q.offset)
				lateness := max(time.Since(intended), 0)
				latenessHist.Observe(lateness)
				if lateness > time.Millisecond {
					late.Add(1)
				}
				// The virtual stamp tracks the intended arrival, not the
				// dispatch: the policy layer sees the arrival process even
				// when the dispatcher runs behind.
				virt := virtBase.Add(time.Duration(float64(q.offset) * c.TimeScale))
				r.exec(q.op, virt, r.tenantOf(seq))
				if q.kind == opAccess || q.kind == opStat {
					accessHist.Observe(time.Since(intended))
				} else {
					mutateHist.Observe(time.Since(intended))
				}
			}
		}()
	}

	var backlogPeak int64
	for i, so := range schedule {
		if d := time.Until(r.start.Add(so.offset)); d > 0 {
			time.Sleep(d)
		}
		work <- i
		if q := int64(len(work)); q > backlogPeak {
			backlogPeak = q
		}
	}
	close(work)
	// Workers check the abandon flag per op, so once the drain budget is
	// spent the queue empties at memory speed and the wait is bounded by one
	// in-flight op per worker.
	r.awaitDrain(&wg, func() { abandon.Store(true) })

	return &OpenBlock{
		RateOpsPerSec: c.Rate,
		Scheduled:     int64(len(schedule)),
		Dispatched:    int64(len(schedule)),
		Completed:     r.ops.Load(),
		Drained:       r.drained.Load(),
		Abandoned:     abandoned.Load(),
		LateDispatch:  late.Load(),
		BacklogPeak:   backlogPeak,
		Lateness:      latencyBlock(&latenessHist),
		Access:        latencyBlock(&accessHist),
		Mutate:        latencyBlock(&mutateHist),
	}
}
