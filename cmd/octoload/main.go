// Command octoload is the traffic driver for the concurrent serving layer:
// it stands up a managed tiered DFS behind internal/server,
// stages a file population drawn from the internal/workload generators,
// then hammers the service with N concurrent clients issuing a configurable
// mix of zipf-skewed accesses, stats, creates, and deletes while the
// movement executor shuffles replicas between tiers underneath.
//
// The service is always server.ShardedServer: one engine, manager, candidate
// index, and single-writer shard loop per namespace shard (-shards, default
// 1), with per-shard capacity quotas reconciled against the global tier
// ledger through the two-phase borrow protocol once there is more than one.
// With -scenario the driver attaches
// to a scenario catalog entry instead of building its own world: the
// scenario supplies the cluster topology and file population, and its
// perturbations (ballast floods, node churn, client surges) run against the
// served system while the clients drive load — surge traffic and
// perturbations compose into one BENCH_serve report.
//
// At the end it fences the server, runs the full invariant suite
// (capacity accounting, deep structural checks, candidate-index audit,
// ledger conservation, movement budgets), and reports ops/s plus p50/p99
// latency histograms, written as JSON to -out (BENCH_serve.json by default)
// for CI trend tracking. The process exits non-zero if any invariant was
// violated — a load run is a correctness artifact, not just a throughput
// number.
//
// Examples:
//
//	octoload                                   # 8 clients, 5s, FB-shaped files
//	octoload -shards 4                         # 4 shard loops
//	octoload -scenario node-churn -dur 8s -timescale 900   # compose load with churn
//	octoload -clients 32 -dur 10s -zipf 1.3
//	octoload -down xgb -up xgb -timescale 300
//	octoload -budget-mem 128 -move-queue 16    # stress shedding
//	octoload -shards 4 -tenants 2 -dataplane contended   # weighted-fair QoS
//	octoload -tenants 2 -dataplane contended -read-slo 40ms  # SLO admission control
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
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

type config struct {
	clients   int
	dur       time.Duration
	files     int
	workloadN string
	fileSzMB  int64
	scenarioN string
	zipfS     float64
	readFrac  float64
	statFrac  float64
	muteFrac  float64 // create+delete combined; split evenly
	workers   int
	memCapMB  int64
	ssdCapMB  int64
	hddCapMB  int64
	down, up  string
	timeScale float64
	seed      int64
	out       string

	arrival    string
	rate       float64
	window     time.Duration
	drain      time.Duration
	memProfile string

	shards      int
	hotdir      float64
	rebalance   bool
	quotaFrac   float64
	moveWorkers int
	moveQueue   int
	budgetMB    [3]int64
	rateMBps    [3]int64
	dataplane   string

	tenants   int
	readSLO   time.Duration
	tenantCfg []server.TenantConfig

	obsListen string
	tracePath string
	hub       *obs.Hub // set in main when either obs flag is on

	backendN    string
	backendRoot string
	backendOut  string
	backendSync bool
	// mkBackend is set in main on -backend real: a per-shard factory over
	// the opened Local instances (block ids are per-FileSystem, so shards
	// must not share a directory tree).
	mkBackend func(shard int) backend.Backend
}

func parseFlags() config {
	var c config
	flag.IntVar(&c.clients, "clients", 8, "concurrent closed-loop clients")
	flag.DurationVar(&c.dur, "dur", 5*time.Second, "load duration (wall clock)")
	flag.IntVar(&c.files, "files", 150, "approximate staged file population (scales the workload generator)")
	flag.StringVar(&c.workloadN, "workload", "fb", "file population shape: fb, cmu (internal/workload profiles), or fixed (-files uniform files of -filesize MB; cheap to stage at million-file scale)")
	flag.Int64Var(&c.fileSzMB, "filesize", 1, "file size in MB for -workload fixed")
	flag.StringVar(&c.scenarioN, "scenario", "", "attach to a scenario catalog entry: its cluster, population, and perturbations compose with the client load (see internal/scenario)")
	flag.Float64Var(&c.zipfS, "zipf", 1.1, "zipf skew of the access key distribution (>1)")
	flag.Float64Var(&c.readFrac, "readfrac", 0.82, "fraction of ops that are accesses")
	flag.Float64Var(&c.statFrac, "statfrac", 0.10, "fraction of ops that are stats/lists")
	flag.IntVar(&c.workers, "workers", 5, "cluster worker count")
	flag.Int64Var(&c.memCapMB, "memcap", 256, "memory-tier capacity per worker in MB (small keeps movement busy)")
	flag.Int64Var(&c.ssdCapMB, "ssdcap", 16*1024, "SSD-tier capacity per worker in MB (small forces HDD-resident files, so all three tiers serve)")
	flag.Int64Var(&c.hddCapMB, "hddcap", 128*1024, "HDD capacity per device in MB (two devices per worker; raise for million-file populations)")
	flag.StringVar(&c.down, "down", "lru", "downgrade policy")
	flag.StringVar(&c.up, "up", "osa", "upgrade policy")
	flag.Float64Var(&c.timeScale, "timescale", 120, "virtual seconds advanced per wall second")
	flag.Int64Var(&c.seed, "seed", 1, "population/placement/client seed")
	flag.StringVar(&c.out, "out", "BENCH_serve.json", "JSON report path (empty disables)")
	flag.StringVar(&c.arrival, "arrival", "closed", "arrival process: closed (N clients, next op after previous completes) or open (ops fire at a precomputed Poisson schedule regardless of completion; latency is measured from the intended arrival, so queueing delay is not coordinated away)")
	flag.Float64Var(&c.rate, "rate", 0, "open-loop target arrival rate in ops/s (required with -arrival open)")
	flag.DurationVar(&c.window, "window", 0, "time-series window for the over-time ops/s + read-latency curve (0 = 1s in open mode, disabled in closed mode)")
	flag.DurationVar(&c.drain, "drain", 30*time.Second, "how long to wait after the deadline for in-flight/queued ops before abandoning them")
	flag.StringVar(&c.memProfile, "memprofile", "", "write a heap profile here at the end of the run (population still live)")
	flag.IntVar(&c.shards, "shards", 1, "namespace shards (each with its own engine, manager, and shard loop)")
	flag.Float64Var(&c.hotdir, "hotdir", 0, "fraction of access traffic concentrated in one hot subtree whose directories all hash to a single shard — the adversarial skew the static parent-dir routing cannot spread (0 disables)")
	flag.BoolVar(&c.rebalance, "rebalance", false, "enable the dynamic shard rebalancer: hot-prefix detection, live subtree migration, route-table overrides (requires -shards >= 2)")
	flag.Float64Var(&c.quotaFrac, "quota-frac", 0.5, "fraction of tier capacity granted to shard quotas up front (rest is borrowable pool)")
	flag.IntVar(&c.moveWorkers, "move-workers", 2, "movement executor slots per destination tier")
	flag.IntVar(&c.moveQueue, "move-queue", 64, "movement executor queue depth per tier")
	flag.Int64Var(&c.budgetMB[0], "budget-mem", 512, "memory-tier movement token bucket (MB, burst)")
	flag.Int64Var(&c.budgetMB[1], "budget-ssd", 1024, "SSD-tier movement token bucket (MB, burst)")
	flag.Int64Var(&c.budgetMB[2], "budget-hdd", 2048, "HDD-tier movement token bucket (MB, burst)")
	flag.Int64Var(&c.rateMBps[0], "rate-mem", 0, "memory-tier movement refill rate (MB per virtual second, 0 = default)")
	flag.Int64Var(&c.rateMBps[1], "rate-ssd", 0, "SSD-tier movement refill rate (MB per virtual second, 0 = default)")
	flag.Int64Var(&c.rateMBps[2], "rate-hdd", 0, "HDD-tier movement refill rate (MB per virtual second, 0 = default)")
	flag.StringVar(&c.dataplane, "dataplane", "none", "data-plane profile: none (free reads, uncontended movement — the pre-data-plane semantics) or contended (per-physical-device service time + shared bandwidth arbitration across shards)")
	flag.IntVar(&c.tenants, "tenants", 0, "tenant count: >= 2 tags client traffic round-robin (tenant 1 heaviest) and schedules the contended plane weighted-fair; requires -dataplane contended")
	flag.DurationVar(&c.readSLO, "read-slo", 0, "tenant 1's read p99 target (tier-real virtual latency); breaches defer background movement; requires -tenants >= 2")
	flag.StringVar(&c.obsListen, "obs-listen", "", "serve /metrics (Prometheus text), /metrics.json, /flight, and /debug/pprof on this address for the duration of the run (e.g. :9100 or 127.0.0.1:0; empty disables)")
	flag.StringVar(&c.tracePath, "trace", "", "write sampled per-op spans, movement provenance, and events as JSONL to this file (empty disables)")
	flag.StringVar(&c.backendN, "backend", "sim", "storage backend: sim (virtual-clock only, the default semantics) or real (every replica is a file on disk; block copies, reads, and deletes do real I/O alongside the simulated control plane)")
	flag.StringVar(&c.backendRoot, "backend-root", "", "tier directory root for -backend real (default: a temp dir, removed at exit; an explicit root is kept)")
	flag.StringVar(&c.backendOut, "backend-out", "BENCH_backend.json", "calibration report path for -backend real: measured per-tier wall latencies and MB/s next to the simulator's media profiles (empty disables)")
	flag.BoolVar(&c.backendSync, "backend-sync", false, "fsync every real-backend write (durability-realistic latencies; much slower)")
	flag.Parse()
	c.muteFrac = 1 - c.readFrac - c.statFrac
	if c.muteFrac < 0 {
		fmt.Fprintln(os.Stderr, "octoload: readfrac + statfrac exceed 1")
		os.Exit(2)
	}
	if c.zipfS <= 1 {
		fmt.Fprintln(os.Stderr, "octoload: -zipf must be > 1 (rand.NewZipf requirement)")
		os.Exit(2)
	}
	if c.files < 2 {
		fmt.Fprintln(os.Stderr, "octoload: -files must be at least 2")
		os.Exit(2)
	}
	if c.clients < 1 {
		fmt.Fprintln(os.Stderr, "octoload: -clients must be at least 1")
		os.Exit(2)
	}
	if c.shards < 1 {
		fmt.Fprintln(os.Stderr, "octoload: -shards must be at least 1")
		os.Exit(2)
	}
	if c.dataplane != "none" && c.dataplane != "contended" {
		fmt.Fprintln(os.Stderr, "octoload: -dataplane must be none or contended")
		os.Exit(2)
	}
	if c.tenants < 0 {
		fmt.Fprintln(os.Stderr, "octoload: -tenants must be non-negative")
		os.Exit(2)
	}
	if c.tenants >= 2 && c.dataplane != "contended" {
		// Tenant weights only mean something on the shared plane; a tagged
		// run without it would silently measure nothing.
		fmt.Fprintln(os.Stderr, "octoload: -tenants requires -dataplane contended")
		os.Exit(2)
	}
	if c.readSLO > 0 && c.tenants < 2 {
		fmt.Fprintln(os.Stderr, "octoload: -read-slo requires -tenants >= 2")
		os.Exit(2)
	}
	if c.tenants >= 2 {
		// Tenant i+1 gets weight N-i: tenant 1 is the protected heavyweight
		// (the CI victim gate watches its p99), the last tenant the
		// best-effort flood.
		for i := 0; i < c.tenants; i++ {
			tc := server.TenantConfig{ID: storage.TenantID(i + 1), Weight: float64(c.tenants - i)}
			if i == 0 {
				tc.ReadSLO = c.readSLO
			}
			c.tenantCfg = append(c.tenantCfg, tc)
		}
	}
	if c.arrival != "closed" && c.arrival != "open" {
		fmt.Fprintln(os.Stderr, "octoload: -arrival must be closed or open")
		os.Exit(2)
	}
	if c.arrival == "open" {
		if c.rate <= 0 {
			fmt.Fprintln(os.Stderr, "octoload: -arrival open requires -rate > 0")
			os.Exit(2)
		}
		if c.timeScale <= 0 {
			// Open-loop ops carry virtual stamps derived from the service
			// clock; replay mode (timescale 0) has no live clock to stamp from.
			fmt.Fprintln(os.Stderr, "octoload: -arrival open requires -timescale > 0")
			os.Exit(2)
		}
		if c.window == 0 {
			c.window = time.Second
		}
	}
	if c.fileSzMB < 1 {
		fmt.Fprintln(os.Stderr, "octoload: -filesize must be at least 1")
		os.Exit(2)
	}
	if c.scenarioN != "" && c.shards != 1 {
		// Scenario perturbations mutate one replay's engine/fs; the sharded
		// core would need the fan-out churn API instead. Keep the
		// composition single-shard until scenarios learn to shard.
		fmt.Fprintln(os.Stderr, "octoload: -scenario requires -shards 1")
		os.Exit(2)
	}
	if c.hotdir < 0 || c.hotdir >= 1 {
		fmt.Fprintln(os.Stderr, "octoload: -hotdir must be in [0, 1)")
		os.Exit(2)
	}
	if c.hotdir > 0 && c.arrival != "closed" {
		// The open-loop schedule generator has no hot-subtree branch; fail
		// loudly rather than silently measure an unskewed run.
		fmt.Fprintln(os.Stderr, "octoload: -hotdir requires -arrival closed")
		os.Exit(2)
	}
	if c.hotdir > 0 && c.scenarioN != "" {
		fmt.Fprintln(os.Stderr, "octoload: -hotdir composes with the generated population, not -scenario")
		os.Exit(2)
	}
	if c.rebalance && c.shards < 2 {
		fmt.Fprintln(os.Stderr, "octoload: -rebalance requires -shards >= 2")
		os.Exit(2)
	}
	if c.backendN != "sim" && c.backendN != "real" {
		fmt.Fprintln(os.Stderr, "octoload: -backend must be sim or real")
		os.Exit(2)
	}
	return c
}

// hotPopulation stages the hot subtree for -hotdir: directories under /hot
// chosen (by probing the exported routing hash) so every one of them lands
// on the SAME shard under static routing — the layout that pins one shard
// loop while the others idle. The dirs are individually migratable, so the
// rebalancer can drain the hot shard one subtree at a time. It returns the
// staged specs and the dir list: the load phase concentrates both reads and
// creates in these dirs, because a hot subtree in a real cluster is an
// active job's working set — it takes writes, not just reads.
func hotPopulation(c config) ([]workload.FileSpec, []string) {
	if c.hotdir <= 0 {
		return nil, nil
	}
	const hotDirs = 8
	perDir := c.files / (4 * hotDirs)
	if perDir < 4 {
		perDir = 4
	}
	target := -1
	var specs []workload.FileSpec
	var dirs []string
	for i := 0; len(dirs) < hotDirs && i < 10000; i++ {
		dir := fmt.Sprintf("/hot/d%03d", i)
		if target == -1 {
			target = server.RouteShard(dir, c.shards)
		}
		if server.RouteShard(dir, c.shards) != target {
			continue
		}
		for f := 0; f < perDir; f++ {
			specs = append(specs, workload.FileSpec{
				Path: fmt.Sprintf("%s/f%04d", dir, f),
				Size: 8 * storage.MB,
			})
		}
		dirs = append(dirs, dir)
	}
	return specs, dirs
}

// population stages file specs from the workload generators: the profile's
// heavy-tailed bin distribution supplies realistic path/size shapes without
// re-inventing a generator here.
func population(c config) []workload.FileSpec {
	var p workload.Profile
	switch c.workloadN {
	case "fb", "FB":
		p = workload.FB()
	case "cmu", "CMU":
		p = workload.CMU()
	case "fixed":
		// Uniform fixed-size files, generated locally: the bin-profile
		// generators walk heavy-tailed job shapes and are needlessly slow at
		// million-file scale when all the smoke test needs is "N files exist".
		files := make([]workload.FileSpec, c.files)
		for i := range files {
			files[i] = workload.FileSpec{
				Path: fmt.Sprintf("/load/d%04d/f%07d", i/1024, i),
				Size: c.fileSzMB * storage.MB,
			}
		}
		return files
	default:
		fmt.Fprintf(os.Stderr, "octoload: unknown workload %q\n", c.workloadN)
		os.Exit(2)
	}
	p.NumJobs = c.files
	// Cap at bin D so single files fit the load cluster's SSD tier.
	p = workload.CapProfile(p, workload.BinD)
	return workload.Generate(p, c.seed).Files
}

func workerSpec(memCapMB, ssdCapMB, hddCapMB int64) storage.NodeSpec {
	return storage.NodeSpec{
		{Media: storage.Memory, Capacity: memCapMB * storage.MB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
		{Media: storage.SSD, Capacity: ssdCapMB * storage.MB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
		{Media: storage.HDD, Capacity: hddCapMB * storage.MB, ReadBW: 160e6, WriteBW: 140e6, Count: 2},
	}
}

// report is the BENCH_serve.json schema.
type report struct {
	Config         map[string]any `json:"config"`
	ElapsedSeconds float64        `json:"elapsed_seconds"`
	Ops            int64          `json:"ops"`
	OpsPerSec      float64        `json:"ops_per_sec"`
	Access         latencyBlock   `json:"access"`
	Mutate         latencyBlock   `json:"mutate"`
	// Read is the tier-real virtual read latency across all tiers (device
	// queueing + base + transfer from the data plane); zero counts with
	// -dataplane none. ReadTiers breaks it down per serving tier.
	Read      latencyBlock       `json:"read"`
	ReadTiers []tierLatencyBlock `json:"read_tiers,omitempty"`
	// ReadTenants breaks the tier-real read latency down per tenant
	// (present only on -tenants runs); the CI victim gate watches the
	// lowest-id (heaviest-weight) tenant's p99.
	ReadTenants []tenantLatencyBlock `json:"read_tenants,omitempty"`
	// Open and TimeSeries are present only on -arrival open runs (and
	// TimeSeries on closed runs with an explicit -window): the closed-loop
	// default schema stays exactly as it was.
	Open       *openBlock        `json:"open,omitempty"`
	TimeSeries *timeSeriesBlock  `json:"timeseries,omitempty"`
	SLO        *sloReport        `json:"slo,omitempty"`
	Plane      []planeTierReport `json:"plane,omitempty"`
	Serve      server.ServeStats `json:"serve"`
	// Shards and ImbalanceRatio appear only on -shards > 1 runs: per-shard
	// serving counters and max/mean of per-shard total ops — the skew signal
	// the rebalancer exists to flatten. Rebalance appears only on -rebalance
	// runs. benchgate treats their absence as a pre-rebalancing baseline.
	Shards         []shardReport          `json:"shard_stats,omitempty"`
	ImbalanceRatio float64                `json:"imbalance_ratio,omitempty"`
	Rebalance      *server.RebalanceStats `json:"rebalance,omitempty"`
	Executor       []tierReport           `json:"executor"`
	Quota          server.QuotaStats      `json:"quota"`
	Violations     []string               `json:"violations"`
}

type shardReport struct {
	Shard     int     `json:"shard"`
	Ops       int64   `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Accesses  int64   `json:"accesses"`
	Creates   int64   `json:"creates"`
	Deletes   int64   `json:"deletes"`
}

// shardOps is the per-shard serving volume the imbalance ratio is computed
// over: every namespace op the shard loop executed.
func shardOps(st server.ServeStats) int64 {
	return st.Accesses + st.Creates + st.Deletes + st.Stats + st.Lists
}

type latencyBlock struct {
	Count int64   `json:"count"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
}

type tierLatencyBlock struct {
	Tier string `json:"tier"`
	latencyBlock
}

type tenantLatencyBlock struct {
	Tenant int     `json:"tenant"`
	Weight float64 `json:"weight"`
	latencyBlock
}

// openBlock reports the open-loop arrival process: how faithfully the
// dispatcher hit the schedule and what latency looks like when measured
// from the *intended* arrival time rather than the dispatch time — the
// coordinated-omission-corrected numbers a closed loop cannot produce.
type openBlock struct {
	RateOpsPerSec float64 `json:"rate_ops_per_sec"`
	Scheduled     int64   `json:"scheduled"`
	Dispatched    int64   `json:"dispatched"`
	Completed     int64   `json:"completed"`
	// Drained counts ops that completed after the deadline (the backlog the
	// drain phase worked off); Abandoned counts queued ops discarded when
	// the -drain budget ran out.
	Drained   int64 `json:"drained"`
	Abandoned int64 `json:"abandoned"`
	// LateDispatch counts ops handed to a worker more than 1ms past their
	// intended arrival; BacklogPeak is the queue high-water mark.
	LateDispatch int64 `json:"late_dispatch"`
	BacklogPeak  int64 `json:"backlog_peak"`
	// Lateness is dequeue-time minus intended arrival; Access/Mutate are
	// completion minus intended arrival (service time plus queueing delay).
	Lateness latencyBlock `json:"lateness"`
	Access   latencyBlock `json:"access"`
	Mutate   latencyBlock `json:"mutate"`
}

type timeSeriesBlock struct {
	WindowSeconds float64           `json:"window_seconds"`
	PeakOpsPerSec float64           `json:"peak_ops_per_sec"`
	Points        []obs.SeriesPoint `json:"points"`
}

type sloReport struct {
	Checks   int64 `json:"checks"`
	Breaches int64 `json:"breaches"`
	Defers   int64 `json:"defers"`
}

type planeTierReport struct {
	Tier string `json:"tier"`
	storage.TierPlaneStats
}

type tierReport struct {
	Tier string `json:"tier"`
	server.TierMoveStats
}

func toLatencyBlock(h *server.Histogram) latencyBlock {
	return latencyBlock{
		Count: h.Count(),
		P50us: float64(h.Quantile(0.50).Nanoseconds()) / 1e3,
		P99us: float64(h.Quantile(0.99).Nanoseconds()) / 1e3,
	}
}

// Open-loop machinery. The schedule is precomputed before the load phase —
// virtual arrival times, op kinds, and targets are all decided by the seeded
// rng up front, so the op sequence is deterministic for a given seed and the
// dispatcher's only job at runtime is to fire each op at its wall time.
type openOp struct {
	offset time.Duration // intended arrival, relative to load start
	kind   uint8
	seq    int32 // schedule index (tenant assignment)
	path   string
	size   int64
}

const (
	opAccess = iota
	opStat
	opCreate
	opDelete
)

// buildOpenSchedule draws Poisson arrivals (exponential inter-arrival times
// at -rate) over the run duration and pre-assigns each arrival an op from
// the same mix the closed loop uses. Deletes target earlier scheduled
// creates, mirroring the closed loop's own-files-only delete discipline.
func buildOpenSchedule(c config, paths []string) []openOp {
	rng := rand.New(rand.NewSource(c.seed * 7717))
	zipf := rand.NewZipf(rng, c.zipfS, 1, uint64(len(paths)-1))
	mean := float64(time.Second) / c.rate
	var schedule []openOp
	var own []string
	scratch := 0
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() * mean)
		if at >= c.dur {
			return schedule
		}
		op := openOp{offset: at, seq: int32(len(schedule))}
		switch r := rng.Float64(); {
		case r < c.readFrac:
			op.kind, op.path = opAccess, paths[zipf.Uint64()]
		case r < c.readFrac+c.statFrac:
			op.kind, op.path = opStat, paths[rng.Intn(len(paths))]
		case rng.Float64() < 0.5 || len(own) == 0:
			op.kind = opCreate
			op.path = fmt.Sprintf("/scratch/open/f%07d", scratch)
			scratch++
			op.size = (4 + rng.Int63n(60)) * storage.MB
			own = append(own, op.path)
		default:
			op.kind = opDelete
			op.path = own[len(own)-1]
			own = own[:len(own)-1]
		}
		schedule = append(schedule, op)
	}
}

// runOpen drives the precomputed schedule: a dispatcher enqueues each op at
// its intended wall time (never blocking on completions — the queue holds
// the whole schedule), c.clients workers execute them, and latency is
// measured from the intended arrival so queueing delay under overload shows
// up in the histograms instead of silently stretching the arrival process.
func runOpen(c config, srv *server.ShardedServer, tenantOf func(int) storage.TenantID, schedule []openOp, ops *atomic.Int64) (*openBlock, time.Duration) {
	work := make(chan openOp, len(schedule)+1)
	var completed, drained, abandoned, late atomic.Int64
	var backlogPeak int64 // dispatcher-only
	var abandon atomic.Bool
	var accessHist, mutateHist, latenessHist server.Histogram

	wallBase := time.Now()
	virtBase := srv.Clock()
	deadline := wallBase.Add(c.dur)

	var wg sync.WaitGroup
	for w := 0; w < c.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range work {
				if abandon.Load() {
					abandoned.Add(1)
					continue
				}
				intended := wallBase.Add(op.offset)
				if lateness := time.Since(intended); lateness > 0 {
					latenessHist.Observe(lateness)
					if lateness > time.Millisecond {
						late.Add(1)
					}
				} else {
					latenessHist.Observe(0) // clamped to the smallest bucket
				}
				// The virtual stamp tracks the intended arrival, not the
				// dispatch: the policy layer sees the arrival process even
				// when the dispatcher runs behind.
				virt := virtBase.Add(time.Duration(float64(op.offset) * c.timeScale))
				tid := tenantOf(int(op.seq))
				switch op.kind {
				case opAccess:
					srv.Do(server.Op{Kind: server.OpAccess, Path: op.path, At: virt, Tenant: tid})
				case opStat:
					srv.Stat(op.path)
				case opCreate:
					<-srv.Submit(server.Op{Kind: server.OpCreate, Path: op.path, Size: op.size, At: virt, Tenant: tid})
				case opDelete:
					<-srv.DeleteAt(op.path, virt) // busy/not-found are expected outcomes
				}
				d := time.Since(intended)
				if op.kind == opAccess || op.kind == opStat {
					accessHist.Observe(d)
				} else {
					mutateHist.Observe(d)
				}
				ops.Add(1)
				completed.Add(1)
				if time.Now().After(deadline) {
					drained.Add(1)
				}
			}
		}()
	}

	var dispatched int64
	for _, op := range schedule {
		if d := time.Until(wallBase.Add(op.offset)); d > 0 {
			time.Sleep(d)
		}
		work <- op // never blocks: capacity covers the whole schedule
		dispatched++
		if q := int64(len(work)); q > backlogPeak {
			backlogPeak = q
		}
	}
	close(work)

	// Drain: give the backlog c.drain to flush, then discard what's left.
	// Workers check the abandon flag per op, so after the timeout the queue
	// empties at memory speed and wg.Wait is bounded by one in-flight op per
	// worker.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(c.drain):
		abandon.Store(true)
		<-done
	}
	elapsed := time.Since(wallBase)

	return &openBlock{
		RateOpsPerSec: c.rate,
		Scheduled:     int64(len(schedule)),
		Dispatched:    dispatched,
		Completed:     completed.Load(),
		Drained:       drained.Load(),
		Abandoned:     abandoned.Load(),
		LateDispatch:  late.Load(),
		BacklogPeak:   backlogPeak,
		Lateness:      toLatencyBlock(&latenessHist),
		Access:        toLatencyBlock(&accessHist),
		Mutate:        toLatencyBlock(&mutateHist),
	}, elapsed
}

// startSampler runs the time-series collector on a ticker: every window it
// snapshots the cumulative op counter and the merged read histogram and
// closes a window. The returned stop function halts sampling and hands back
// the collector.
func startSampler(window time.Duration, ops *atomic.Int64, readCounts func() [64]int64) func() *obs.Series {
	coll := obs.NewSeries(time.Now(), obs.SeriesSample{Read: readCounts()})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(window)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				coll.Sample(now, obs.SeriesSample{Ops: ops.Load(), Read: readCounts()})
			}
		}
	}()
	return func() *obs.Series {
		close(stop)
		<-done
		return coll
	}
}

func buildPolicies(c config, fs *dfs.FileSystem) (*core.Manager, error) {
	ctx := core.NewContext(fs, core.DefaultConfig())
	lcfg := ml.DefaultLearnerConfig()
	lcfg.Seed = c.seed
	down, err := policy.NewDowngrade(c.down, ctx, lcfg)
	if err != nil {
		return nil, err
	}
	up, err := policy.NewUpgrade(c.up, ctx, lcfg)
	if err != nil {
		return nil, err
	}
	return core.NewManager(ctx, down, up), nil
}

func executorConfig(c config) server.ExecutorConfig {
	var rates [3]float64
	for i, r := range c.rateMBps {
		if r > 0 {
			rates[i] = float64(r * storage.MB)
		}
	}
	return server.ExecutorConfig{
		WorkersPerTier: c.moveWorkers,
		QueueDepth:     c.moveQueue,
		BudgetBytes: [3]int64{
			c.budgetMB[0] * storage.MB, c.budgetMB[1] * storage.MB, c.budgetMB[2] * storage.MB,
		},
		RateBytesPerSec: rates,
	}
}

// buildServer wires the serving layer: one engine/manager/shard loop per
// namespace shard over quota-sliced cluster views. It also returns each
// shard's manager, which -scenario hands to the attached replay.
func buildServer(c config, clCfg cluster.Config) (*server.ShardedServer, []*core.Manager) {
	mgrs := make([]*core.Manager, c.shards)
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards:  c.shards,
		Cluster: clCfg,
		DFS:     dfs.Config{Mode: dfs.ModeOctopus, Seed: c.seed, ClientRate: 2000e6},
		Build: func(shard int, fs *dfs.FileSystem) (mgr *core.Manager, err error) {
			mgrs[shard], err = buildPolicies(c, fs)
			return mgrs[shard], err
		},
		Quota:     server.QuotaConfig{InitialFraction: c.quotaFrac},
		Rebalance: server.RebalanceConfig{Enabled: c.rebalance},
		Backend:   c.mkBackend,
		Inner: server.Config{
			TimeScale: c.timeScale,
			Executor:  executorConfig(c),
			Tenants:   c.tenantCfg,
			Obs:       c.hub,
		},
	})
	if err != nil {
		fatal(err)
	}
	srv.Start()
	return srv, mgrs
}

func main() {
	c := parseFlags()
	partialOut = c.out
	partialCfg = map[string]any{
		"clients": c.clients, "dur": c.dur.String(), "files": c.files,
		"workload": c.workloadN, "scenario": c.scenarioN, "seed": c.seed,
		"shards": c.shards, "dataplane": c.dataplane, "tenants": c.tenants,
		"partial": true,
	}

	// Observability plane: one hub spans every shard (metrics carry a shard
	// label). Built before the server so registration happens inside Start;
	// the trace sink is flushed by hub.Close on every exit path.
	var stopObs = func() {}
	if c.obsListen != "" || c.tracePath != "" {
		hcfg := obs.HubConfig{}
		if c.tracePath != "" {
			f, err := os.Create(c.tracePath)
			if err != nil {
				fatal(err)
			}
			hcfg.Trace = f
		}
		c.hub = obs.NewHub(hcfg)
		obsHub = c.hub
		if c.obsListen != "" {
			bound, stop, err := c.hub.ListenAndServe(c.obsListen)
			if err != nil {
				fatal(err)
			}
			stopObs = stop
			fmt.Printf("octoload: obs serving on http://%s/metrics (and /metrics.json, /flight, /debug/pprof)\n", bound)
		}
		// SIGQUIT dumps the flight recorder — the last few thousand spans,
		// movement records, and events — instead of the default stack dump,
		// then exits. `kill -QUIT <pid>` is the hung-run postmortem tool.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			<-quit
			fmt.Fprintln(os.Stderr, "octoload: SIGQUIT — dumping flight recorder")
			obsHub.DumpFlight(os.Stderr)
			obsHub.Close()
			os.Exit(2)
		}()
	}

	// Resolve the world: either the driver's own cluster and generated
	// population, or a scenario catalog entry's.
	clCfg := cluster.Config{Workers: c.workers, SlotsPerNode: 4, Spec: workerSpec(c.memCapMB, c.ssdCapMB, c.hddCapMB)}
	var files []workload.FileSpec
	var sc *scenario.Scenario
	if c.scenarioN != "" {
		got, err := scenario.Get(c.scenarioN)
		if err != nil {
			fatal(err)
		}
		sc = &got
		opts := scenario.Options{Seed: c.seed, Fast: true, Workers: c.workers}
		clCfg = sc.Cluster(opts)
		files = sc.Trace(opts).Files
		if len(files) < 2 {
			fatal(fmt.Errorf("scenario %s stages %d files; need at least 2", sc.Name, len(files)))
		}
	} else {
		files = population(c)
	}
	// The hot subtree rides on the generated population: its files are staged
	// like any others, but the load phase concentrates -hotdir of the client
	// traffic on them, and their directories all hash to one shard.
	hotStart := len(files)
	hotFiles, hotDirs := hotPopulation(c)
	files = append(files, hotFiles...)

	// Attach the data plane after the topology is resolved: one plane spans
	// every shard's cluster view, so serve reads and movement contend for
	// the physical device channels across shards.
	var plane *storage.ContendedPlane
	if c.dataplane == "contended" {
		plane = storage.NewContendedPlane(storage.PlaneConfig{
			Tenants: server.PlaneTenants(c.tenantCfg),
		})
		clCfg.Plane = plane
		if c.hub != nil {
			// Per-device plane signals as a dynamic collector: the channel set
			// changes under node churn, so membership is resolved per scrape.
			p := plane
			c.hub.Registry().Collector(func(emit obs.Emit) {
				for _, d := range p.DeviceStats() {
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

	// Physical backend: one Local per shard under a shared root (block ids
	// are per-FileSystem, so shards must not share a directory tree). Opened
	// before the server so NewSharded can attach them. The memory tier
	// lands on tmpfs when the platform has one, so its measured latencies
	// are memory-speed rather than disk-speed.
	var locals []*backend.Local
	var backendRoot string
	cleanupBackend := func() {}
	if c.backendN == "real" {
		backendRoot = c.backendRoot
		var scratch []string // auto-created dirs, removed at exit
		if backendRoot == "" {
			dir, err := os.MkdirTemp("", "octoload-backend-")
			if err != nil {
				fatal(err)
			}
			backendRoot = dir
			scratch = append(scratch, dir)
		}
		memRoot := ""
		if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
			if dir, err := os.MkdirTemp("/dev/shm", "octoload-mem-"); err == nil {
				memRoot = dir
				scratch = append(scratch, dir)
			}
		}
		cleanupBackend = func() {
			for _, d := range scratch {
				os.RemoveAll(d)
			}
		}
		locals = make([]*backend.Local, c.shards)
		for i := range locals {
			lcfg := backend.LocalConfig{
				Root:       filepath.Join(backendRoot, fmt.Sprintf("shard%d", i)),
				SyncWrites: c.backendSync,
			}
			if memRoot != "" {
				lcfg.TierDirs[storage.Memory] = filepath.Join(memRoot, fmt.Sprintf("shard%d", i))
			}
			l, err := backend.OpenLocal(lcfg)
			if err != nil {
				cleanupBackend()
				fatal(err)
			}
			locals[i] = l
		}
		c.mkBackend = func(shard int) backend.Backend { return locals[shard] }
		fmt.Printf("octoload: real backend under %s (mem tier: %s)\n",
			backendRoot, locals[0].TierDir(storage.Memory))
	}

	srv, mgrs := buildServer(c, clCfg)

	// Each client carries one tenant identity for the whole run (round-robin
	// across the table); untenanted runs are storage.DefaultTenant throughout.
	tenantOf := func(cli int) storage.TenantID {
		if len(c.tenantCfg) == 0 {
			return storage.DefaultTenant
		}
		return c.tenantCfg[cli%len(c.tenantCfg)].ID
	}

	// Stage the population through the serving layer.
	paths := make([]string, len(files))
	var wg sync.WaitGroup
	if c.arrival == "open" {
		// Pipelined stamped preload: submit creates and reap completions
		// through a bounded FIFO instead of blocking per create. A blocking
		// create pays one pacer tick of wall latency; at a million files
		// that dominates the run, while the pipeline keeps the core loop fed
		// and completes creates in bulk as virtual time advances.
		type pend struct {
			path string
			ch   <-chan error
		}
		pending := make(chan pend, 1024)
		reaped := make(chan struct{})
		go func() {
			defer close(reaped)
			var errs int
			for p := range pending {
				if err := <-p.ch; err != nil {
					if errs < 5 {
						fmt.Fprintf(os.Stderr, "octoload: preload %s: %v\n", p.path, err)
					}
					errs++
				}
			}
			if errs > 5 {
				fmt.Fprintf(os.Stderr, "octoload: preload: %d errors total\n", errs)
			}
		}()
		for i := range files {
			paths[i] = files[i].Path
			pending <- pend{path: files[i].Path, ch: srv.Submit(server.Op{
				Kind: server.OpCreate, Path: files[i].Path, Size: files[i].Size, Tenant: tenantOf(i),
			})}
		}
		close(pending)
		<-reaped
	} else {
		for cli := 0; cli < c.clients; cli++ {
			wg.Add(1)
			go func(cli int) {
				defer wg.Done()
				tid := tenantOf(cli)
				for i := cli; i < len(files); i += c.clients {
					paths[i] = files[i].Path
					_, err := srv.Do(server.Op{Kind: server.OpCreate, Path: files[i].Path, Size: files[i].Size, Tenant: tid})
					if err != nil {
						fmt.Fprintf(os.Stderr, "octoload: preload %s: %v\n", files[i].Path, err)
					}
				}
			}(cli)
		}
		wg.Wait()
	}

	// Scenario perturbations start with the load phase, after preload. The
	// installer runs on the shard loop (-scenario implies -shards 1), so
	// scenario callbacks interleave with serving commands on the engine they
	// expect to own.
	if sc != nil {
		srv.Exec(func(shard int, fs *dfs.FileSystem) {
			scenario.Attach(*sc, &scenario.Replay{
				System:  scenario.System{Name: c.down + "/" + c.up, Mode: dfs.ModeOctopus, Down: c.down, Up: c.up},
				Opts:    scenario.Options{Seed: c.seed, Fast: true, Workers: c.workers},
				Engine:  fs.Engine(),
				Cluster: fs.Cluster(),
				FS:      fs,
				Manager: mgrs[shard],
			})
		})
	}

	// Load phase. The time-series sampler runs alongside either arrival
	// process, windowing the cumulative op counter and the merged read
	// histogram into the over-time curve.
	var ops atomic.Int64
	readCounts := func() [64]int64 {
		var total [64]int64
		for _, m := range storage.AllMedia {
			cts := srv.ReadLatency(m).Counts()
			for i := range total {
				total[i] += cts[i]
			}
		}
		return total
	}
	var stopSampler func() *obs.Series
	if c.window > 0 {
		stopSampler = startSampler(c.window, &ops, readCounts)
	}

	var elapsed time.Duration
	var open *openBlock
	if c.arrival == "open" {
		open, elapsed = runOpen(c, srv, tenantOf, buildOpenSchedule(c, paths), &ops)
	} else {
		stop := make(chan struct{})
		var inflight atomic.Int64
		start := time.Now()
		for cli := 0; cli < c.clients; cli++ {
			wg.Add(1)
			go func(cli int) {
				defer wg.Done()
				tid := tenantOf(cli)
				rng := rand.New(rand.NewSource(c.seed*1000 + int64(cli)))
				zipf := rand.NewZipf(rng, c.zipfS, 1, uint64(len(paths)-1))
				// The hot branch draws from its own zipf over the hot subtree;
				// every extra rng call is gated on c.hotdir > 0 so a hotdir-less
				// run replays the exact pre-skew op sequence.
				var hotZipf *rand.Zipf
				if c.hotdir > 0 {
					hotZipf = rand.NewZipf(rng, c.zipfS, 1, uint64(len(paths)-hotStart-1))
				}
				var own []string
				scratch := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					inflight.Add(1)
					switch r := rng.Float64(); {
					case r < c.readFrac:
						target := -1
						if c.hotdir > 0 && rng.Float64() < c.hotdir {
							target = hotStart + int(hotZipf.Uint64())
						} else {
							target = int(zipf.Uint64())
						}
						srv.Do(server.Op{Kind: server.OpAccess, Path: paths[target], Tenant: tid})
					case r < c.readFrac+c.statFrac:
						srv.Stat(paths[rng.Intn(len(paths))])
					case rng.Float64() < 0.5 || len(own) == 0:
						var path string
						if c.hotdir > 0 && rng.Float64() < c.hotdir {
							// The active job writes into its own hot subtree; under
							// static routing every one of these creates serializes
							// on the single shard loop the subtree hashes to.
							path = fmt.Sprintf("%s/c%d-f%06d", hotDirs[rng.Intn(len(hotDirs))], cli, scratch)
						} else {
							path = fmt.Sprintf("/scratch/c%d/f%06d", cli, scratch)
						}
						scratch++
						_, err := srv.Do(server.Op{Kind: server.OpCreate, Path: path, Size: (4 + rng.Int63n(60)) * storage.MB, Tenant: tid})
						if err == nil {
							own = append(own, path)
						}
					default:
						path := own[len(own)-1]
						own = own[:len(own)-1]
						srv.Delete(path) // busy under movement is an expected outcome
					}
					inflight.Add(-1)
					ops.Add(1)
				}
			}(cli)
		}
		// Deadline stop with a bounded drain: close the stop channel at the
		// deadline and give the (at most one per client) in-flight ops
		// c.drain to finish. A closed-loop op cannot be interrupted
		// mid-call, so on timeout we warn loudly and keep waiting rather
		// than tear the server down under live clients.
		deadline := time.NewTimer(c.dur)
		<-deadline.C
		close(stop)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(c.drain):
			fmt.Fprintf(os.Stderr, "octoload: drain exceeded %v with %d ops in flight; waiting\n",
				c.drain, inflight.Load())
			<-done
		}
		elapsed = time.Since(start)
	}

	var ts *timeSeriesBlock
	if stopSampler != nil {
		coll := stopSampler()
		ts = &timeSeriesBlock{
			WindowSeconds: c.window.Seconds(),
			PeakOpsPerSec: coll.PeakOpsPerSec(),
			Points:        coll.Points(),
		}
	}

	srv.Flush()
	// Close before verifying so Verify sees fully quiescent shards (no pacer,
	// reconcile tick, or policy-tick borrow can move capacity between
	// per-shard snapshots).
	srv.Close()
	violations := srv.Verify()
	exStats := srv.ExecutorStats()
	// Snapshot the histograms once: each accessor merges every per-shard
	// histogram into a fresh allocation.
	accessHist, mutateHist := srv.AccessLatency(), srv.MutateLatency()
	readAll := &server.Histogram{}
	var readTiers []tierLatencyBlock
	for _, m := range storage.AllMedia {
		h := srv.ReadLatency(m)
		readAll.AddFrom(h)
		readTiers = append(readTiers, tierLatencyBlock{Tier: m.String(), latencyBlock: toLatencyBlock(h)})
	}

	rep := report{
		Config: map[string]any{
			"clients": c.clients, "dur": c.dur.String(), "files": len(files),
			"workload": c.workloadN, "scenario": c.scenarioN, "zipf": c.zipfS,
			"readfrac": c.readFrac, "workers": clCfg.Workers, "down": c.down, "up": c.up,
			"timescale": c.timeScale, "seed": c.seed, "shards": c.shards,
			"move_workers": c.moveWorkers, "move_queue": c.moveQueue,
			"dataplane": c.dataplane, "tenants": c.tenants,
			"read_slo": c.readSLO.String(),
		},
		ElapsedSeconds: elapsed.Seconds(),
		Ops:            ops.Load(),
		OpsPerSec:      float64(ops.Load()) / elapsed.Seconds(),
		Access:         toLatencyBlock(accessHist),
		Mutate:         toLatencyBlock(mutateHist),
		Read:           toLatencyBlock(readAll),
		ReadTiers:      readTiers,
		Open:           open,
		TimeSeries:     ts,
		Serve:          srv.Stats(),
		Quota:          srv.QuotaStats(),
		Violations:     violations,
	}
	if c.arrival == "open" {
		// New config keys only appear on open runs: the closed-loop default
		// report keeps the PR 6 schema byte-for-byte.
		rep.Config["arrival"] = c.arrival
		rep.Config["rate"] = c.rate
		rep.Config["window"] = c.window.String()
	}
	if c.hotdir > 0 || c.rebalance {
		// Skew-run keys, conditional like the open-loop ones: pre-skew
		// reports keep their schema byte-for-byte.
		rep.Config["hotdir"] = c.hotdir
		rep.Config["rebalance"] = c.rebalance
	}
	if c.backendN == "real" {
		// Backend keys only appear on real-backend runs: sim reports keep
		// their schema byte-for-byte.
		rep.Config["backend"] = c.backendN
		rep.Config["backend_sync"] = c.backendSync
	}
	if c.shards > 1 {
		perShard := srv.ShardStats()
		var maxOps, total int64
		for i, st := range perShard {
			o := shardOps(st)
			rep.Shards = append(rep.Shards, shardReport{
				Shard: i, Ops: o, OpsPerSec: float64(o) / elapsed.Seconds(),
				Accesses: st.Accesses, Creates: st.Creates, Deletes: st.Deletes,
			})
			total += o
			if o > maxOps {
				maxOps = o
			}
		}
		if total > 0 {
			rep.ImbalanceRatio = float64(maxOps) * float64(len(perShard)) / float64(total)
		}
		if c.rebalance {
			rst := srv.RebalanceStats()
			rep.Rebalance = &rst
		}
	}
	for _, m := range storage.AllMedia {
		rep.Executor = append(rep.Executor, tierReport{Tier: m.String(), TierMoveStats: exStats.PerTier[m]})
	}
	for _, tc := range c.tenantCfg {
		if h := srv.TenantReadLatency(tc.ID); h != nil {
			rep.ReadTenants = append(rep.ReadTenants, tenantLatencyBlock{
				Tenant: int(tc.ID), Weight: tc.Weight, latencyBlock: toLatencyBlock(h),
			})
		}
	}
	if c.readSLO > 0 {
		st := srv.SLOStats()
		rep.SLO = &sloReport{Checks: st.Checks, Breaches: st.Breaches, Defers: exStats.Defers}
	}
	if plane != nil {
		pst := plane.Stats()
		for _, m := range storage.AllMedia {
			rep.Plane = append(rep.Plane, planeTierReport{Tier: m.String(), TierPlaneStats: pst.PerTier[m]})
		}
	}

	fmt.Printf("octoload: %d clients, %d files, %d shard(s), %.1fs wall (%.0fx virtual)\n",
		c.clients, len(files), c.shards, elapsed.Seconds(), c.timeScale)
	if c.scenarioN != "" {
		fmt.Printf("  scenario   %s (perturbations composed with client load)\n", c.scenarioN)
	}
	fmt.Printf("  ops        %d (%.0f ops/s)\n", rep.Ops, rep.OpsPerSec)
	if open != nil {
		fmt.Printf("  open       %.0f ops/s target: %d scheduled, %d completed (%d drained, %d abandoned)\n",
			open.RateOpsPerSec, open.Scheduled, open.Completed, open.Drained, open.Abandoned)
		fmt.Printf("  lateness   p50 %.1fµs  p99 %.1fµs  (%d late dispatches, backlog peak %d)\n",
			open.Lateness.P50us, open.Lateness.P99us, open.LateDispatch, open.BacklogPeak)
		fmt.Printf("  open acc   p50 %.1fµs  p99 %.1fµs  (completion − intended arrival)\n",
			open.Access.P50us, open.Access.P99us)
		fmt.Printf("  open mut   p50 %.1fµs  p99 %.1fµs\n", open.Mutate.P50us, open.Mutate.P99us)
	}
	if ts != nil {
		fmt.Printf("  timeseries %d windows of %.1fs, peak %.0f ops/s\n",
			len(ts.Points), ts.WindowSeconds, ts.PeakOpsPerSec)
	}
	fmt.Printf("  access     p50 %.1fµs  p99 %.1fµs  (%d samples)\n", rep.Access.P50us, rep.Access.P99us, rep.Access.Count)
	fmt.Printf("  mutate     p50 %.1fµs  p99 %.1fµs  (%d samples)\n", rep.Mutate.P50us, rep.Mutate.P99us, rep.Mutate.Count)
	if c.dataplane != "none" {
		fmt.Printf("  read       p50 %.1fµs  p99 %.1fµs  (%d samples, tier-real virtual time)\n",
			rep.Read.P50us, rep.Read.P99us, rep.Read.Count)
		for _, tl := range rep.ReadTiers {
			fmt.Printf("  read %s   p50 %.1fµs  p99 %.1fµs  (%d samples)\n", tl.Tier, tl.P50us, tl.P99us, tl.Count)
		}
		for _, pt := range rep.Plane {
			fmt.Printf("  plane %s  %d reqs (%d move)  %dMB  contended %d  saturated %d  avg queue %v\n",
				pt.Tier, pt.Requests, pt.MoveRequests, pt.Bytes/storage.MB, pt.Contended, pt.Saturated, pt.AvgQueue)
		}
		for _, tl := range rep.ReadTenants {
			fmt.Printf("  tenant %d   p50 %.1fµs  p99 %.1fµs  (%d samples, weight %.0f)\n",
				tl.Tenant, tl.P50us, tl.P99us, tl.Count, tl.Weight)
		}
		if rep.SLO != nil {
			fmt.Printf("  slo        %d checks, %d breaches, %d movement defers\n",
				rep.SLO.Checks, rep.SLO.Breaches, rep.SLO.Defers)
		}
	}
	if len(rep.Shards) > 0 {
		fmt.Printf("  shards     imbalance %.2fx (max/mean ops):", rep.ImbalanceRatio)
		for _, sr := range rep.Shards {
			fmt.Printf("  s%d %.0f/s", sr.Shard, sr.OpsPerSec)
		}
		fmt.Println()
	}
	if rep.Rebalance != nil {
		r := rep.Rebalance
		fmt.Printf("  rebalance  %d started, %d completed, %d aborted, %d flips, %d files (%dMB) moved, %d routes, spread %.2fx\n",
			r.Started, r.Completed, r.Aborted, r.EpochFlips, r.FilesMoved, r.BytesMoved/storage.MB, r.Routes, r.Spread)
	}
	st := rep.Serve
	fmt.Printf("  served     MEM %d  SSD %d  HDD %d  (miss %d, no-replica %d)\n",
		st.ServedByTier[0], st.ServedByTier[1], st.ServedByTier[2], st.AccessMisses, st.NoReplica)
	fmt.Printf("  ring       %d events in %d batches, %d dropped\n", st.EventsDrained, st.DrainBatches, st.EventsDropped)
	for _, tr := range rep.Executor {
		fmt.Printf("  moves %s  sched %d done %d fail %d shed %d  admitted %dMB (bucket %dMB @ %.0fMB/s)\n",
			tr.Tier, tr.Scheduled, tr.Completed, tr.Failed, tr.Shed,
			tr.AdmittedBytes/storage.MB, tr.BudgetBytes/storage.MB, tr.RateBytesPerSec/float64(storage.MB))
	}
	if q := rep.Quota; q.Borrows > 0 || q.ReturnedBytes > 0 {
		fmt.Printf("  quota      %d borrows (%dMB), %d failures, %dMB returned\n",
			q.Borrows, q.BorrowedBytes/storage.MB, q.BorrowFailures, q.ReturnedBytes/storage.MB)
	}
	if len(violations) > 0 {
		fmt.Printf("  VIOLATIONS (%d):\n", len(violations))
		for _, v := range violations {
			fmt.Println("   ", v)
		}
		if c.hub != nil {
			// Verify already emitted the violations into the hub.
			if f, err := os.Create(flightDumpPath); err == nil {
				c.hub.DumpFlight(f)
				f.Close()
				fmt.Printf("  flight recorder dumped to %s\n", flightDumpPath)
			}
		}
	} else {
		fmt.Println("  invariants OK (accounting, deep structural, index audit, ledger, budgets)")
	}

	if c.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(c.out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("  report written to %s\n", c.out)
	}
	if c.backendN == "real" {
		// Calibration report: measured wall latencies and throughput per
		// (tier, op), side by side with the simulator's media profiles, so
		// the two are directly diffable.
		all := make([]backend.Stats, len(locals))
		for i, l := range locals {
			all[i] = l.Stats()
		}
		cal := backend.Calibrate("real", backendRoot, c.backendSync, backend.MergeStats(all...))
		for _, tc := range cal.Tiers {
			fmt.Printf("  backend %s  write %d ops %dMB mean %.0fµs (%.0f MB/s)  read %d ops mean %.0fµs (%.0f MB/s)  errors %d\n",
				tc.Tier, tc.Write.Count, tc.Write.Bytes/storage.MB, tc.Write.MeanUS, tc.Write.MBps,
				tc.Read.Count, tc.Read.MeanUS, tc.Read.MBps,
				tc.Write.Errors+tc.Read.Errors+tc.Delete.Errors)
		}
		if c.backendOut != "" {
			data, err := json.MarshalIndent(cal, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(c.backendOut, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("  calibration written to %s\n", c.backendOut)
		}
	}
	cleanupBackend()
	if c.memProfile != "" {
		// The KeepAlives below hold the served world live across the
		// profile write: without them the GC (liveness-based, not
		// scope-based) would have collected the namespace already and the
		// inuse profile would show an empty heap instead of the retained
		// per-file footprint.
		runtime.GC()
		f, err := os.Create(c.memProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
		runtime.KeepAlive(srv)
		runtime.KeepAlive(paths)
		fmt.Printf("  heap profile written to %s\n", c.memProfile)
	}
	if c.hub != nil {
		if t := c.hub.Tracer(); t != nil {
			fmt.Printf("  trace      %d records written to %s\n", t.Records(), c.tracePath)
		}
		stopObs()
		c.hub.Close()
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}

// flightDumpPath is where the flight recorder lands when the run ends with
// invariant violations (CI uploads it as an artifact).
const flightDumpPath = "octoload-flight.jsonl"

// Partial-report state for fatal(): populated right after flag parsing so a
// mid-run abort still leaves a machine-readable report at -out with a
// violations block, instead of only a stderr line and a stale file from the
// previous run.
var (
	partialOut string
	partialCfg map[string]any
	obsHub     *obs.Hub
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "octoload:", err)
	if partialOut != "" {
		rep := report{
			Config:     partialCfg,
			Violations: []string{"fatal: " + err.Error()},
		}
		if data, merr := json.MarshalIndent(rep, "", "  "); merr == nil {
			if werr := os.WriteFile(partialOut, append(data, '\n'), 0o644); werr == nil {
				fmt.Fprintf(os.Stderr, "octoload: partial report written to %s\n", partialOut)
			}
		}
	}
	obsHub.Close() // nil-safe: flushes the trace sink if one was open
	os.Exit(1)
}
