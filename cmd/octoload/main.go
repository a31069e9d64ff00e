// Command octoload is the flag front end over internal/loadgen, the load
// harness for the concurrent serving layer: flags become a loadgen.Config,
// loadgen.Run stands up a managed tiered DFS behind server.ShardedServer,
// stages a population, drives the client mix and verifies every invariant,
// and this command prints the resulting loadgen.Report and writes it as JSON
// to -out (BENCH_serve.json by default).
//
// The process exits 1 if the run recorded any violation — invariants
// (capacity accounting, deep structural checks, candidate-index audit, ledger
// conservation, movement budgets) or, on -backend real, a backend that did no
// physical I/O — so a load run is a correctness artifact, not just a
// throughput number. It exits 2 on a rejected configuration.
//
// Examples:
//
//	octoload                                   # 8 clients, 5s, FB-shaped files
//	octoload -shards 4                         # 4 shard loops
//	octoload -scenario node-churn -dur 8s -timescale 900   # compose load with churn
//	octoload -clients 32 -dur 10s -zipf 1.3
//	octoload -down xgb -up xgb -timescale 300
//	octoload -budget-mem 128 -move-queue 16    # stress executor backpressure
//	octoload -shards 4 -tenants 2 -dataplane contended   # weighted-fair QoS
//	octoload -tenants 2 -dataplane contended -read-slo 40ms  # SLO admission control
//	octoload -arrival open -rate 5000 -shards 4 -hotdir 0.8  # open-loop arrivals, skewed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"octostore/internal/dfs"
	"octostore/internal/loadgen"
	"octostore/internal/obs"
	"octostore/internal/storage"
)

// flightDumpPath is where the flight recorder lands when the run ends with
// invariant violations (CI uploads it as an artifact).
const flightDumpPath = "octoload-flight.jsonl"

// failedBy renders a tier's failed and shed moves by reason, in the enum's
// order: " (no_capacity 3, superseded 12)", or nothing when none failed.
func failedBy(tr loadgen.TierReport) string {
	var parts []string
	for _, reason := range dfs.MoveReasons {
		if n := tr.FailedBy[reason.String()]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", reason, n))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, ", ") + ")"
}

func main() {
	var c loadgen.Config
	flag.IntVar(&c.Clients, "clients", 8, "concurrent clients (closed loop) or workers (open loop)")
	flag.DurationVar(&c.Dur, "dur", 5*time.Second, "load duration (wall clock)")
	flag.IntVar(&c.Files, "files", 150, "approximate staged file population (scales the workload generator)")
	flag.StringVar(&c.Workload, "workload", "fb", "file population shape: fb, cmu (internal/workload profiles), or fixed (-files uniform files of -filesize MB; cheap to stage at million-file scale)")
	flag.Int64Var(&c.FileSizeMB, "filesize", 1, "file size in MB for -workload fixed")
	flag.StringVar(&c.Scenario, "scenario", "", "attach to a scenario catalog entry: its cluster, population, and perturbations compose with the client load (see internal/scenario)")
	flag.Float64Var(&c.Zipf, "zipf", 1.1, "zipf skew of the access key distribution (>1)")
	flag.Float64Var(&c.ReadFrac, "readfrac", 0.82, "fraction of ops that are accesses")
	flag.Float64Var(&c.StatFrac, "statfrac", 0.10, "fraction of ops that are stats (the rest split evenly into creates and deletes)")
	flag.IntVar(&c.Workers, "workers", 5, "cluster worker count")
	flag.Int64Var(&c.MemCapMB, "memcap", 256, "memory-tier capacity per worker in MB (small keeps movement busy)")
	flag.Int64Var(&c.SSDCapMB, "ssdcap", 16*1024, "SSD-tier capacity per worker in MB (small forces HDD-resident files, so all three tiers serve)")
	flag.Int64Var(&c.HDDCapMB, "hddcap", 128*1024, "HDD capacity per device in MB (two devices per worker; raise for million-file populations)")
	flag.StringVar(&c.Down, "down", "lru", "downgrade policy")
	flag.StringVar(&c.Up, "up", "osa", "upgrade policy")
	flag.Float64Var(&c.TimeScale, "timescale", 120, "virtual seconds advanced per wall second")
	flag.Int64Var(&c.Seed, "seed", 1, "population/placement/client seed")
	flag.StringVar(&c.Arrival, "arrival", "closed", "arrival process: closed (N clients, next op after previous completes) or open (ops fire at a precomputed Poisson schedule regardless of completion; latency is measured from the intended arrival, so queueing delay is not coordinated away)")
	flag.Float64Var(&c.Rate, "rate", 0, "open-loop target arrival rate in ops/s (required with -arrival open)")
	flag.DurationVar(&c.Window, "window", time.Second, "time-series window for the over-time ops/s + read-latency curve")
	flag.DurationVar(&c.Drain, "drain", 30*time.Second, "how long to wait after the deadline for in-flight/queued ops before abandoning them")
	flag.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile here at the end of the run (population still live)")
	flag.IntVar(&c.Shards, "shards", 1, "namespace shards (each with its own engine, manager, and shard loop)")
	flag.Float64Var(&c.HotDir, "hotdir", 0, "fraction of access and create traffic concentrated in one hot subtree whose directories all hash to a single shard — the adversarial skew the static parent-dir routing cannot spread (0 disables)")
	flag.BoolVar(&c.Rebalance, "rebalance", false, "enable the dynamic shard rebalancer: hot-prefix detection, live subtree migration, route-table overrides (requires -shards >= 2)")
	flag.IntVar(&c.MoveQueue, "move-queue", 64, "movement executor queue depth per tier")
	flag.Int64Var(&c.BudgetMB[0], "budget-mem", 512, "memory-tier movement token bucket (MB, burst)")
	flag.Int64Var(&c.BudgetMB[1], "budget-ssd", 1024, "SSD-tier movement token bucket (MB, burst)")
	flag.Int64Var(&c.BudgetMB[2], "budget-hdd", 2048, "HDD-tier movement token bucket (MB, burst)")
	flag.StringVar(&c.Dataplane, "dataplane", "none", "data-plane profile: none (free reads, uncontended movement) or contended (per-physical-device service time + shared bandwidth arbitration across shards)")
	flag.IntVar(&c.Tenants, "tenants", 0, "tenant count: >= 2 tags client traffic round-robin (tenant 1 heaviest) and schedules the contended plane weighted-fair; requires -dataplane contended")
	flag.DurationVar(&c.ReadSLO, "read-slo", 0, "tenant 1's read p99 target (tier-real virtual latency); breaches defer background movement; requires -tenants >= 2")
	flag.StringVar(&c.Backend, "backend", "sim", "storage backend: sim (virtual-clock only) or real (every replica is a file on disk; block copies, reads, and deletes do real I/O alongside the simulated control plane)")
	flag.StringVar(&c.BackendRoot, "backend-root", "", "tier directory root for -backend real (default: a temp dir, removed at exit; an explicit root is kept)")
	out := flag.String("out", "BENCH_serve.json", "JSON report path (empty disables)")
	backendOut := flag.String("backend-out", "BENCH_backend.json", "calibration report path for -backend real: measured per-tier wall latencies and MB/s next to the simulator's media profiles (empty disables)")
	obsListen := flag.String("obs-listen", "", "serve /metrics (Prometheus text), /metrics.json, /flight, and /debug/pprof on this address for the duration of the run (e.g. :9100 or 127.0.0.1:0; empty disables)")
	tracePath := flag.String("trace", "", "write sampled per-op spans, movement provenance, and events as JSONL to this file (empty disables)")
	flag.Parse()

	stopObs := func() {}
	if *obsListen != "" || *tracePath != "" {
		var err error
		if c.Obs, stopObs, err = openObs(*obsListen, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "octoload:", err)
			os.Exit(1)
		}
	}

	rep, err := loadgen.Run(c)
	if rep == nil {
		fmt.Fprintln(os.Stderr, "octoload:", err)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "octoload:", err)
	} else {
		printReport(c, rep)
	}
	if len(rep.Violations) > 0 && c.Obs != nil {
		// Verify already emitted the violations into the hub.
		if f, err := os.Create(flightDumpPath); err == nil {
			c.Obs.DumpFlight(f)
			f.Close()
			fmt.Printf("  flight recorder dumped to %s\n", flightDumpPath)
		}
	}
	writeJSON(*out, "report", rep)
	if rep.Backend != nil {
		writeJSON(*backendOut, "calibration", rep.Backend)
	}
	if t := c.Obs.Tracer(); t != nil {
		fmt.Printf("  trace      %d records written to %s\n", t.Records(), *tracePath)
	}
	stopObs()
	c.Obs.Close() // nil-safe: flushes the trace sink if one was open
	if len(rep.Violations) > 0 {
		os.Exit(1)
	}
}

// openObs builds the observability plane: one hub spans every shard (metrics
// carry a shard label), optionally tracing to a file and serving HTTP.
// SIGQUIT dumps the flight recorder — the last few thousand spans, movement
// records, and events — instead of the default stack dump, then exits:
// `kill -QUIT <pid>` is the hung-run postmortem tool.
func openObs(listen, tracePath string) (hub *obs.Hub, stop func(), err error) {
	var hcfg obs.HubConfig
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, nil, err
		}
		hcfg.Trace = f
	}
	hub = obs.NewHub(hcfg)
	stop = func() {}
	if listen != "" {
		bound, stopHTTP, err := hub.ListenAndServe(listen)
		if err != nil {
			hub.Close()
			return nil, nil, err
		}
		stop = stopHTTP
		fmt.Printf("octoload: obs serving on http://%s/metrics (and /metrics.json, /flight, /debug/pprof)\n", bound)
	}
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		<-quit
		fmt.Fprintln(os.Stderr, "octoload: SIGQUIT — dumping flight recorder")
		hub.DumpFlight(os.Stderr)
		hub.Close()
		os.Exit(2)
	}()
	return hub, stop, nil
}

func writeJSON(path, what string, v any) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "octoload:", err)
		os.Exit(1)
	}
	fmt.Printf("  %s written to %s\n", what, path)
}

func printReport(c loadgen.Config, rep *loadgen.Report) {
	fmt.Printf("octoload: %d clients, %v files, %d shard(s), %.1fs wall (%.0fx virtual)\n",
		c.Clients, rep.Config["files"], c.Shards, rep.ElapsedSeconds, c.TimeScale)
	if c.Scenario != "" {
		fmt.Printf("  scenario   %s (perturbations composed with client load)\n", c.Scenario)
	}
	fmt.Printf("  ops        %d (%.0f ops/s inside the %v load window)\n", rep.Ops, rep.OpsPerSec, c.Dur)
	if open := rep.Open; open != nil {
		fmt.Printf("  open       %.0f ops/s target: %d scheduled, %d completed (%d drained, %d abandoned)\n",
			open.RateOpsPerSec, open.Scheduled, open.Completed, open.Drained, open.Abandoned)
		fmt.Printf("  lateness   p50 %.1fµs  p99 %.1fµs  (%d late dispatches, backlog peak %d)\n",
			open.Lateness.P50us, open.Lateness.P99us, open.LateDispatch, open.BacklogPeak)
		fmt.Printf("  open acc   p50 %.1fµs  p99 %.1fµs  (completion − intended arrival)\n",
			open.Access.P50us, open.Access.P99us)
		fmt.Printf("  open mut   p50 %.1fµs  p99 %.1fµs\n", open.Mutate.P50us, open.Mutate.P99us)
	}
	fmt.Printf("  timeseries %d windows of %.1fs, peak %.0f ops/s\n",
		len(rep.TimeSeries.Points), rep.TimeSeries.WindowSeconds, rep.TimeSeries.PeakOpsPerSec)
	fmt.Printf("  access     p50 %.1fµs  p99 %.1fµs  (%d samples)\n", rep.Access.P50us, rep.Access.P99us, rep.Access.Count)
	fmt.Printf("  mutate     p50 %.1fµs  p99 %.1fµs  (%d samples)\n", rep.Mutate.P50us, rep.Mutate.P99us, rep.Mutate.Count)
	if c.Dataplane != "none" {
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
		if c.ReadSLO > 0 {
			fmt.Printf("  slo        %d checks, %d breaches, %d movement defers\n",
				rep.SLO.Checks, rep.SLO.Breaches, rep.SLO.Defers)
		}
	}
	fmt.Printf("  shards     imbalance %.2fx (max/mean ops):", rep.ImbalanceRatio)
	for _, sr := range rep.Shards {
		fmt.Printf("  s%d %.0f/s", sr.Shard, sr.OpsPerSec)
	}
	fmt.Println()
	if r := rep.Rebalance; r != nil {
		fmt.Printf("  rebalance  %d started, %d completed, %d aborted, %d files (%dMB) moved, %d routes, spread %.2fx\n",
			r.Started, r.Completed, r.Aborted, r.FilesMoved, r.BytesMoved/storage.MB, r.Routes, r.Spread)
	}
	st := rep.Serve
	fmt.Printf("  served     MEM %d  SSD %d  HDD %d  (miss %d, no-replica %d)\n",
		st.ServedByTier[0], st.ServedByTier[1], st.ServedByTier[2], st.AccessMisses, st.NoReplica)
	coalesced := 0.0
	if st.DrainEntries > 0 {
		coalesced = float64(st.EventsDrained) / float64(st.DrainEntries)
	}
	fmt.Printf("  access     %d applied in %d drains over %d file-entries (×%.1f coalesced), %d discarded\n",
		st.EventsDrained, st.DrainBatches, st.DrainEntries, coalesced, st.AccessesDiscarded)
	for _, tr := range rep.Executor {
		fmt.Printf("  moves %s  sched %d done %d fail %d shed %d%s  admitted %dMB (bucket %dMB @ %.0fMB/s)\n",
			tr.Tier, tr.Scheduled, tr.Completed, tr.Failed, tr.Shed, failedBy(tr),
			tr.AdmittedBytes/storage.MB, tr.BudgetBytes/storage.MB, tr.RateBytesPerSec/float64(storage.MB))
	}
	if q := rep.Quota; q.Borrows > 0 || q.ReturnedBytes > 0 {
		fmt.Printf("  quota      %d borrows (%dMB), %d failures, %dMB returned\n",
			q.Borrows, q.BorrowedBytes/storage.MB, q.BorrowFailures, q.ReturnedBytes/storage.MB)
	}
	if cal := rep.Backend; cal != nil {
		for _, tc := range cal.Tiers {
			fmt.Printf("  backend %s  write %d ops %dMB mean %.0fµs (%.0f MB/s)  read %d ops mean %.0fµs (%.0f MB/s)  errors %d\n",
				tc.Tier, tc.Write.Count, tc.Write.Bytes/storage.MB, tc.Write.MeanUS, tc.Write.MBps,
				tc.Read.Count, tc.Read.MeanUS, tc.Read.MBps,
				tc.Write.Errors+tc.Read.Errors+tc.Delete.Errors)
		}
	}
	if c.MemProfile != "" {
		fmt.Printf("  heap profile written to %s\n", c.MemProfile)
	}
	if len(rep.Violations) == 0 {
		fmt.Println("  invariants OK (accounting, deep structural, index audit, ledger, budgets)")
		return
	}
	fmt.Printf("  VIOLATIONS (%d):\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Println("   ", v)
	}
}
