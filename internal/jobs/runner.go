// Package jobs executes a workload trace against the tiered DFS: a
// MapReduce-like scheduler assigns one map task per input block to node
// slots, tasks read their block from the best available replica, burn CPU,
// and jobs optionally persist an output file. The runner records the
// per-job metrics the paper's evaluation is built on: completion time,
// consumed task-seconds (the cluster-efficiency measure), the storage tier
// that served every block read, and whether a memory replica existed at
// read time (the access-vs-location hit-ratio distinction of Figure 9).
package jobs

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
	"octostore/internal/workload"
)

// The runner's fixed costs and scheduling odds.
const (
	// taskOverhead is per-task setup cost (container launch, JVM reuse...).
	taskOverhead = 1 * time.Second
	// jobOverhead is per-job scheduling/startup latency before tasks run.
	jobOverhead = 3 * time.Second
	// preloadParallel is how many input files are created concurrently
	// while staging the trace's data (SWIM-style pre-generation).
	preloadParallel = 16
	// localityBias is the probability that a task lands on a node holding
	// one of its block's replicas. Big-data schedulers are data-local but
	// tier-blind (Section 7.2: "current schedulers do not account for the
	// presence of multiple storage tiers"), and in multi-tenant clusters
	// locality is only achieved part of the time — this constant models both.
	localityBias = 0.55
)

// Options tunes the runner.
type Options struct {
	// TierAffinity is the probability that, when locality is achieved, the
	// chosen replica holder is the one with the fastest local replica.
	// Delay scheduling and per-node load correlate slot choice with the
	// node that recently served (and therefore holds the hot replica of)
	// the data; the residual 1-TierAffinity models the tier-blindness that
	// separates access-based from location-based hit ratios in Figure 9.
	TierAffinity float64
	// Seed randomises preload order and locality draws.
	Seed int64
}

// DefaultOptions returns runner defaults.
func DefaultOptions() Options {
	return Options{
		TierAffinity: 0.60,
		Seed:         1,
	}
}

func (o *Options) applyDefaults() {
	if o.TierAffinity <= 0 {
		o.TierAffinity = DefaultOptions().TierAffinity
	}
}

// JobStats records one executed job.
type JobStats struct {
	ID          int
	Bin         workload.Bin
	Arrival     time.Time
	Finished    time.Time
	InputBytes  int64
	OutputBytes int64
	// TaskSeconds is the total slot time consumed by the job's tasks plus
	// its output write: the "resources consumed" behind the paper's
	// cluster-efficiency metric.
	TaskSeconds float64
	// ReadsByMedia / BytesByMedia count block reads by the tier that
	// served them.
	ReadsByMedia [3]int64
	BytesByMedia [3]int64
	// MemLocationBlocks counts blocks that had a memory replica somewhere
	// in the cluster right before the read (Figure 9's "based on memory
	// locations"); MemLocationBytes sums their sizes.
	MemLocationBlocks int64
	MemLocationBytes  int64
	TotalBlocks       int64
}

// CompletionTime is the job's end-to-end latency including queueing.
func (j *JobStats) CompletionTime() time.Duration { return j.Finished.Sub(j.Arrival) }

// RunStats is the outcome of executing a trace.
type RunStats struct {
	Trace           *workload.Trace
	Jobs            []JobStats
	PreloadDuration time.Duration
	// FSBaseline is the dfs stats snapshot taken after preload, so that
	// experiment metrics cover only the job phase.
	FSBaseline dfs.Stats
	FSFinal    dfs.Stats
}

// MeanCompletionByBin averages completion time per bin (zero when a bin is
// empty).
func (r *RunStats) MeanCompletionByBin() [workload.NumBins]time.Duration {
	var sums [workload.NumBins]time.Duration
	var counts [workload.NumBins]int
	for i := range r.Jobs {
		j := &r.Jobs[i]
		sums[j.Bin] += j.CompletionTime()
		counts[j.Bin]++
	}
	var out [workload.NumBins]time.Duration
	for b := range sums {
		if counts[b] > 0 {
			out[b] = sums[b] / time.Duration(counts[b])
		}
	}
	return out
}

// TaskSecondsByBin sums consumed task time per bin.
func (r *RunStats) TaskSecondsByBin() [workload.NumBins]float64 {
	var out [workload.NumBins]float64
	for i := range r.Jobs {
		j := &r.Jobs[i]
		out[j.Bin] += j.TaskSeconds
	}
	return out
}

// ReadsByBinMedia aggregates block reads per bin and serving tier.
func (r *RunStats) ReadsByBinMedia() [workload.NumBins][3]int64 {
	var out [workload.NumBins][3]int64
	for i := range r.Jobs {
		j := &r.Jobs[i]
		for m := 0; m < 3; m++ {
			out[j.Bin][m] += j.ReadsByMedia[m]
		}
	}
	return out
}

// Totals sums reads, bytes and location hits across all jobs.
func (r *RunStats) Totals() (reads, memReads, blocks, memLocBlocks int64, bytes, memBytes int64) {
	for i := range r.Jobs {
		j := &r.Jobs[i]
		for m := 0; m < 3; m++ {
			reads += j.ReadsByMedia[m]
			bytes += j.BytesByMedia[m]
		}
		memReads += j.ReadsByMedia[storage.Memory]
		memBytes += j.BytesByMedia[storage.Memory]
		blocks += j.TotalBlocks
		memLocBlocks += j.MemLocationBlocks
	}
	return
}

// LocationBytes sums the bytes of block reads whose block had a memory
// replica at read time.
func (r *RunStats) LocationBytes() int64 {
	var total int64
	for i := range r.Jobs {
		total += r.Jobs[i].MemLocationBytes
	}
	return total
}

// JobCountByBin counts executed jobs per bin.
func (r *RunStats) JobCountByBin() [workload.NumBins]int {
	var out [workload.NumBins]int
	for i := range r.Jobs {
		out[r.Jobs[i].Bin]++
	}
	return out
}

// BytesReadByBin sums input bytes read per bin.
func (r *RunStats) BytesReadByBin() [workload.NumBins]int64 {
	var out [workload.NumBins]int64
	for i := range r.Jobs {
		j := &r.Jobs[i]
		for m := 0; m < 3; m++ {
			out[j.Bin] += j.BytesByMedia[m]
		}
	}
	return out
}

// runner holds live scheduling state.
type runner struct {
	engine *sim.Engine
	fs     *dfs.FileSystem
	opts   Options
	stats  *RunStats
	rng    *rand.Rand

	freeSlots map[*cluster.Node]int
	taskQueue []*task
	pending   int // jobs not yet finished
	failures  []error
}

type jobRun struct {
	spec  workload.Job
	file  *dfs.File
	stats *JobStats
	left  int // tasks not yet completed
}

type task struct {
	job   *jobRun
	block *dfs.Block
}

// Run stages the trace's input files into the file system and then replays
// the jobs. beforePhase, when non-nil, runs between the preload and the job
// phase (e.g., to let a manager settle or reset counters).
func Run(fs *dfs.FileSystem, tr *workload.Trace, opts Options, beforePhase func()) (*RunStats, error) {
	opts.applyDefaults()
	engine := fs.Engine()
	r := &runner{
		engine:    engine,
		fs:        fs,
		opts:      opts,
		stats:     &RunStats{Trace: tr},
		rng:       rand.New(rand.NewSource(opts.Seed + 17)),
		freeSlots: make(map[*cluster.Node]int),
	}
	for _, n := range fs.Cluster().Nodes() {
		r.freeSlots[n] = n.Slots()
	}
	start := engine.Now()
	if err := r.preload(); err != nil {
		return nil, err
	}
	r.stats.PreloadDuration = engine.Now().Sub(start)
	if beforePhase != nil {
		beforePhase()
	}
	r.stats.FSBaseline = *fs.Stats()

	base := engine.Now()
	r.pending = len(tr.Jobs)
	// Preallocate full capacity: task callbacks hold pointers into this
	// slice, so it must never reallocate while jobs are in flight.
	r.stats.Jobs = make([]JobStats, 0, len(tr.Jobs))
	for i := range tr.Jobs {
		spec := tr.Jobs[i]
		engine.ScheduleAt(base.Add(spec.Arrival), func() { r.arrive(spec) })
	}
	// Step rather than Run: a replication manager's periodic ticker keeps
	// the event queue non-empty forever, so drain only until the workload
	// completes.
	for r.pending > 0 && engine.Step() {
	}
	r.stats.FSFinal = *fs.Stats()
	if len(r.failures) > 0 {
		return r.stats, fmt.Errorf("jobs: %d failures, first: %w", len(r.failures), r.failures[0])
	}
	if r.pending != 0 {
		return r.stats, fmt.Errorf("jobs: %d jobs never completed", r.pending)
	}
	return r.stats, nil
}

// preload creates every trace input file with bounded concurrency.
func (r *runner) preload() error {
	order := rand.New(rand.NewSource(r.opts.Seed)).Perm(len(r.stats.Trace.Files))
	var firstErr error
	next := 0
	var startNext func()
	active := 0
	startNext = func() {
		for active < preloadParallel && next < len(order) {
			f := r.stats.Trace.Files[order[next]]
			next++
			active++
			r.fs.Create(f.Path, f.Size, func(_ *dfs.File, err error) {
				active--
				if err != nil && firstErr == nil {
					firstErr = err
				}
				startNext()
			})
		}
	}
	startNext()
	for (active > 0 || next < len(order)) && r.engine.Step() {
	}
	if firstErr != nil {
		return fmt.Errorf("jobs: preload: %w", firstErr)
	}
	return nil
}

// inputRetryDelay and inputRetryLimit govern waiting for a chained input
// (a prior job's output) that has not been written yet.
const (
	inputRetryDelay = 30 * time.Second
	inputRetryLimit = 20
)

// arrive admits one job: resolve its input (waiting briefly when the input
// is another job's still-running output), record the access (the upgrade
// hook fires before any data is read), then enqueue its tasks after the
// startup overhead.
func (r *runner) arrive(spec workload.Job) {
	r.admit(spec, r.engine.Now(), 0)
}

func (r *runner) admit(spec workload.Job, arrival time.Time, attempt int) {
	file, err := r.fs.Open(spec.InputPath)
	if err != nil {
		if attempt < inputRetryLimit {
			r.engine.Schedule(inputRetryDelay, func() { r.admit(spec, arrival, attempt+1) })
			return
		}
		r.failures = append(r.failures, fmt.Errorf("job %d: %w", spec.ID, err))
		r.pending--
		return
	}
	r.start(spec, arrival, file)
}

func (r *runner) start(spec workload.Job, arrival time.Time, file *dfs.File) {
	r.stats.Jobs = append(r.stats.Jobs, JobStats{
		ID:          spec.ID,
		Bin:         spec.Bin,
		Arrival:     arrival, // original arrival: dependency waits count
		InputBytes:  spec.InputBytes,
		OutputBytes: spec.OutputBytes,
	})
	js := &r.stats.Jobs[len(r.stats.Jobs)-1]
	jr := &jobRun{spec: spec, file: file, stats: js, left: len(file.Blocks())}
	r.fs.RecordAccess(file)
	r.engine.Schedule(jobOverhead, func() {
		js.TaskSeconds += jobOverhead.Seconds()
		if jr.left == 0 {
			r.finishJob(jr)
			return
		}
		// One task per block: grow the queue once and allocate the task
		// records in a single batch instead of per block.
		blocks := file.Blocks()
		r.taskQueue = slices.Grow(r.taskQueue, len(blocks))
		tasks := make([]task, len(blocks))
		for i, b := range blocks {
			tasks[i] = task{job: jr, block: b}
			r.taskQueue = append(r.taskQueue, &tasks[i])
		}
		r.trySchedule()
	})
}

// trySchedule assigns queued tasks to free slots.
func (r *runner) trySchedule() {
	for len(r.taskQueue) > 0 {
		t := r.taskQueue[0]
		node := r.pickNode(t.block)
		if node == nil {
			return // no free slots anywhere
		}
		r.taskQueue = r.taskQueue[1:]
		r.freeSlots[node]--
		r.runTask(t, node)
	}
}

// pickNode chooses the node a task runs on. With probability localityBias
// the task is placed on a free node holding one of its block's replicas —
// chosen by slot availability, NOT by tier, because Hadoop/Spark schedulers
// are data-local but tier-blind (Section 7.2). Otherwise (or when no
// replica holder has slots) the least-loaded free node wins and the read
// goes remote, where the DFS client picks the highest remote tier. This
// split is what separates the paper's access-based from location-based hit
// ratios (Figure 9).
func (r *runner) pickNode(b *dfs.Block) *cluster.Node {
	var bestAny *cluster.Node
	bestAnySlots := -1
	var bestLocal *cluster.Node
	bestLocalSlots := -1
	var bestTierLocal *cluster.Node
	bestTier := storage.Media(99)
	for _, n := range r.fs.Cluster().Nodes() {
		slots, known := r.freeSlots[n]
		if !known {
			// The node joined after Run started (membership churn): all of
			// its slots are free.
			slots = n.Slots()
			r.freeSlots[n] = slots
		}
		if slots <= 0 {
			continue
		}
		if slots > bestAnySlots {
			bestAny, bestAnySlots = n, slots
		}
		localTier := storage.Media(99)
		for _, rep := range b.Replicas() {
			if rep.Node() == n && rep.Readable() && rep.Media() < localTier {
				localTier = rep.Media()
			}
		}
		if localTier == 99 {
			continue
		}
		if slots > bestLocalSlots {
			bestLocal, bestLocalSlots = n, slots
		}
		if localTier < bestTier {
			bestTier, bestTierLocal = localTier, n
		}
	}
	if bestLocal != nil && r.rng.Float64() < localityBias {
		if bestTierLocal != nil && r.rng.Float64() < r.opts.TierAffinity {
			return bestTierLocal
		}
		return bestLocal
	}
	return bestAny
}

// runTask executes one map task on a node.
func (r *runner) runTask(t *task, node *cluster.Node) {
	started := r.engine.Now()
	js := t.job.stats
	js.TotalBlocks++
	if t.block.ReplicaOn(storage.Memory) != nil {
		js.MemLocationBlocks++
		js.MemLocationBytes += t.block.Size()
	}
	finish := func() {
		js.TaskSeconds += r.engine.Now().Sub(started).Seconds()
		r.freeSlots[node]++
		t.job.left--
		if t.job.left == 0 {
			r.finishJob(t.job)
		}
		r.trySchedule()
	}
	r.engine.Schedule(taskOverhead, func() {
		r.fs.ReadBlock(t.block, node, func(res dfs.ReadResult, err error) {
			if err != nil {
				r.failures = append(r.failures, fmt.Errorf("job %d block %d: %w", t.job.spec.ID, t.block.ID(), err))
				finish()
				return
			}
			js.ReadsByMedia[res.Media]++
			js.BytesByMedia[res.Media] += t.block.Size()
			r.engine.Schedule(t.job.spec.CPUPerTask, finish)
		})
	})
}

// finishJob persists the job's output (when any) and stamps completion.
func (r *runner) finishJob(jr *jobRun) {
	complete := func() {
		jr.stats.Finished = r.engine.Now()
		r.pending--
	}
	if jr.spec.OutputPath == "" || jr.spec.OutputBytes == 0 {
		complete()
		return
	}
	writeStart := r.engine.Now()
	r.fs.Create(jr.spec.OutputPath, jr.spec.OutputBytes, func(_ *dfs.File, err error) {
		jr.stats.TaskSeconds += r.engine.Now().Sub(writeStart).Seconds()
		if err != nil {
			r.failures = append(r.failures, fmt.Errorf("job %d output: %w", jr.spec.ID, err))
		}
		complete()
	})
}
