package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"octostore/internal/server"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

const (
	hotClients = 2
	// hotChunk is how many ops a client runs between two clock reads.
	hotChunk = 1 << 12
	// hotRefOps is the fixed amount of work replay_s is quoted for.
	hotRefOps = 1e6
	// hotSchedLen is each client's cyclic schedule length (a power of two).
	hotSchedLen = 1 << 20
	hotZipfS    = 1.1
	hotStatFrac = 0.10
)

// hotSchedule is one client's op list: file index << 1 | isStat. Clients
// cycle through it, so how many ops run depends on speed but which ops run
// depends on the seed alone.
func hotSchedule(seed int64, files int) (sched []uint32, hash uint64) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(files-1))
	sched = make([]uint32, hotSchedLen)
	for i := range sched {
		e := uint32(zipf.Uint64()) << 1
		if rng.Float64() < hotStatFrac {
			e |= 1
		}
		sched[i] = e
		hash = fnvMix(hash, uint64(e))
	}
	return sched, hash
}

// hotClient is one closed-loop client goroutine's state.
type hotClient struct {
	id    int
	sched []uint32
	marks []time.Time // one per completed chunk

	ops      int64
	failed   int64
	firstErr error
	latSum   time.Duration
	served   int64
}

type hotRun struct {
	spec  serveSpec
	sys   *system
	tr    *tracer
	paths []string
}

func (h *hotRun) fail(c *hotClient, err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// loop runs chunks until stop is set.
func (h *hotRun) loop(c *hotClient, stop *atomic.Bool) {
	srv := h.sys.srv
	pos := 0
	for !stop.Load() {
		for k := 0; k < hotChunk; k++ {
			e := c.sched[pos&(hotSchedLen-1)]
			pos++
			path := h.paths[e>>1]
			if e&1 == 1 {
				h.stat(c, path, pos)
				continue
			}
			// Every access is stamped with the server's one stamping clock.
			// Access() would stamp with the owning shard's clock instead, and
			// the shards' clocks differ by their start offset x TimeScale
			// (about a virtual millisecond), which the shared plane then
			// books as queueing for whichever shard lags.
			at := srv.Clock()
			var res server.AccessResult
			var err error
			if h.tr != nil && pos%sampleEvery == 0 {
				id, start := h.tr.newID(), h.tr.now()
				h.tr.arm(c.id, sim.Nanos(at), id)
				res, err = srv.AccessAt(path, at)
				h.tr.disarm(c.id)
				h.tr.add(id, rootRun, "server.access", start, h.tr.now())
			} else {
				res, err = srv.AccessAt(path, at)
			}
			switch {
			case err != nil:
				h.fail(c, err)
			case !res.Served || res.Tier != storage.Memory:
				h.fail(c, fmt.Errorf("access %s: served=%v tier=%v, want memory", path, res.Served, res.Tier))
			default:
				c.served++
				c.latSum += res.Latency
			}
		}
		c.ops += hotChunk
		c.marks = append(c.marks, time.Now())
	}
}

func (h *hotRun) stat(c *hotClient, path string, pos int) {
	var info server.FileInfo
	var err error
	if h.tr != nil && pos%sampleEvery == 0 {
		h.tr.record(rootRun, "server.stat", func() { info, err = h.sys.srv.Stat(path) })
	} else {
		info, err = h.sys.srv.Stat(path)
	}
	if err != nil {
		h.fail(c, err)
	} else if info.Size != h.spec.fileSize {
		h.fail(c, fmt.Errorf("stat %s: size %d, want %d", path, info.Size, h.spec.fileSize))
	}
}

// stageHot creates every file through a stamped pipeline.
func stageHot(sys *system, spec serveSpec, paths []string) error {
	var reap reaper
	for _, p := range paths {
		reap.submit(pending{ch: sys.srv.CreateAt(p, spec.fileSize, sys.srv.Clock())})
	}
	sys.srv.Flush()
	reap.drain()
	if reap.failed > 0 {
		return fmt.Errorf("stage %s: %d creates failed, first: %w", spec.name, reap.failed, reap.first)
	}
	return nil
}

type hotResult struct {
	setupS       []float64
	opsPerS      float64
	replayS      float64 // mean host seconds per hotRefOps, final Flush included
	heapPerFile  float64
	stats        server.ServeStats
	latMeanS     float64
	windowS      float64
	attempted    int64
	failed       int64
	firstErr     error
	events       uint64
	generateS    float64
	scheduleHash uint64
	// spanFrom and spanTo bound the timed window in tracer time (traced runs).
	spanFrom, spanTo int64
}

// runHot stages the population, then runs the closed-loop clients for
// warm + seconds and reports the median chunk rate of the timed window.
func runHot(spec serveSpec, warm time.Duration, o options, tr *tracer, setups int) (*hotRun, *hotResult, error) {
	res := &hotResult{}
	run := &hotRun{spec: spec, tr: tr, paths: make([]string, spec.files)}
	for i := range run.paths {
		run.paths[i] = fmt.Sprintf("/h/d%04d/f%06d", i%spec.dirs, i)
	}
	for i := 0; i < setups; i++ {
		if run.sys != nil {
			run.sys.srv.Close()
		}
		start := time.Now()
		sys, err := buildSystem(spec, o.seed, tr)
		if err != nil {
			return nil, nil, err
		}
		run.sys = sys
		if err := stageHot(sys, spec, run.paths); err != nil {
			return nil, nil, err
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
	}
	res.heapPerFile = heapInuse() / float64(spec.files)

	clients := make([]*hotClient, hotClients)
	genStart := time.Now()
	for i := range clients {
		sched, hash := hotSchedule(o.seed*hotClients+int64(i), spec.files)
		clients[i] = &hotClient{id: i, sched: sched, marks: make([]time.Time, 0, 1<<14)}
		res.scheduleHash = fnvMix(res.scheduleHash, hash)
	}
	res.generateS = time.Since(genStart).Seconds()
	for i := range res.setupS {
		res.setupS[i] += res.generateS // generated once, part of every set-up
	}

	eventsBefore := run.sys.simEvents()
	var stop atomic.Bool
	var wg sync.WaitGroup
	begin := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *hotClient) {
			defer wg.Done()
			run.loop(c, &stop)
		}(c)
	}
	window := time.Duration(o.seconds * float64(time.Second))
	time.Sleep(warm + window)
	stop.Store(true)
	wg.Wait()
	run.sys.srv.Flush()
	end := time.Now()
	res.spanTo = tr.now()
	res.spanFrom = res.spanTo - int64(end.Sub(begin.Add(warm)))

	// The timed window opens once the warm-up has passed; a chunk counts if it
	// began inside the window.
	timedFrom := begin.Add(warm)
	res.windowS = end.Sub(timedFrom).Seconds()
	var timedOps float64
	for _, c := range clients {
		var chunks []float64
		prev := begin
		for _, m := range c.marks {
			if !prev.Before(timedFrom) {
				chunks = append(chunks, m.Sub(prev).Seconds())
			}
			prev = m
		}
		rates := windowRates(chunks, hotChunk, o.seconds/subWindows)
		if len(rates) == 0 {
			return nil, nil, fmt.Errorf("%s: client %d completed no timed sub-window", spec.name, c.id)
		}
		res.opsPerS += median(rates)
		timedOps += float64(len(chunks) * hotChunk)
		res.attempted += c.ops
		res.failed += c.failed
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
		res.latMeanS += c.latSum.Seconds()
	}
	res.replayS = res.windowS / timedOps * hotRefOps
	var served int64
	for _, c := range clients {
		served += c.served
	}
	if served > 0 {
		res.latMeanS /= float64(served)
	}
	res.stats = run.sys.srv.Stats()
	res.events = run.sys.simEvents() - eventsBefore
	return run, res, nil
}
