package main

import (
	"fmt"
	"math/rand"
	"time"

	"octostore/internal/server"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// opGap is the virtual time between consecutive stamped ops.
const opGap = 20 * time.Millisecond

type opKind uint8

const (
	opAccess opKind = iota
	opCreate
	opDelete
)

// replayOp is one generated operation. seq numbers files in creation order.
type replayOp struct {
	kind opKind
	seq  uint32
	path string
}

// fnvMix folds v into a running FNV-1a hash, the schedule fingerprint printed
// in every report.
func fnvMix(h, v uint64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (v >> (8 * i) & 0xff)) * 1099511628211
	}
	return h
}

// replaySchedule generates the fixed create/access/delete/access cycle over a
// FIFO population: creates append, deletes take the oldest, accesses pick
// uniformly among files old enough to be indexed. It depends on the seed
// alone, never on what the system answered.
type replaySchedule struct {
	rng    *rand.Rand
	dirs   int
	oldest uint32
	next   uint32
	step   int
	hash   uint64
	paths  map[uint32]string
}

func newReplaySchedule(seed int64, dirs int) *replaySchedule {
	return &replaySchedule{rng: rand.New(rand.NewSource(seed)), dirs: dirs, paths: make(map[uint32]string)}
}

func (s *replaySchedule) live() int { return int(s.next - s.oldest) }

func (s *replaySchedule) emit(kind opKind, seq uint32) replayOp {
	s.hash = fnvMix(s.hash, uint64(kind)<<32|uint64(seq))
	return replayOp{kind: kind, seq: seq, path: s.paths[seq]}
}

func (s *replaySchedule) create() replayOp {
	seq := s.next
	s.next++
	s.paths[seq] = fmt.Sprintf("/r/d%03d/f%08d", int(seq)%s.dirs, seq)
	return s.emit(opCreate, seq)
}

// stage appends n creates.
func (s *replaySchedule) stage(out []replayOp, n int) []replayOp {
	for i := 0; i < n; i++ {
		out = append(out, s.create())
	}
	return out
}

// mix appends n ops of the 25/25/50 cycle.
func (s *replaySchedule) mix(out []replayOp, n int) []replayOp {
	for i := 0; i < n; i++ {
		switch s.step++; s.step & 3 {
		case 1:
			out = append(out, s.create())
		case 3:
			seq := s.oldest
			s.oldest++
			out = append(out, s.emit(opDelete, seq))
			delete(s.paths, seq)
		default:
			// The newest quarter is off limits: a create only completes once
			// virtual time passes its transfer, which takes later ops.
			span := s.live() - s.live()/4
			out = append(out, s.emit(opAccess, s.oldest+uint32(s.rng.Intn(span))))
		}
	}
	return out
}

// replayScale sizes a replay workload's phases.
type replayScale struct {
	warmOps int
	// blockOps are generated at once, outside the timed region, then
	// submitted back to back; a clock read every chunkOps splits the block
	// into the samples ops_per_s is the median of.
	blockOps int
	chunkOps int
	// refOps is the fixed amount of work replay_s is quoted for.
	refOps float64
}

// replayRun drives one replay-mode server with a single submitting client.
type replayRun struct {
	spec  serveSpec
	sys   *system
	tr    *tracer
	sched *replaySchedule
	reap  *reaper

	base time.Time // stamps count from here
	n    int64     // ops stamped since base

	guardFences int64
	busyRetries int64
	// lockstep fences after every op, which makes a run deterministic (the
	// transparency test compares two of them).
	lockstep bool

	attempted int64
	failed    int64
	firstErr  error
	latSum    time.Duration
	served    int64
}

func (r *replayRun) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *replayRun) stamp() time.Time {
	r.n++
	return r.base.Add(time.Duration(r.n) * opGap)
}

// fence quiesces the server, takes the reaper's tail, and re-bases the
// stamps on engine time. A delete refused because its file was mid-move
// (dfs.ErrBusy) is retried here, where nothing is in transition any more: the
// client in this workload is one that retries a refusal, and the retries are
// counted.
func (r *replayRun) fence() {
	for {
		r.tr.record(rootRun, "server.flush", r.sys.srv.Flush)
		r.reap.drain()
		r.base, r.n = r.sys.engineNow(), 0
		busy := r.reap.takeBusy()
		if len(busy) == 0 {
			return
		}
		r.busyRetries += int64(len(busy))
		for _, path := range busy {
			r.reap.submit(pending{ch: r.sys.srv.DeleteAt(path, r.stamp())})
		}
	}
}

// exec submits ops back to back, appending a clock read to marks after every
// chunk ops (chunk 0 = none).
func (r *replayRun) exec(ops []replayOp, chunk int, marks []time.Time) []time.Time {
	srv := r.sys.srv
	for i := range ops {
		o := &ops[i]
		at := r.stamp()
		r.attempted++
		sampled := r.tr != nil && r.attempted%sampleEvery == 0
		var id, start int64
		if sampled {
			id, start = r.tr.newID(), r.tr.now()
		}
		switch o.kind {
		case opCreate:
			r.reap.submit(pending{ch: srv.CreateAt(o.path, r.spec.fileSize, at), create: true})
			if sampled {
				r.tr.add(id, rootRun, "server.create_submit", start, r.tr.now())
			}
		case opDelete:
			r.reap.submit(pending{ch: srv.DeleteAt(o.path, at), retry: o.path})
			if sampled {
				r.tr.add(id, rootRun, "server.delete_submit", start, r.tr.now())
			}
		default:
			r.waitIndexed(o.seq)
			if sampled {
				r.tr.arm(0, sim.Nanos(at), id)
			}
			res, err := srv.AccessAt(o.path, at)
			if sampled {
				r.tr.disarm(0)
				r.tr.add(id, rootRun, "server.access", start, r.tr.now())
			}
			switch {
			case err != nil:
				r.fail(err)
			case !res.Served:
				r.fail(fmt.Errorf("access %s: no resident tier", o.path))
			default:
				r.served++
				r.latSum += res.Latency
			}
		}
		if r.lockstep {
			srv.Flush()
		}
		if chunk > 0 && (i+1)%chunk == 0 {
			marks = append(marks, time.Now())
		}
	}
	return marks
}

// waitIndexed blocks until file seq's create completed. With the schedule's
// age margin it never waits at full scale; at -quick scale the population is
// smaller than the command pipeline and it occasionally does.
func (r *replayRun) waitIndexed(seq uint32) {
	for r.reap.creates <= int64(seq) {
		r.guardFences++
		r.sys.srv.Flush()
		r.reap.drain()
	}
}

// replayResult is what one replay workload run measured.
type replayResult struct {
	setupS       []float64
	chunkS       []float64
	chunkOps     int
	flushS       float64
	heapPerFile  float64
	stats        server.ServeStats // timed window only
	latMeanS     float64
	windowS      float64
	events       uint64
	generateS    float64
	scheduleHash uint64
	// spanFrom and spanTo bound the timed window in tracer time (traced runs).
	spanFrom, spanTo int64
}

// runReplay stages, warms up and then submits timed blocks until seconds of
// timed work have accumulated, ending on a fence.
func runReplay(spec serveSpec, scale replayScale, o options, tr *tracer, setups int) (*replayRun, *replayResult, error) {
	res := &replayResult{chunkOps: scale.chunkOps}
	var run *replayRun
	// Set-up is repeated and its median reported; the last system built is
	// the one measured.
	for i := 0; i < setups; i++ {
		if run != nil {
			run.sys.srv.Close()
		}
		start := time.Now()
		sys, err := buildSystem(spec, o.seed, tr)
		if err != nil {
			return nil, nil, err
		}
		run = &replayRun{spec: spec, sys: sys, tr: tr, sched: newReplaySchedule(o.seed, spec.dirs), reap: &reaper{}}
		run.base = sim.AtNanos(0)
		genStart := time.Now()
		stage := run.sched.stage(nil, spec.files)
		res.generateS = time.Since(genStart).Seconds()
		run.exec(stage, 0, nil)
		run.fence()
		res.setupS = append(res.setupS, time.Since(start).Seconds())
	}
	run.exec(run.sched.mix(nil, scale.warmOps), 0, nil)
	run.fence()
	// Measured after a fixed number of ops and before the timed schedule is
	// allocated: how far a time-bounded window gets must not show here.
	res.heapPerFile = heapInuse() / float64(spec.files)
	ops := make([]replayOp, 0, scale.blockOps)

	before := run.sys.srv.Stats()
	eventsBefore := run.sys.simEvents()
	run.latSum, run.served = 0, 0
	res.spanFrom = tr.now()
	var marks []time.Time
	for first := true; res.windowS < o.seconds; first = false {
		genStart := time.Now()
		ops = run.sched.mix(ops[:0], scale.blockOps)
		res.generateS += time.Since(genStart).Seconds()
		if first {
			res.scheduleHash = run.sched.hash
		}
		prev := time.Now()
		marks = run.exec(ops, scale.chunkOps, marks[:0])
		for _, m := range marks {
			res.chunkS = append(res.chunkS, m.Sub(prev).Seconds())
			res.windowS += m.Sub(prev).Seconds()
			prev = m
		}
	}
	flushStart := time.Now()
	run.fence()
	res.flushS = time.Since(flushStart).Seconds()
	res.spanTo = tr.now()
	res.stats = statsDelta(run.sys.srv.Stats(), before)
	res.events = run.sys.simEvents() - eventsBefore
	if run.served > 0 {
		res.latMeanS = run.latSum.Seconds() / float64(run.served)
	}
	return run, res, nil
}

// statsDelta subtracts the counters the harness reports.
func statsDelta(a, b server.ServeStats) server.ServeStats {
	a.Accesses -= b.Accesses
	a.EventsDrained -= b.EventsDrained
	a.EventsDropped -= b.EventsDropped
	a.DrainBatches -= b.DrainBatches
	for i := range a.ServedByTier {
		a.ServedByTier[i] -= b.ServedByTier[i]
	}
	return a
}

func memHitFrac(st server.ServeStats) float64 {
	total := st.ServedByTier[0] + st.ServedByTier[1] + st.ServedByTier[2]
	if total == 0 {
		return 0
	}
	return float64(st.ServedByTier[storage.Memory]) / float64(total)
}
