package server

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"octostore/internal/dfs"
	"octostore/internal/obs"
	"octostore/internal/storage"
)

// The rebalancer is the feedback loop that lifts the static-hash skew
// ceiling: it watches per-shard routed-op counters (windowed over its tick
// cadence), and when one shard's load runs hot relative to the mean it picks
// the hottest directory pinned to that shard and migrates the whole subtree
// to the coldest shard. The move itself is a sequence of per-file
// detach/attach pairs — each half running on its owning shard loop under the
// usual single-writer discipline, with destination capacity grown through
// the ledger's two-phase reserve/commit protocol — under a routeMigrating
// table entry, so clients double-read (destination first, hash owner as
// fallback) and never block on the move. Once every source shard sweeps
// empty the entry flips to routeCommitted and the fallback read disappears.
//
// The migrating state is self-stabilizing, never rolled back: files that a
// sweep could not move (mid-create, replica in transition, destination
// briefly out of capacity) stay readable through the fallback path and are
// retried on later sweeps or the Flush-time straggler drain. The route
// only ever moves forward — migrating → committed — which keeps the epoch
// protocol a one-way door and the failure model trivial. Committed entries
// are not permanent, though: once a subtree goes cold the entry drains —
// committed → draining → removed, the same forward-only double-read epoch
// run in reverse — so the bounded route table recycles its slots instead of
// saturating after MaxPrefixes lifetime migrations (see maintainRoutes).

// RebalanceConfig tunes hot-shard detection and migration.
type RebalanceConfig struct {
	// Enabled turns the rebalancer on (default off: static routing,
	// zero added cost on the serving path).
	Enabled bool
	// Interval is the detection cadence in virtual time (default 2s). Under
	// live load the background loop maps it to wall time through the inner
	// TimeScale; replay-driven callers invoke RebalanceTick directly.
	Interval time.Duration
	// HotRatio is the max/mean shard-load imbalance that triggers a
	// migration (default 1.5).
	HotRatio float64
	// MinOps is the minimum windowed op count on the hot shard before the
	// ratio is believed — low-traffic noise never triggers moves
	// (default 256).
	MinOps int64
	// MaxPrefixes bounds the route table (default 64).
	MaxPrefixes int
	// RehomeColdTicks is how many consecutive detection rounds a committed
	// subtree must log zero routed ops before its files fold back to static
	// routing and the route entry is garbage-collected — without it the
	// table fills after MaxPrefixes lifetime migrations and the rebalancer
	// permanently stops reacting to new hotspots (default 8; negative
	// disables fold-back).
	RehomeColdTicks int
}

// maxSweeps bounds how many passes one migration round makes over the source
// shards before leaving the remainder to a later round.
const maxSweeps = 4

func (c *RebalanceConfig) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.HotRatio <= 1 {
		c.HotRatio = 1.5
	}
	if c.MinOps <= 0 {
		c.MinOps = 256
	}
	if c.MaxPrefixes <= 0 {
		c.MaxPrefixes = 64
	}
	if c.RehomeColdTicks == 0 {
		c.RehomeColdTicks = 8
	}
}

// RebalanceStats is the rebalancer's counter snapshot.
type RebalanceStats struct {
	Started    int64   `json:"started"`
	Completed  int64   `json:"completed"`
	Aborted    int64   `json:"aborted"`
	EpochFlips int64   `json:"epoch_flips"`
	FilesMoved int64   `json:"files_moved"`
	BytesMoved int64   `json:"bytes_moved"`
	Superseded int64   `json:"superseded"` // stale source copies dropped after a client recreate on dst (no bytes copied)
	Rehomed    int64   `json:"rehomed"`    // cold committed routes folded back to static routing
	Spread     float64 `json:"spread"`     // last observed max/mean shard-load ratio
	Routes     int     `json:"routes"`     // current route-table entries
}

// trackerCap bounds the per-dir counter map; dirs beyond the cap still count
// toward their shard's total but are not individually rankable.
const trackerCap = 4096

// dirStat is one directory's windowed access count plus the shard its ops
// last routed to.
type dirStat struct {
	ops   atomic.Int64
	shard atomic.Int32
}

// loadTracker accumulates routed-op counts per shard and per directory.
// note() is on the client access path, so it is two atomic adds and a lock-
// free map probe; the map only grows (bounded by trackerCap) and is swept by
// the tick.
type loadTracker struct {
	perShard []atomic.Int64
	dirs     sync.Map // dir string -> *dirStat
	nDirs    atomic.Int64
}

func newLoadTracker(shards int) *loadTracker {
	return &loadTracker{perShard: make([]atomic.Int64, shards)}
}

func (t *loadTracker) note(dir string, shard int) {
	t.perShard[shard].Add(1)
	v, ok := t.dirs.Load(dir)
	if !ok {
		if t.nDirs.Load() >= trackerCap {
			return
		}
		var loaded bool
		v, loaded = t.dirs.LoadOrStore(dir, &dirStat{})
		if !loaded {
			t.nDirs.Add(1)
		}
	}
	ds := v.(*dirStat)
	ds.ops.Add(1)
	ds.shard.Store(int32(shard))
}

// rebalancer owns the detection loop, the route table, and the migration
// engine. One round runs at a time (mu); the tracker and stats are written
// lock-free from the serving path.
type rebalancer struct {
	s       *ShardedServer
	cfg     RebalanceConfig
	tracker *loadTracker

	mu sync.Mutex // serializes detection rounds and route-table writes

	started    atomic.Int64
	completed  atomic.Int64
	aborted    atomic.Int64
	flips      atomic.Int64
	filesMoved atomic.Int64
	bytesMoved atomic.Int64
	superseded atomic.Int64
	rehomed    atomic.Int64
	spreadBits atomic.Uint64

	// coldTicks counts, per committed route prefix, consecutive detection
	// rounds with zero routed ops under the subtree; drainClean counts, per
	// draining prefix, consecutive rounds whose fold-back walk found nothing
	// left to move (the removal grace). Both guarded by mu.
	coldTicks  map[string]int
	drainClean map[string]int

	stop chan struct{}
	wg   sync.WaitGroup
}

func newRebalancer(s *ShardedServer, cfg RebalanceConfig) *rebalancer {
	cfg.applyDefaults()
	return &rebalancer{
		s:          s,
		cfg:        cfg,
		tracker:    newLoadTracker(len(s.shards)),
		coldTicks:  make(map[string]int),
		drainClean: make(map[string]int),
		stop:       make(chan struct{}),
	}
}

// start launches the wall-time detection loop (live mode only; replay
// drivers call RebalanceTick themselves).
func (r *rebalancer) start(timeScale float64) {
	if timeScale <= 0 {
		return
	}
	wall := time.Duration(float64(r.cfg.Interval) / timeScale)
	if wall < time.Millisecond {
		wall = time.Millisecond
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(wall)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.tick()
			}
		}
	}()
}

// halt stops the detection loop and waits for any in-flight round. Must run
// BEFORE the shard loops close: a round mid-migration runs on shard loops,
// and inLoop on a stopped shard never returns.
func (r *rebalancer) halt() {
	close(r.stop)
	r.wg.Wait()
}

// exec runs fn with exclusive access to sh's file system: through the shard
// loop while the system is live, directly when the loops are stopped (same
// contract as ShardedServer.Exec — outside Start/Close the caller's
// goroutine is the only one near the shards).
func (r *rebalancer) exec(sh *shard, fn func(*dfs.FileSystem)) {
	if !r.s.running {
		fn(sh.fs)
		return
	}
	sh.inLoop(fn)
}

func (r *rebalancer) snapshot() RebalanceStats {
	return RebalanceStats{
		Started:    r.started.Load(),
		Completed:  r.completed.Load(),
		Aborted:    r.aborted.Load(),
		EpochFlips: r.flips.Load(),
		FilesMoved: r.filesMoved.Load(),
		BytesMoved: r.bytesMoved.Load(),
		Superseded: r.superseded.Load(),
		Rehomed:    r.rehomed.Load(),
		Spread:     math.Float64frombits(r.spreadBits.Load()),
		Routes:     len(r.s.routes.entries()),
	}
}

// maxMovesPerTick bounds how many subtree migrations one detection round
// plans; a skew spread over many colliding dirs drains over a few ticks.
const maxMovesPerTick = 4

// tick runs one detection round: swap out the windowed counters, compute the
// imbalance ratio, and if a shard runs hot greedily plan subtree moves off it
// — hottest eligible dir first, each to the planned-coldest shard, each move
// accepted only if it strictly narrows the hot/cold gap (so a single
// dominant dir is never pointlessly bounced between shards) — then execute
// the plan.
func (r *rebalancer) tick() {
	r.mu.Lock()
	defer r.mu.Unlock()

	n := len(r.s.shards)
	ops := make([]int64, n)
	var total, max int64
	hot := 0
	for i := range ops {
		ops[i] = r.tracker.perShard[i].Swap(0)
		total += ops[i]
		if ops[i] > max {
			max, hot = ops[i], i
		}
	}
	entries := r.s.routes.entries()
	// Per-dir windows reset on the same cadence so dir counts and shard
	// counts describe the same window. The same sweep sums the window's ops
	// under each committed route, feeding the cold-subtree fold-back in
	// maintainRoutes.
	type dirLoad struct {
		dir string
		ops int64
	}
	var dirs []dirLoad
	opsUnder := make(map[string]int64, len(entries))
	r.tracker.dirs.Range(func(k, v any) bool {
		ds := v.(*dirStat)
		c := ds.ops.Swap(0)
		if c == 0 {
			return true
		}
		dir := k.(string)
		for i := range entries {
			if entries[i].state == routeCommitted && covers(entries[i].prefix, dir) {
				opsUnder[entries[i].prefix] += c
				break // entries never nest, so at most one covers dir
			}
		}
		if int(ds.shard.Load()) == hot {
			dirs = append(dirs, dirLoad{dir: dir, ops: c})
		}
		return true
	})

	if total == 0 {
		return
	}
	mean := float64(total) / float64(n)
	spread := float64(max) / mean
	r.spreadBits.Store(math.Float64bits(spread))

	r.maintainRoutes(entries, opsUnder)

	if spread < r.cfg.HotRatio || max < r.cfg.MinOps {
		return
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].ops > dirs[j].ops })
	loads := append([]int64(nil), ops...)
	type plannedMove struct {
		prefix string
		dst    int
	}
	var plans []plannedMove
	for _, d := range dirs {
		if len(plans) >= maxMovesPerTick || len(entries)+len(plans) >= r.cfg.MaxPrefixes {
			break
		}
		if float64(loads[hot]) < r.cfg.HotRatio*mean {
			break // balanced enough; save the route-table budget
		}
		if d.dir == "/" || d.ops*64 < ops[hot] {
			continue // noise dirs are not worth a route entry
		}
		// Never nest route entries: an override covering (or covered by) an
		// existing or just-planned prefix would make ownership ambiguous
		// mid-migration.
		nested := false
		for _, e := range entries {
			if covers(e.prefix, d.dir) || covers(d.dir, e.prefix) {
				nested = true
				break
			}
		}
		for _, p := range plans {
			if covers(p.prefix, d.dir) || covers(d.dir, p.prefix) {
				nested = true
				break
			}
		}
		if nested {
			continue
		}
		// Coldest shard by planned load; reject moves that would merely swap
		// the imbalance rather than spread it.
		cold := 0
		for i := range loads {
			if loads[i] < loads[cold] {
				cold = i
			}
		}
		if cold == hot || loads[hot]-d.ops < loads[cold]+d.ops {
			continue
		}
		plans = append(plans, plannedMove{prefix: d.dir, dst: cold})
		loads[hot] -= d.ops
		loads[cold] += d.ops
	}
	for _, p := range plans {
		r.migratePrefix(p.prefix, p.dst, spread)
	}
}

// rehomesPerTick bounds how many cold committed entries one detection round
// starts folding back; continuing an already-draining entry is always free.
const rehomesPerTick = 1

// maintainRoutes garbage-collects the route table so it never fills up for
// good: draining entries continue their fold-back sweeps, and — under
// route-table budget pressure — committed entries whose subtree logged zero
// routed ops for RehomeColdTicks consecutive rounds start folding back to
// static routing, freeing MaxPrefixes slots (and lookup-scan entries) for
// future hotspots instead of permanently spending one per lifetime
// migration. The pressure gate matters: with plenty of slots free a
// committed override costs almost nothing, and folding subtrees back on
// every idle spell would thrash files between shards — every extra flip is
// another epoch transition for live traffic to race. Runs under r.mu as
// part of tick.
func (r *rebalancer) maintainRoutes(entries []routeEntry, opsUnder map[string]int64) {
	if r.cfg.RehomeColdTicks < 0 {
		return
	}
	for _, e := range entries {
		if e.state == routeDraining {
			r.drainEntryHome(e.prefix, e.dst, maxSweeps)
		}
	}
	if len(entries) < r.cfg.MaxPrefixes/2 {
		return
	}
	started := 0
	for _, e := range entries {
		if e.state != routeCommitted {
			continue
		}
		if opsUnder[e.prefix] > 0 {
			delete(r.coldTicks, e.prefix)
			continue
		}
		r.coldTicks[e.prefix]++
		if started < rehomesPerTick && r.coldTicks[e.prefix] >= r.cfg.RehomeColdTicks {
			r.rehomePrefix(e.prefix, e.dst)
			started++
		}
	}
}

// rehomePrefix folds a cold committed subtree back to static routing: the
// entry flips to routeDraining — writes route by the per-dir hash again
// while reads keep a fallback to the old destination — and the
// destination's files under the prefix sweep back to their hash owners.
func (r *rebalancer) rehomePrefix(prefix string, dst int) {
	delete(r.coldTicks, prefix)
	r.s.routes.upsert(routeEntry{prefix: prefix, dst: dst, state: routeDraining})
	r.s.cfg.Inner.Obs.EmitEvent(&obs.Event{
		What:   "shard-migration",
		Detail: fmt.Sprintf("rehome prefix=%s dst=%d", prefix, dst),
	})
	r.drainEntryHome(prefix, dst, maxSweeps)
}

// drainEntryHome makes up to `rounds` passes moving the old destination's
// files under a draining prefix back to the shard their parent dir hashes
// to — sweepEntry in reverse, reusing the same per-file copy-then-detach
// move (reads stay correct throughout: the per-dir hash owner is primary,
// dst is the fallback). Files whose dir hashes to dst stay put. Once dst
// stays clean for RehomeColdTicks consecutive rounds the entry is removed;
// a stalled pass leaves it draining for a later round. Returns true when
// the entry was removed.
func (r *rebalancer) drainEntryHome(prefix string, dst int, rounds int) bool {
	src := r.s.shards[dst]
	n := uint32(len(r.s.shards))
	for pass := 0; pass < rounds; pass++ {
		var paths []string
		r.exec(src, func(fs *dfs.FileSystem) {
			fs.Namespace().WalkUnder(prefix, func(f *dfs.File) {
				paths = append(paths, f.Path())
			})
		})
		var work, remaining, moved int64
		for _, p := range paths {
			dir, _ := parentOf(p)
			owner := int(fnv32(dir) % n)
			if owner == dst {
				continue
			}
			work++
			switch r.migrateFile(src, r.s.shards[owner], p) {
			case migrateMoved:
				moved++
			case migrateSkipped:
				remaining++
			case migrateGone:
			}
		}
		if work == 0 {
			// Clean walk: dst holds nothing the static hash would not place
			// there anyway. The entry is removed only after RehomeColdTicks
			// consecutive clean rounds (one per detection tick): a create
			// routed against a pre-draining snapshot can still land on dst,
			// and the grace lets a later round sweep it home instead of the
			// eager removal stranding it where static routing never looks.
			r.drainClean[prefix]++
			if r.drainClean[prefix] < max(r.cfg.RehomeColdTicks, 1) {
				return false
			}
			delete(r.drainClean, prefix)
			r.s.routes.remove(prefix)
			r.rehomed.Add(1)
			r.s.cfg.Inner.Obs.EmitEvent(&obs.Event{
				What:   "shard-migration",
				Detail: fmt.Sprintf("rehomed prefix=%s dst=%d", prefix, dst),
			})
			return true
		}
		r.drainClean[prefix] = 0
		if remaining == 0 {
			continue // everything seen this pass moved; re-walk for stragglers
		}
		if moved == 0 {
			return false // stalled; the draining entry keeps reads correct
		}
	}
	return false
}

// migratePrefix installs a migrating route for the subtree and sweeps every
// source shard's files under it over to dst, flipping the entry to committed
// once the sources are empty. Partial progress is fine: the entry stays
// migrating and later rounds (or the Flush drain) finish the job.
func (r *rebalancer) migratePrefix(prefix string, dst int, spread float64) {
	r.started.Add(1)
	r.s.routes.upsert(routeEntry{prefix: prefix, dst: dst, state: routeMigrating})
	r.s.cfg.Inner.Obs.EmitEvent(&obs.Event{
		What:   "shard-migration",
		Detail: fmt.Sprintf("start prefix=%s dst=%d spread=%.2f", prefix, dst, spread),
	})
	r.sweepEntry(prefix, dst, maxSweeps)
}

// sweepEntry makes up to `rounds` passes moving files under prefix from
// every shard except dst onto dst. Returns true when the entry flipped to
// committed.
func (r *rebalancer) sweepEntry(prefix string, dst int, rounds int) bool {
	var movedTotal int64
	for pass := 0; pass < rounds; pass++ {
		var remaining, moved int64
		for i, sh := range r.s.shards {
			if i == dst {
				continue
			}
			// Collect under the shard loop, then migrate file by file so
			// client ops interleave between moves.
			var paths []string
			r.exec(sh, func(fs *dfs.FileSystem) {
				fs.Namespace().WalkUnder(prefix, func(f *dfs.File) {
					paths = append(paths, f.Path())
				})
			})
			for _, p := range paths {
				switch r.migrateFile(sh, r.s.shards[dst], p) {
				case migrateMoved:
					moved++
				case migrateSkipped:
					remaining++
				case migrateGone:
					// recreated on dst or deleted mid-sweep: nothing left here
				}
			}
		}
		movedTotal += moved
		if remaining == 0 {
			r.s.routes.upsert(routeEntry{prefix: prefix, dst: dst, state: routeCommitted})
			r.flips.Add(1)
			r.completed.Add(1)
			r.s.cfg.Inner.Obs.EmitEvent(&obs.Event{
				What:   "shard-migration",
				Detail: fmt.Sprintf("commit prefix=%s dst=%d files=%d", prefix, dst, movedTotal),
			})
			return true
		}
		if moved == 0 {
			// Zero progress with files still stranded: give up this round.
			// The migrating entry keeps reads correct via the fallback path;
			// a later round retries.
			r.aborted.Add(1)
			r.s.cfg.Inner.Obs.EmitEvent(&obs.Event{
				What:   "shard-migration",
				Detail: fmt.Sprintf("stall prefix=%s dst=%d remaining=%d", prefix, dst, remaining),
			})
			return false
		}
	}
	return false
}

type migrateOutcome int

const (
	migrateMoved migrateOutcome = iota
	migrateSkipped
	migrateGone
)

// migrateFile moves one file with copy-then-detach ordering so the file is
// visible to the double-read at every instant: snapshot the layout on the
// source, attach a copy (with a quota borrow through the ledger's two-phase
// protocol) on the destination, then detach the source copy as the commit.
// Between attach and commit the file briefly exists on both shards; reads
// hit the destination (primary) and deletes during the epoch delete on both
// sides, so neither copy can serve stale truth. A commit that finds the
// source copy already gone means a client deleted the file mid-move — the
// fresh destination copy is removed too, honoring the delete.
func (r *rebalancer) migrateFile(src, dst *shard, path string) migrateOutcome {
	var rec dfs.FileRecord
	var serr error
	r.exec(src, func(fs *dfs.FileSystem) { rec, serr = fs.SnapshotFile(path) })
	if serr != nil {
		if errors.Is(serr, dfs.ErrNotFound) {
			return migrateGone // deleted between walk and snapshot
		}
		return migrateSkipped // busy / mid-create: next sweep
	}
	aerr := r.attachOn(dst, rec)
	landed := aerr == nil
	switch {
	case landed:
		// Copy landed; commit below.
	case errors.Is(aerr, dfs.ErrExists):
		// A client recreated the path on the destination; the newer file
		// wins and the stale source copy just needs to go (commit below).
	default:
		// Capacity, even after borrowing: the source copy is untouched and
		// keeps serving through the fallback path. Retry on a later sweep.
		return migrateSkipped
	}
	var derr error
	r.exec(src, func(*dfs.FileSystem) { derr = src.migrateOut(path) })
	if derr == nil {
		if landed {
			r.filesMoved.Add(1)
			r.bytesMoved.Add(rec.Bytes())
		} else {
			// ErrExists: no bytes were copied — the stale source copy was
			// merely dropped in favor of the client's recreate. Counting it
			// as a move would inflate the moved-files/bytes counters the
			// benchgate vacuity check reads.
			r.superseded.Add(1)
		}
		return migrateMoved
	}
	if errors.Is(derr, dfs.ErrNotFound) {
		// Deleted mid-move. If we attached a copy a moment ago, take it back
		// out (a racing client delete may already have).
		if landed {
			r.exec(dst, func(fs *dfs.FileSystem) { _, _ = fs.DetachFile(path) })
		}
		return migrateGone
	}
	// The source copy went busy between snapshot and commit (a movement
	// grabbed it). Both copies stay live — reads serve the destination —
	// and the next sweep retries the commit.
	return migrateSkipped
}

// attachOn recreates the record on sh's file system, borrowing quota from
// the global ledger when the shard's slice is short, and indexes the file
// into the shard's serving handles. The returned error is nil on success,
// dfs.ErrExists when the path is already there, dfs.ErrNoCapacity when the
// shard cannot take the file even after borrowing.
func (r *rebalancer) attachOn(sh *shard, rec dfs.FileRecord) error {
	var aerr error
	r.exec(sh, func(fs *dfs.FileSystem) {
		aerr = fs.AttachFile(rec)
		if aerr != nil && errors.Is(aerr, dfs.ErrNoCapacity) {
			chain, maxRep := rec.TierNeeds()
			granted := true
			for _, m := range storage.AllMedia {
				if maxRep[m] > 0 && !sh.quota.EnsureSpread(m, chain[m], maxRep[m]) {
					granted = false
				}
			}
			if granted {
				aerr = fs.AttachFile(rec)
			}
		}
		if aerr != nil {
			return
		}
		if f, gerr := fs.Namespace().GetFile(rec.Path); gerr == nil {
			sh.indexFile(f)
		}
	})
	return aerr
}

// drain finishes every open epoch — bounded re-sweeps of each migrating
// entry until it flips, and of each draining entry until it is removed.
// Called from Flush so a fenced system has no half-moved subtrees (short of
// files that genuinely cannot move, which keep their fallback reads).
func (r *rebalancer) drain() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.s.routes.entries() {
		switch e.state {
		case routeMigrating:
			r.sweepEntry(e.prefix, e.dst, maxSweeps)
		case routeDraining:
			r.drainEntryHome(e.prefix, e.dst, maxSweeps)
		}
	}
}
