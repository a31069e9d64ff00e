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
// table entry. No op blocks on the move or walks it: reads and deletes
// resolve in the one namespace, which hands a path to its copy the moment it
// lands. A copy the namespace stopped naming — the source of a commit that
// found it busy, or the leftover of a delete during the both-copies window —
// is stale, and the next sweep drops it. Once every source shard sweeps
// empty the entry flips to routeCommitted.
//
// The migrating state is self-stabilizing, never rolled back: files that a
// sweep could not move (mid-create, replica in transition, destination
// briefly out of capacity) stay readable where they are and are retried on
// later sweeps or the Flush-time straggler drain. The route
// only ever moves forward — migrating → committed — which keeps the epoch
// protocol a one-way door and the failure model trivial. Committed entries
// are not permanent, though: once a subtree goes cold the entry drains —
// committed → draining → removed, the same forward-only epoch run in
// reverse — so the bounded route table recycles its slots instead of
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
	// subtree must log zero routed ops before its files start folding back
	// to static routing (the route entry goes once they are home) — without
	// it the table fills after MaxPrefixes lifetime migrations and the
	// rebalancer permanently stops reacting to new hotspots (a zero or
	// negative value takes the default, 8).
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
	if c.RehomeColdTicks <= 0 {
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
	Superseded int64   `json:"superseded"` // stale source copies dropped, no bytes copied (see migrateFile)
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
	// rounds with zero routed ops under the subtree. Guarded by mu.
	coldTicks map[string]int

	stop chan struct{}
	wg   sync.WaitGroup
}

func newRebalancer(s *ShardedServer, cfg RebalanceConfig) *rebalancer {
	cfg.applyDefaults()
	return &rebalancer{
		s:         s,
		cfg:       cfg,
		tracker:   newLoadTracker(len(s.shards)),
		coldTicks: make(map[string]int),
		stop:      make(chan struct{}),
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

// emit publishes one shard-migration event on the obs hub (no-op without one).
func (r *rebalancer) emit(detail string) {
	r.s.cfg.Inner.Obs.EmitEvent(&obs.Event{What: "shard-migration", Detail: detail})
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
	// Ties break by name: the map walk above has no order, and a replay must
	// plan the same moves on every run.
	sort.Slice(dirs, func(i, j int) bool {
		if dirs[i].ops != dirs[j].ops {
			return dirs[i].ops > dirs[j].ops
		}
		return dirs[i].dir < dirs[j].dir
	})
	loads := append([]int64(nil), ops...)
	var plans []routeEntry
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
		if nests(entries, d.dir) || nests(plans, d.dir) {
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
		plans = append(plans, routeEntry{prefix: d.dir, dst: cold, state: routeMigrating})
		loads[hot] -= d.ops
		loads[cold] += d.ops
	}
	for _, e := range plans {
		r.started.Add(1)
		r.s.routes.upsert(e)
		r.emit(fmt.Sprintf("start prefix=%s dst=%d spread=%.2f", e.prefix, e.dst, spread))
		r.sweep(e)
	}
}

// nests reports whether dir covers, or is covered by, any entry's prefix.
func nests(entries []routeEntry, dir string) bool {
	for _, e := range entries {
		if covers(e.prefix, dir) || covers(dir, e.prefix) {
			return true
		}
	}
	return false
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
	for _, e := range entries {
		if e.state == routeDraining {
			r.sweep(e)
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
			// Fold back: creates route by the per-dir hash again; the files
			// on the old destination stay where the namespace names them
			// until the sweeps move them home.
			delete(r.coldTicks, e.prefix)
			e.state = routeDraining
			r.s.routes.upsert(e)
			r.emit(fmt.Sprintf("rehome prefix=%s dst=%d", e.prefix, e.dst))
			r.sweep(e)
			started++
		}
	}
}

// sweep makes up to maxSweeps passes moving the files under an open entry
// to where the entry sends them, each through migrateFile's copy-then-detach
// (reads stay correct throughout: the namespace names whichever copy is
// live). A migrating entry walks every shard but dst and moves each file
// to dst; a draining entry walks dst alone and moves each file to the shard
// its parent dir hashes to, leaving those that hash to dst in place.
//
// A migrating entry flips to committed on the first pass that leaves nothing
// behind; a pass that moves nothing while files remain is booked as aborted
// and ends the round. A draining entry is removed on the first walk that
// finds nothing to move (a create routed against a pre-draining snapshot
// can still land on dst afterwards; the namespace names it there all the
// same); a draining pass that stalls also ends the round. Either way the
// open entry keeps ops correct until a later round or the Flush drain
// finishes it.
func (r *rebalancer) sweep(e routeEntry) {
	draining := e.state == routeDraining
	n := uint32(len(r.s.shards))
	var movedTotal int64
	for pass := 0; pass < maxSweeps; pass++ {
		var work, remaining, moved int64
		for i, src := range r.s.shards {
			if (i == e.dst) != draining {
				continue // migrating walks every shard but dst, draining dst alone
			}
			// Collect under the shard loop, then migrate file by file so
			// client ops interleave between moves.
			var paths []string
			r.exec(src, func(fs *dfs.FileSystem) {
				fs.Namespace().WalkUnder(e.prefix, func(f *dfs.File) {
					paths = append(paths, f.Path())
				})
			})
			for _, p := range paths {
				to := e.dst
				if draining {
					dir, _ := parentOf(p)
					if to = int(fnv32(dir) % n); to == e.dst {
						continue // static routing places it on dst anyway
					}
				}
				work++
				switch r.migrateFile(src, r.s.shards[to], p) {
				case migrateMoved:
					moved++
				case migrateSkipped:
					remaining++
				case migrateGone:
					// recreated on the target or deleted mid-sweep: nothing left here
				}
			}
		}
		movedTotal += moved
		switch {
		case draining && work == 0:
			r.s.routes.remove(e.prefix)
			r.rehomed.Add(1)
			r.emit(fmt.Sprintf("rehomed prefix=%s dst=%d", e.prefix, e.dst))
			return
		case !draining && remaining == 0:
			r.s.routes.upsert(routeEntry{prefix: e.prefix, dst: e.dst, state: routeCommitted})
			r.flips.Add(1)
			r.completed.Add(1)
			r.emit(fmt.Sprintf("commit prefix=%s dst=%d files=%d", e.prefix, e.dst, movedTotal))
			return
		}
		if remaining > 0 && moved == 0 {
			if !draining {
				r.aborted.Add(1)
				r.emit(fmt.Sprintf("stall prefix=%s dst=%d remaining=%d", e.prefix, e.dst, remaining))
			}
			return
		}
	}
}

type migrateOutcome int

const (
	migrateMoved migrateOutcome = iota
	migrateSkipped
	migrateGone
)

// migrateFile moves one file with copy-then-detach ordering so the file is
// in the namespace at every instant: snapshot the layout on the source,
// attach a copy on the destination — borrowing the record's per-tier shape
// from the global ledger through the two-phase protocol when the shard's
// slice is short — and index it (the namespace entry moves to it), then
// detach the source copy as the commit. Between attach and commit the file
// briefly exists on both shards; reads and deletes resolve to the copy the
// namespace names, the destination's. A commit that finds the source copy
// already gone means a client deleted the file mid-move — the fresh
// destination copy is removed too, honoring the delete.
//
// Only the copy the namespace names is ever moved or kept. A stale copy (see
// shard.stale) is dropped wherever the sweep meets it: a stale source copy
// before the snapshot, booked as superseded (no bytes copied), and a stale
// destination copy before the attach, so it can neither come back as the
// file nor push the named copy out.
func (r *rebalancer) migrateFile(src, dst *shard, path string) migrateOutcome {
	var rec dfs.FileRecord
	var dropped bool
	var serr error
	r.exec(src, func(fs *dfs.FileSystem) {
		if dropped, serr = src.migrateOut(path, true); !dropped && serr == nil {
			rec, serr = fs.SnapshotFile(path)
		}
	})
	switch {
	case dropped:
		r.superseded.Add(1)
		return migrateMoved
	case errors.Is(serr, dfs.ErrNotFound):
		return migrateGone // deleted between walk and snapshot
	case serr != nil:
		return migrateSkipped // busy / mid-create: next sweep
	}
	var aerr error
	r.exec(dst, func(fs *dfs.FileSystem) {
		if _, aerr = dst.migrateOut(path, true); aerr != nil && !errors.Is(aerr, dfs.ErrNotFound) {
			return // a transfer holds the stale copy: next sweep
		}
		aerr = fs.AttachFile(rec)
		if errors.Is(aerr, dfs.ErrNoCapacity) {
			chain, maxRep := rec.TierNeeds()
			granted := true
			for _, m := range storage.AllMedia {
				if maxRep[m] > 0 && !dst.quota.EnsureSpreadFor(storage.DefaultTenant, m, chain[m], maxRep[m]) {
					granted = false
				}
			}
			if granted {
				aerr = fs.AttachFile(rec)
			}
		}
		if aerr == nil {
			if f, gerr := fs.Namespace().GetFile(rec.Path); gerr == nil {
				dst.indexFile(f)
			}
		}
	})
	// ErrExists: a client recreated the path on the destination between the
	// two steps; the newer file wins. Anything else is capacity, even after
	// borrowing: the source copy is untouched and keeps serving until a later
	// sweep retries. The commit detaches the source copy — after ErrExists
	// only once the namespace has stopped naming it.
	landed := aerr == nil
	if !landed && !errors.Is(aerr, dfs.ErrExists) {
		return migrateSkipped
	}
	var derr error
	r.exec(src, func(*dfs.FileSystem) { dropped, derr = src.migrateOut(path, !landed) })
	switch {
	case errors.Is(derr, dfs.ErrNotFound):
		// Deleted mid-move. If we attached a copy a moment ago, take it back
		// out (a racing client delete may already have).
		if landed {
			r.exec(dst, func(fs *dfs.FileSystem) { _ = fs.DetachFile(path) })
		}
		return migrateGone
	case !dropped:
		// The source copy went busy between snapshot and commit (a movement
		// grabbed it), or the destination's copy is not yet the one the
		// namespace names (mid-create). Both copies stay; the namespace
		// serves the one it names, and the next sweep retries.
		return migrateSkipped
	case landed:
		r.filesMoved.Add(1)
		r.bytesMoved.Add(rec.Bytes())
	default:
		// No bytes were copied: counting the drop as a move would inflate
		// the moved-files/bytes counters the benchgate vacuity check reads.
		r.superseded.Add(1)
	}
	return migrateMoved
}

// drain finishes every open epoch — bounded re-sweeps of each migrating
// and each draining entry — and reports whether there was one to sweep.
// Called from Flush so a fenced system has no half-moved subtrees (short of
// files that genuinely cannot move, which keep serving where they are).
func (r *rebalancer) drain() (swept bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.s.routes.entries() {
		if e.state != routeCommitted {
			r.sweep(e)
			swept = true
		}
	}
	return swept
}
