package server

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// handle is the client-visible view of one served file. Clients read only
// the immutable identity fields and the atomically published residency
// mask; the *dfs.File pointer is owned by the core loop and must never be
// dereferenced on a client goroutine.
type handle struct {
	id   dfs.FileID
	path string
	size int64
	// sh is the shard whose file system holds the file: reads act on it, and
	// its loop applies the accesses.
	sh   *shard
	file *dfs.File // core-loop-owned
	// blk0/blk0Size identify the file's first block (-1/0 for empty files):
	// the representative replica the physical-backend read path streams.
	// Block identity is immutable for the handle's life (only the replica's
	// device moves), so clients read these without synchronization.
	blk0     int64
	blk0Size int64
	// res is a bitmask of tiers holding a full all-or-nothing replica set
	// (bit i = storage.Media(i)), published by the core loop on every
	// residency flip so the client read path picks its serving tier without
	// entering the core.
	res atomic.Uint32
	// dev publishes, per tier, a representative device holding the file's
	// replicas, so the client read path can charge the data plane's
	// physical channel without entering the core. Client goroutines may
	// only read the device's immutable identity (ID, Media) — the mutable
	// capacity/bandwidth state stays core-loop-owned.
	dev [3]atomic.Pointer[storage.Device]

	// The access accumulator: what clients have read since the shard loop
	// last drained this file. pending counts the accesses; stamp is the
	// latest virtual instant (sim.Nanos) any access of the file carried, 0
	// while none was stamped — it only grows, so an unstamped access after a
	// stamped one lands "now on the loop" like any stamp the engine has
	// passed. The client that takes pending from 0 to 1 owns next until it
	// has pushed the handle on the shard's dirty list; the loop reads next
	// after taking the list and before it swaps pending back to 0, so a
	// handle is on the list exactly while pending > 0, and never twice.
	pending atomic.Int64
	stamp   atomic.Int64
	next    *handle
	// migrated marks a handle whose file left for another shard (as opposed
	// to deleted): the reason its leftover accesses are discarded under.
	// Shard loop only.
	migrated bool
}

// pendingAccess is one dirty handle's share of a drain: n accesses, the
// latest of them stamped at virtual instant stamp.
type pendingAccess struct {
	h     *handle
	n     int64
	stamp int64
}

// dirtyList is a shard's set of handles with pending accesses: a push-only
// Treiber stack the shard loop takes whole, so there is no pop to race and
// no ABA. Only the 0 -> 1 transition of a handle's count pushes, so a hot
// file's further accesses between two drains touch nothing shard-shared.
type dirtyList struct{ head atomic.Pointer[handle] }

// note adds one access of h at the stamped instant (zero: unstamped) and
// reports whether that made the list non-idle work for the loop, i.e.
// whether the caller should ring the doorbell. Any goroutine.
func (l *dirtyList) note(h *handle, at time.Time) (pushed bool) {
	if !at.IsZero() {
		ns := sim.Nanos(at)
		for {
			cur := h.stamp.Load()
			if ns <= cur || h.stamp.CompareAndSwap(cur, ns) {
				break
			}
		}
	}
	if h.pending.Add(1) != 1 {
		return false
	}
	for {
		head := l.head.Load()
		h.next = head
		if l.head.CompareAndSwap(head, h) {
			return true
		}
	}
}

// collect takes the whole list and moves every handle's count into batch.
// Shard loop only.
func (l *dirtyList) collect(batch []pendingAccess) []pendingAccess {
	for h := l.head.Swap(nil); h != nil; {
		// next belongs to whoever dirties the handle again once its count is
		// zero, so read it first.
		next := h.next
		h.next = nil
		batch = append(batch, pendingAccess{h: h, n: h.pending.Swap(0), stamp: h.stamp.Load()})
		h = next
	}
	return batch
}

func (l *dirtyList) empty() bool { return l.head.Load() == nil }

// setDevice publishes (or, with nil, clears) the tier's representative
// device. Core loop only; publish the device before flipping residency on
// so readers that see the bit always find a device.
func (h *handle) setDevice(m storage.Media, d *storage.Device) { h.dev[m].Store(d) }

// device returns the tier's representative device (nil during the brief
// window around a residency flip).
func (h *handle) device(m storage.Media) *storage.Device { return h.dev[m].Load() }

// setResident publishes one tier's residency flip.
func (h *handle) setResident(m storage.Media, resident bool) {
	for {
		old := h.res.Load()
		var next uint32
		if resident {
			next = old | 1<<uint(m)
		} else {
			next = old &^ (1 << uint(m))
		}
		if old == next || h.res.CompareAndSwap(old, next) {
			return
		}
	}
}

// bestTier returns the highest (fastest) tier with full residency.
func (h *handle) bestTier() (storage.Media, bool) {
	mask := h.res.Load()
	for _, m := range storage.AllMedia {
		if mask&(1<<uint(m)) != 0 {
			return m, true
		}
	}
	return 0, false
}

// residency decodes the published mask.
func (h *handle) residency() [3]bool {
	mask := h.res.Load()
	var out [3]bool
	for _, m := range storage.AllMedia {
		out[m] = mask&(1<<uint(m)) != 0
	}
	return out
}

// nsShards is the server-wide namespace: one read-mostly path index striped
// by a hash of the file's parent directory, so metadata operations from
// clients working in independent directories take independent locks. Every
// child of a directory hashes to the same stripe, so a directory listing is
// a scan of that one stripe and the namespace keeps no per-directory state.
// Each entry's handle names the shard holding the file, so a path resolves
// to its owner in one lookup whatever the route table says. Writes come only
// from the shard loops (create/delete/migration commits); the client hot
// path takes stripe read locks only.
type nsShards struct {
	shards []nsShard
	mask   uint32
}

type nsShard struct {
	mu sync.RWMutex
	// files maps full (clean) path -> handle: the namespace's only index.
	files map[string]*handle
	_     [32]byte // pad shards apart to keep lock words off shared lines
}

// nsStripes is the namespace lock-stripe count per serving shard.
const nsStripes = 64

// newNSShards builds a stripe set with n rounded up to a power of two.
func newNSShards(n int) *nsShards {
	size := 1
	for size < n {
		size <<= 1
	}
	s := &nsShards{shards: make([]nsShard, size), mask: uint32(size - 1)}
	for i := range s.shards {
		s.shards[i].files = make(map[string]*handle)
	}
	return s
}

// parentOf splits a clean absolute path into its parent directory and leaf
// name ("/a/b/c" -> "/a/b", "c"; "/c" -> "/", "c").
func parentOf(path string) (dir, name string) {
	if last := strings.LastIndexByte(path, '/'); last > 0 {
		return path[:last], path[last+1:]
	}
	return "/", path[1:]
}

// fnv32 is inline FNV-1a so shard selection does not allocate.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (s *nsShards) shardFor(dir string) *nsShard {
	return &s.shards[fnv32(dir)&s.mask]
}

// get resolves a clean path to its handle under the stripe's read lock.
func (s *nsShards) get(path string) (*handle, bool) {
	dir, _ := parentOf(path)
	sh := s.shardFor(dir)
	sh.mu.RLock()
	h, ok := sh.files[path]
	sh.mu.RUnlock()
	return h, ok
}

// put indexes a handle, replacing any entry for its path: a migration's
// copy takes over from the source's the moment it lands. Shard loops only.
func (s *nsShards) put(h *handle) {
	dir, _ := parentOf(h.path)
	sh := s.shardFor(dir)
	sh.mu.Lock()
	sh.files[h.path] = h
	sh.mu.Unlock()
}

// remove unindexes h's path if the entry is still h — not when another
// shard's copy has replaced it. Shard loops only.
func (s *nsShards) remove(h *handle) {
	dir, _ := parentOf(h.path)
	sh := s.shardFor(dir)
	sh.mu.Lock()
	if sh.files[h.path] == h {
		delete(sh.files, h.path)
	}
	sh.mu.Unlock()
}

// each calls fn for every indexed handle, one stripe at a time under its
// read lock.
func (s *nsShards) each(fn func(*handle)) {
	for i := range s.shards {
		st := &s.shards[i]
		st.mu.RLock()
		for _, h := range st.files {
			fn(h)
		}
		st.mu.RUnlock()
	}
}

// list returns the sorted file names directly under dir: a scan of the one
// stripe every child of dir hashes to, keeping the paths whose parent is dir.
func (s *nsShards) list(dir string) []string {
	sh := s.shardFor(dir)
	var out []string
	sh.mu.RLock()
	for path := range sh.files {
		if parent, name := parentOf(path); parent == dir {
			out = append(out, name)
		}
	}
	sh.mu.RUnlock()
	sort.Strings(out)
	return out
}
