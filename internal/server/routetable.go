package server

import (
	"strings"
	"sync/atomic"
)

// The route table is the rebalancer's override layer in front of the static
// parent-dir hash: a small copy-on-write list of prefix→shard entries
// consulted on every routing decision before falling back to fnv32(dir).
// Readers take one atomic pointer load (nil when no migration has ever run,
// so the static-routing fast path costs a single predictable branch);
// writers — only the rebalancer, under its own mutex — install a fresh
// snapshot. An entry overrides the whole subtree at its prefix: every dir
// equal to or under the prefix routes to dst, regardless of where those
// dirs would hash individually.

type routeState int32

const (
	// routeMigrating: files are moving. Creates go to dst; reads find each
	// file where the namespace says it is, never blocking on the move; a
	// delete walks dst, then the hash owner (the epoch's fallback).
	routeMigrating routeState = iota
	// routeCommitted: the flip happened; every source shard swept empty.
	// dst is authoritative and deletes have no fallback to walk.
	routeCommitted
	// routeDraining: a committed entry is being folded back to static
	// routing (the subtree went cold and the table slot is wanted for
	// future hotspots). Creates route by the per-dir hash again, deletes
	// fall back to dst until its copies drain home, then it is removed.
	routeDraining
)

// routeEntry overrides routing for one subtree.
type routeEntry struct {
	prefix string // clean dir path, no trailing slash (except "/" itself)
	dst    int    // shard index now owning the subtree
	state  routeState
}

// routeTable holds the COW snapshot. Entries are kept longest-prefix-first
// so lookup can return the first match.
type routeTable struct {
	snap atomic.Pointer[[]routeEntry]
}

// covers reports whether dir lies inside the subtree rooted at prefix.
func covers(prefix, dir string) bool {
	if !strings.HasPrefix(dir, prefix) {
		return false
	}
	if len(dir) == len(prefix) {
		return true
	}
	if prefix == "/" {
		return true
	}
	return dir[len(prefix)] == '/'
}

// lookup returns the entry covering dir, or nil. Longest-prefix match: the
// snapshot is stored sorted by descending prefix length, so the first hit
// is the most specific override.
func (rt *routeTable) lookup(dir string) *routeEntry {
	p := rt.snap.Load()
	if p == nil {
		return nil
	}
	entries := *p
	for i := range entries {
		if covers(entries[i].prefix, dir) {
			return &entries[i]
		}
	}
	return nil
}

// entries returns the current snapshot (read-only; may be nil).
func (rt *routeTable) entries() []routeEntry {
	p := rt.snap.Load()
	if p == nil {
		return nil
	}
	return *p
}

// install publishes a new snapshot containing the given entries sorted by
// descending prefix length. Caller (the rebalancer) serializes installs.
func (rt *routeTable) install(entries []routeEntry) {
	if len(entries) == 0 {
		rt.snap.Store(nil)
		return
	}
	sorted := make([]routeEntry, len(entries))
	copy(sorted, entries)
	// Insertion sort by descending prefix length: the table stays tiny
	// (MaxPrefixes-bounded) and stable order keeps lookups deterministic.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && len(sorted[j].prefix) > len(sorted[j-1].prefix); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	rt.snap.Store(&sorted)
}

// upsert installs a snapshot with e added or replaced (matched by prefix).
func (rt *routeTable) upsert(e routeEntry) {
	cur := rt.entries()
	next := make([]routeEntry, 0, len(cur)+1)
	for _, old := range cur {
		if old.prefix != e.prefix {
			next = append(next, old)
		}
	}
	next = append(next, e)
	rt.install(next)
}

// remove installs a snapshot without the entry matching prefix (no-op when
// absent).
func (rt *routeTable) remove(prefix string) {
	cur := rt.entries()
	next := make([]routeEntry, 0, len(cur))
	for _, old := range cur {
		if old.prefix != prefix {
			next = append(next, old)
		}
	}
	rt.install(next)
}
