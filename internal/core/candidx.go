package core

// This file implements the incremental candidate indexes that replace the
// manager's per-tick full scans of FS.LiveFiles(). The paper's overhead
// claim (Section 7.7: tier management stays negligible on a busy cluster)
// only holds when the management plane is sublinear in the number of
// managed files, so selection state is maintained event by event through
// the file-system notifications instead of being rebuilt per decision:
//
//   - per-tier recency heaps ordered by (last touch, file id) serve the LRU
//     downgrade policy and the XGB policy's "k least recently used files"
//     candidate collection in O(log N) / O(k log N);
//   - per-tier frequency heaps ordered by (access count, last touch, id)
//     serve the LFU downgrade policy;
//   - one most-recently-used heap over files not resident in memory serves
//     Context.UpgradeCandidates (the XGB upgrade policy's "k most recently
//     used files", Section 6.1) without sorting the live-file set;
//   - the same per-tier residency flips drive the weight heaps of the
//     context's derived statistics (DecayedWeight, serving LRFU and EXD).
//
// Membership follows the all-or-nothing residency property: a file appears
// in the structures of exactly the tiers holding a replica of every block,
// maintained from dfs.Listener FileTierChanged flips plus file
// creation/deletion.
//
// Ineligibility is structural too. A file the manager marks busy or puts in
// a failure cooldown is parked: it stays a member of every heap that holds
// it (keys keep following accesses, residency flips and deletes still
// apply) but leaves heap order, and it re-enters with its current key when
// the move completes cleanly or the cooldown expires. The heap top is
// therefore always selectable, and selection cost does not depend on how
// many moves failed.

import (
	"fmt"
	"time"

	"octostore/internal/dfs"
	"octostore/internal/storage"
)

// HeapKey orders files inside a FileHeap: ascending weight, then time, then
// file id. Policies use the fields they need and zero the rest. The time
// component is kept as Unix nanoseconds (see timeKey) rather than a
// time.Time: a key is stored once per heap membership, and at a million
// indexed files the 16-byte difference per entry is real memory.
type HeapKey struct {
	W  float64
	T  int64 // timeKey-encoded ordering time
	ID dfs.FileID
}

// timeKey encodes a time for HeapKey ordering: Unix nanoseconds, with the
// zero time mapping to 0 so "no time" keys compare equal regardless of how
// they were produced. Simulation times are all well past 1970, so they
// order identically to time.Time.Before and never collide with 0.
func timeKey(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// Less is the ascending HeapKey order.
func (a HeapKey) Less(b HeapKey) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	if a.T != b.T {
		return a.T < b.T
	}
	return a.ID < b.ID
}

// heapEntry is one indexed file, stored by value in the heap's slot table.
// Entries hold only the ordering key (which embeds the file id); the
// *dfs.File is resolved on demand through the heap's resolver, so a
// million-entry heap retains ids and keys, not pointers into the namespace.
type heapEntry struct {
	key HeapKey
	// pos >= 0 is the index into items; pos < 0 marks a parked member whose
	// index into parked is ^pos. A slot on the free list (reachable only
	// through FileHeap.free, never through slots) keeps the next free slot
	// here instead.
	pos int32
}

// FileHeap is an indexed binary min-heap of files with O(log N)
// insert/update/remove and allocation-free ordered selection (popped
// entries are restored from a reused scratch buffer). The comparator is
// fixed at construction, so the same structure serves ascending recency
// (LRU), descending recency (upgrade MRU), frequency, and weight orders.
//
// Entries live by value in a slot table addressed through small int32
// handles (items/byID hold slots, not pointers): one table allocation
// amortises over its capacity, and per-entry footprint stays at key +
// handle instead of a heap object per file.
//
// A member is either in heap order or parked (see Park): parked members keep
// their key, follow Update/Rekey/Remove and count toward Len, but no
// selection sees them.
type FileHeap struct {
	slots   []int32 // file id → slot in store, -1 when not indexed
	store   []heapEntry
	free    int32   // head of the free-slot list (-1 when empty)
	items   []int32 // heap order → slot
	parked  []int32 // parked members → slot, unordered
	stash   []int32 // reused scratch for pop-and-restore walks
	less    func(a, b HeapKey) bool
	resolve func(dfs.FileID) *dfs.File
	// ctx binds the heap to a context's eligibility record (see
	// CandidateIndex.NewHeap): new members the manager has on record enter
	// parked, and every selection first releases expired cooldowns. Nil for
	// a standalone heap.
	ctx *Context
}

// NewFileHeap builds an empty heap with the given comparator (nil means
// the ascending HeapKey.Less order) and file resolver. The resolver maps
// an indexed id back to its file when a selection or visit callback needs
// one; ids that no longer resolve are treated as ineligible.
func NewFileHeap(less func(a, b HeapKey) bool, resolve func(dfs.FileID) *dfs.File) *FileHeap {
	if less == nil {
		less = HeapKey.Less
	}
	if resolve == nil {
		panic("core: NewFileHeap needs a file resolver")
	}
	return &FileHeap{free: -1, less: less, resolve: resolve}
}

// TimeDescending orders by most recent time first (ties toward lower id);
// the weight component is ignored.
func TimeDescending(a, b HeapKey) bool {
	if a.T != b.T {
		return a.T > b.T
	}
	return a.ID < b.ID
}

// Len returns the number of indexed files, parked ones included.
func (h *FileHeap) Len() int { return len(h.items) + len(h.parked) }

// slotOf returns the store slot of a file id, or -1. File ids are dense
// (assigned sequentially by the file system), so the id index is a flat
// int32 slice rather than a map: four bytes per id instead of a map entry,
// and no bucket arrays pinned at the namespace's high-water mark.
func (h *FileHeap) slotOf(id dfs.FileID) int32 {
	if id < 0 || int64(id) >= int64(len(h.slots)) {
		return -1
	}
	return h.slots[id]
}

// Has reports whether the file is indexed.
func (h *FileHeap) Has(id dfs.FileID) bool { return h.slotOf(id) >= 0 }

// IsParked reports whether the file is a parked member.
func (h *FileHeap) IsParked(id dfs.FileID) bool {
	s := h.slotOf(id)
	return s >= 0 && h.store[s].pos < 0
}

// alloc takes a slot off the free list or extends the slot table.
func (h *FileHeap) alloc() int32 {
	if h.free >= 0 {
		s := h.free
		h.free = h.store[s].pos
		return s
	}
	h.store = append(h.store, heapEntry{})
	return int32(len(h.store) - 1)
}

// Update inserts the file or re-keys it in place. A parked member only has
// its key replaced; a new member enters parked when the bound context has it
// on record as busy or cooling down.
func (h *FileHeap) Update(f *dfs.File, w float64, t time.Time) {
	id := f.ID()
	key := HeapKey{W: w, T: timeKey(t), ID: id}
	if s := h.slotOf(id); s >= 0 {
		h.store[s].key = key
		if pos := h.store[s].pos; pos >= 0 {
			h.fix(pos)
		}
		return
	}
	s := h.alloc()
	h.store[s].key = key
	for int64(len(h.slots)) <= int64(id) {
		h.slots = append(h.slots, -1)
	}
	h.slots[id] = s
	if h.ctx != nil && h.ctx.parkedID(id) {
		h.pushParked(s)
	} else {
		h.pushItem(s)
	}
}

// Remove drops the file if present.
func (h *FileHeap) Remove(id dfs.FileID) {
	s := h.slotOf(id)
	if s < 0 {
		return
	}
	h.slots[id] = -1
	if h.store[s].pos < 0 {
		h.dropParked(s)
	} else {
		h.dropItem(s)
	}
	h.store[s] = heapEntry{pos: h.free} // return the slot to the free list
	h.free = s
}

// Park takes an indexed file out of heap order, keeping it a member. No-op
// when the file is not indexed or already parked.
func (h *FileHeap) Park(id dfs.FileID) {
	if s := h.slotOf(id); s >= 0 && h.store[s].pos >= 0 {
		h.dropItem(s)
		h.pushParked(s)
	}
}

// Unpark returns a parked file to heap order under its current key. No-op
// when the file is not indexed or not parked.
func (h *FileHeap) Unpark(id dfs.FileID) {
	if s := h.slotOf(id); s >= 0 && h.store[s].pos < 0 {
		h.dropParked(s)
		h.pushItem(s)
	}
}

func (h *FileHeap) pushItem(s int32) {
	h.store[s].pos = int32(len(h.items))
	h.items = append(h.items, s)
	h.up(h.store[s].pos)
}

func (h *FileHeap) dropItem(s int32) {
	last := int32(len(h.items) - 1)
	pos := h.store[s].pos
	h.items[pos] = h.items[last]
	h.store[h.items[pos]].pos = pos
	h.items = h.items[:last]
	if pos < last {
		h.fix(pos)
	}
}

func (h *FileHeap) pushParked(s int32) {
	h.store[s].pos = ^int32(len(h.parked))
	h.parked = append(h.parked, s)
}

func (h *FileHeap) dropParked(s int32) {
	last := len(h.parked) - 1
	i := ^h.store[s].pos
	h.parked[i] = h.parked[last]
	h.store[h.parked[i]].pos = ^i
	h.parked = h.parked[:last]
}

// Rekey recomputes every member's key with fn and re-heapifies in O(N); the
// lazy weight heaps use it when their evaluation horizon advances. Entries
// whose id no longer resolves keep their stored key.
func (h *FileHeap) Rekey(fn func(f *dfs.File) (float64, time.Time)) {
	for _, members := range [2][]int32{h.items, h.parked} {
		for _, s := range members {
			e := &h.store[s]
			f := h.resolve(e.key.ID)
			if f == nil {
				continue
			}
			w, t := fn(f)
			e.key = HeapKey{W: w, T: timeKey(t), ID: e.key.ID}
		}
	}
	for i := int32(len(h.items))/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Each visits every member, parked ones included, in unspecified order.
// Entries whose id no longer resolves are skipped.
func (h *FileHeap) Each(fn func(f *dfs.File, key HeapKey)) {
	for _, members := range [2][]int32{h.items, h.parked} {
		for _, s := range members {
			if f := h.resolve(h.store[s].key.ID); f != nil {
				fn(f, h.store[s].key)
			}
		}
	}
}

// Key returns the stored key of a file.
func (h *FileHeap) Key(id dfs.FileID) (HeapKey, bool) {
	s := h.slotOf(id)
	if s < 0 {
		return HeapKey{}, false
	}
	return h.store[s].key, true
}

// settle releases the bound context's expired cooldowns, so the members in
// heap order are exactly the selectable ones when a selection starts.
func (h *FileHeap) settle() {
	if h.ctx != nil {
		h.ctx.releaseExpired()
	}
}

// SelectMin returns the minimum-key file in heap order, or nil. Keys must be
// exact (not bounds). The top is returned without a pop; only entries whose
// id no longer resolves are stepped over.
func (h *FileHeap) SelectMin() *dfs.File {
	h.settle()
	var best *dfs.File
	h.stash = h.stash[:0]
	for len(h.items) > 0 {
		if best = h.resolve(h.store[h.items[0]].key.ID); best != nil {
			break
		}
		h.stash = append(h.stash, h.popTop())
	}
	h.restore()
	return best
}

// SelectMinLazy returns the file minimizing (trueW(f), f.ID()) among the
// members in heap order, where stored weight keys are lower bounds of trueW
// (entries' T components must be zero). It pops entries while their bound
// could still beat the best exact weight seen, then restores them; with
// tight bounds this inspects a tiny prefix of the heap.
func (h *FileHeap) SelectMinLazy(trueW func(*dfs.File) float64) *dfs.File {
	h.settle()
	var best *dfs.File
	var bestKey HeapKey
	h.stash = h.stash[:0]
	for len(h.items) > 0 {
		if best != nil && h.less(bestKey, h.store[h.items[0]].key) {
			break
		}
		top := h.popTop()
		h.stash = append(h.stash, top)
		f := h.resolve(h.store[top].key.ID)
		if f == nil {
			continue
		}
		tk := HeapKey{W: trueW(f), ID: f.ID()}
		if best == nil || h.less(tk, bestKey) {
			best, bestKey = f, tk
		}
	}
	h.restore()
	return best
}

// AscendWhile pops entries in ascending stored-key order while keep
// returns true for the next key, invoking visit on each popped file, then
// restores every popped entry — the heap is left unchanged. keep is
// consulted with the top entry's stored key before each pop, so a caller
// whose keys are lower bounds can stop as soon as the bound proves no
// remaining entry matters (the EXD upgrade admission walks the memory-tier
// weight heap this way to sum a victim prefix without sorting the tier).
// Cost is O(v log N) for v visited entries.
func (h *FileHeap) AscendWhile(keep func(HeapKey) bool, visit func(*dfs.File)) {
	h.settle()
	h.stash = h.stash[:0]
	for len(h.items) > 0 && keep(h.store[h.items[0]].key) {
		top := h.popTop()
		h.stash = append(h.stash, top)
		if f := h.resolve(h.store[top].key.ID); f != nil {
			visit(f)
		}
	}
	h.restore()
}

// TopK appends up to k files to out in heap order (k <= 0 means all of
// them) and returns the extended slice; the heap is left unchanged. Cost is
// O(k log N).
func (h *FileHeap) TopK(k int, out []*dfs.File) []*dfs.File {
	h.settle()
	if k <= 0 {
		k = len(h.items)
	}
	taken := 0
	h.stash = h.stash[:0]
	for len(h.items) > 0 && taken < k {
		top := h.popTop()
		h.stash = append(h.stash, top)
		if f := h.resolve(h.store[top].key.ID); f != nil {
			out = append(out, f)
			taken++
		}
	}
	h.restore()
	return out
}

func (h *FileHeap) popTop() int32 {
	top := h.items[0]
	last := int32(len(h.items) - 1)
	h.items[0] = h.items[last]
	h.store[h.items[0]].pos = 0
	h.items = h.items[:last]
	if len(h.items) > 0 {
		h.down(0)
	}
	return top
}

func (h *FileHeap) restore() {
	for _, s := range h.stash {
		h.store[s].pos = int32(len(h.items))
		h.items = append(h.items, s)
		h.up(h.store[s].pos)
	}
	h.stash = h.stash[:0]
}

func (h *FileHeap) fix(pos int32) {
	if !h.up(pos) {
		h.down(pos)
	}
}

func (h *FileHeap) up(pos int32) bool {
	moved := false
	for pos > 0 {
		parent := (pos - 1) / 2
		if !h.less(h.store[h.items[pos]].key, h.store[h.items[parent]].key) {
			break
		}
		h.swap(pos, parent)
		pos = parent
		moved = true
	}
	return moved
}

func (h *FileHeap) down(pos int32) {
	n := int32(len(h.items))
	for {
		left := 2*pos + 1
		if left >= n {
			return
		}
		child := left
		if right := left + 1; right < n && h.less(h.store[h.items[right]].key, h.store[h.items[left]].key) {
			child = right
		}
		if !h.less(h.store[h.items[child]].key, h.store[h.items[pos]].key) {
			return
		}
		h.swap(pos, child)
		pos = child
	}
}

func (h *FileHeap) swap(i, j int32) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.store[h.items[i]].pos = i
	h.store[h.items[j]].pos = j
}

// CandidateIndex is the Context's incremental selection state. Structures
// are built on demand — each policy declares what it needs at construction
// (RequireRecency, RequireFrequency, RequireUpgradeMRU) and pays only for
// that — and bootstrap from the currently live files, so construction order
// relative to file creation does not matter.
type CandidateIndex struct {
	ctx     *Context
	recency [3]*FileHeap // per tier: (lastTouch, id) ascending
	freq    [3]*FileHeap // per tier: (count, lastTouch, id) ascending
	mru     *FileHeap    // non-memory-resident files: lastTouch descending
	heaps   []*FileHeap  // every heap from NewHeap: the ones above and the derived statistics'
}

func newCandidateIndex(ctx *Context) *CandidateIndex { return &CandidateIndex{ctx: ctx} }

// NewHeap builds an empty heap over the context's files that follows the
// manager's eligibility record: the manager parks and un-parks files in it
// together with the index's own structures, so its top is always selectable.
// The derived statistics build their weight heaps here.
func (ix *CandidateIndex) NewHeap(less func(a, b HeapKey) bool) *FileHeap {
	h := NewFileHeap(less, ix.ctx.FS.FileByID)
	h.ctx = ix.ctx
	ix.heaps = append(ix.heaps, h)
	return h
}

// park takes the file out of selection order everywhere it is indexed.
func (ix *CandidateIndex) park(id dfs.FileID) {
	for _, h := range ix.heaps {
		h.Park(id)
	}
}

// unpark returns the file to selection order under its current keys.
func (ix *CandidateIndex) unpark(id dfs.FileID) {
	for _, h := range ix.heaps {
		h.Unpark(id)
	}
}

// RequireRecency enables the per-tier recency heaps (LRU selection and
// LRU-ordered top-k collection).
func (ix *CandidateIndex) RequireRecency() {
	if ix.recency[0] != nil {
		return
	}
	for _, m := range storage.AllMedia {
		ix.recency[m] = ix.NewHeap(nil)
	}
	ix.bootstrap(func(f *dfs.File, m storage.Media) {
		ix.recency[m].Update(f, 0, ix.ctx.LastTouch(f))
	}, nil)
}

// RequireFrequency enables the per-tier frequency heaps (LFU selection).
func (ix *CandidateIndex) RequireFrequency() {
	if ix.freq[0] != nil {
		return
	}
	for _, m := range storage.AllMedia {
		ix.freq[m] = ix.NewHeap(nil)
	}
	ix.bootstrap(func(f *dfs.File, m storage.Media) {
		ix.freq[m].Update(f, float64(ix.ctx.AccessCount(f)), ix.ctx.LastTouch(f))
	}, nil)
}

// RequireUpgradeMRU enables the most-recently-used heap over files not
// resident in memory (Context.UpgradeCandidates).
func (ix *CandidateIndex) RequireUpgradeMRU() {
	if ix.mru != nil {
		return
	}
	ix.mru = ix.NewHeap(TimeDescending)
	ix.bootstrap(nil, func(f *dfs.File) {
		if ix.upgradeIndexable(f) {
			ix.mru.Update(f, 0, ix.ctx.LastTouch(f))
		}
	})
}

// bootstrap seeds newly enabled structures from the live-file index.
func (ix *CandidateIndex) bootstrap(perTier func(*dfs.File, storage.Media), perFile func(*dfs.File)) {
	for _, f := range ix.ctx.FS.LiveFiles() {
		if f.Deleted() || !ix.ctx.FS.Complete(f) {
			continue
		}
		if perFile != nil {
			perFile(f)
		}
		if perTier != nil {
			for _, m := range storage.AllMedia {
				if f.HasReplicaOn(m) {
					perTier(f, m)
				}
			}
		}
	}
}

// upgradeIndexable is the static part of the UpgradeCandidates predicate;
// busy and cooldown files are members too, parked.
func (ix *CandidateIndex) upgradeIndexable(f *dfs.File) bool {
	return !f.Deleted() && len(f.Blocks()) > 0 && !f.HasReplicaOn(storage.Memory)
}

// --- event feed (driven by the Context's file-system listener) ---

func (ix *CandidateIndex) fileCreated(f *dfs.File) {
	touch := ix.ctx.LastTouch(f)
	for _, m := range storage.AllMedia {
		if !f.HasReplicaOn(m) {
			continue
		}
		if ix.recency[m] != nil {
			ix.recency[m].Update(f, 0, touch)
		}
		if ix.freq[m] != nil {
			ix.freq[m].Update(f, float64(ix.ctx.AccessCount(f)), touch)
		}
		for _, w := range ix.ctx.weights {
			w.resident(f, m)
		}
	}
	if ix.mru != nil && ix.upgradeIndexable(f) {
		ix.mru.Update(f, 0, touch)
	}
}

func (ix *CandidateIndex) fileAccessed(f *dfs.File) {
	id := f.ID()
	touch := ix.ctx.LastTouch(f)
	for _, m := range storage.AllMedia {
		if ix.recency[m] != nil && ix.recency[m].Has(id) {
			ix.recency[m].Update(f, 0, touch)
		}
		if ix.freq[m] != nil && ix.freq[m].Has(id) {
			ix.freq[m].Update(f, float64(ix.ctx.AccessCount(f)), touch)
		}
	}
	if ix.mru != nil && ix.mru.Has(id) {
		ix.mru.Update(f, 0, touch)
	}
}

func (ix *CandidateIndex) fileDeleted(f *dfs.File) {
	id := f.ID()
	for _, m := range storage.AllMedia {
		if ix.recency[m] != nil {
			ix.recency[m].Remove(id)
		}
		if ix.freq[m] != nil {
			ix.freq[m].Remove(id)
		}
	}
	if ix.mru != nil {
		ix.mru.Remove(id)
	}
}

func (ix *CandidateIndex) residencyChanged(f *dfs.File, m storage.Media, resident bool) {
	if resident {
		touch := ix.ctx.LastTouch(f)
		if ix.recency[m] != nil {
			ix.recency[m].Update(f, 0, touch)
		}
		if ix.freq[m] != nil {
			ix.freq[m].Update(f, float64(ix.ctx.AccessCount(f)), touch)
		}
		for _, w := range ix.ctx.weights {
			w.resident(f, m)
		}
	} else {
		if ix.recency[m] != nil {
			ix.recency[m].Remove(f.ID())
		}
		if ix.freq[m] != nil {
			ix.freq[m].Remove(f.ID())
		}
		for _, w := range ix.ctx.weights {
			w.evicted(f, m)
		}
	}
	if ix.mru != nil && m == storage.Memory {
		if resident {
			ix.mru.Remove(f.ID())
		} else if ix.upgradeIndexable(f) {
			ix.mru.Update(f, 0, ix.ctx.LastTouch(f))
		}
	}
}

// --- selection API ---

// SelectLRU returns the least recently touched selectable file on the tier
// (the indexed equivalent of the LRU policy's linear min-scan).
func (ix *CandidateIndex) SelectLRU(tier storage.Media) *dfs.File {
	return ix.recency[tier].SelectMin()
}

// SelectLFU returns the least frequently used selectable file on the tier,
// ties toward least recently touched.
func (ix *CandidateIndex) SelectLFU(tier storage.Media) *dfs.File {
	return ix.freq[tier].SelectMin()
}

// HasRecency reports whether the recency heaps are live.
func (ix *CandidateIndex) HasRecency() bool { return ix.recency[0] != nil }

// Audit validates every enabled structure against a from-scratch recompute
// of membership and keys: each tier structure must contain exactly the
// complete, live, fully resident files with their current tracker keys
// (the derived statistics' weight heaps: exactly that many files), and the
// MRU heap exactly the non-memory-resident candidates. The
// scenario replayer runs it with the deep invariant checks so node churn
// and re-replication cannot silently leak or strand indexed entries. It ends
// with AuditParking.
func (ix *CandidateIndex) Audit() error {
	want := make(map[dfs.FileID]*dfs.File)
	for _, m := range storage.AllMedia {
		for k := range want {
			delete(want, k)
		}
		for _, f := range ix.ctx.FS.LiveFiles() {
			if !f.Deleted() && ix.ctx.FS.Complete(f) && f.HasReplicaOn(m) {
				want[f.ID()] = f
			}
		}
		for _, h := range []*FileHeap{ix.recency[m], ix.freq[m]} {
			if h == nil {
				continue
			}
			if h.Len() != len(want) {
				return fmt.Errorf("core: index tier %v holds %d files, want %d", m, h.Len(), len(want))
			}
			var err error
			h.Each(func(f *dfs.File, key HeapKey) {
				if err != nil {
					return
				}
				if _, ok := want[f.ID()]; !ok {
					err = fmt.Errorf("core: index tier %v holds stray file %q", m, f.Path())
					return
				}
				if key.T != timeKey(ix.ctx.LastTouch(f)) {
					err = fmt.Errorf("core: index tier %v key time stale for %q", m, f.Path())
				}
			})
			if err != nil {
				return err
			}
		}
		if h := ix.freq[m]; h != nil {
			var err error
			h.Each(func(f *dfs.File, key HeapKey) {
				if err == nil && key.W != float64(ix.ctx.AccessCount(f)) {
					err = fmt.Errorf("core: index tier %v count stale for %q", m, f.Path())
				}
			})
			if err != nil {
				return err
			}
		}
		for _, w := range ix.ctx.weights {
			if h := w.tiers[m]; h != nil && h.Len() != len(want) {
				return fmt.Errorf("core: weight heap of tier %v holds %d files, want %d", m, h.Len(), len(want))
			}
		}
	}
	if ix.mru != nil {
		for k := range want {
			delete(want, k)
		}
		for _, f := range ix.ctx.FS.LiveFiles() {
			if ix.ctx.FS.Complete(f) && ix.upgradeIndexable(f) {
				want[f.ID()] = f
			}
		}
		if ix.mru.Len() != len(want) {
			return fmt.Errorf("core: upgrade MRU holds %d files, want %d", ix.mru.Len(), len(want))
		}
		var err error
		ix.mru.Each(func(f *dfs.File, key HeapKey) {
			if err != nil {
				return
			}
			if _, ok := want[f.ID()]; !ok {
				err = fmt.Errorf("core: upgrade MRU holds stray file %q", f.Path())
				return
			}
			if key.T != timeKey(ix.ctx.LastTouch(f)) {
				err = fmt.Errorf("core: upgrade MRU key time stale for %q", f.Path())
			}
		})
		if err != nil {
			return err
		}
	}
	return ix.AuditParking()
}

// AuditParking validates that ineligibility is structural: in every heap
// built by NewHeap (the index's own and the derived statistics') a member is
// parked exactly when the manager has it on record as busy or cooling down,
// and the manager's record itself is sound (every cooldown has a live expiry
// entry, the scrape counts match the maps).
func (ix *CandidateIndex) AuditParking() error {
	for i, h := range ix.heaps {
		var err error
		h.Each(func(f *dfs.File, _ HeapKey) {
			if parked := h.IsParked(f.ID()); err == nil && parked != ix.ctx.parkedID(f.ID()) {
				err = fmt.Errorf("core: index heap %d has %q parked=%v, manager record says %v", i, f.Path(), parked, !parked)
			}
		})
		if err != nil {
			return err
		}
	}
	if ix.ctx.mgr != nil {
		return ix.ctx.mgr.auditRecord()
	}
	return nil
}
