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
//     candidate collection in O(1) / O(k log k);
//   - per-tier frequency heaps ordered by (access count, last touch, id)
//     serve the LFU downgrade policy;
//   - one most-recently-used heap over files not resident in memory serves
//     Context.UpgradeCandidatesInto (the XGB upgrade policy's "k most recently
//     used files", Section 6.1) without sorting the live-file set;
//   - per-tier weight heaps keyed by lower bounds of the context's derived
//     statistics (DecayedWeight, serving LRFU and EXD).
//
// The per-tier families are instances of one declared order (see tierOrder).
// Membership follows the all-or-nothing residency property: a file appears
// in the structures of exactly the tiers holding a replica of every block,
// maintained from dfs.Listener FileTierChanged flips plus file
// creation/deletion.
//
// Ineligibility is structural too. A file the manager marks busy or puts in
// a failure cooldown is parked: it stays a member of every heap that holds
// it (keys keep following accesses, residency flips and deletes still
// apply) but leaves heap order, and it re-enters with its current key when
// the move completes cleanly or the cooldown expires. A file that holds the
// last copy of a block on a tier is parked the same way in that tier's heaps
// alone, until its residency changes. The heap top is therefore always
// selectable, and selection cost does not depend on how many moves failed.

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

// FileHeap is an indexed binary min-heap of files with O(log N)
// insert/update/remove and zero-allocation, read-only ordered selection. The
// comparator is fixed at construction, so the same structure serves ascending
// recency (LRU), descending recency (upgrade MRU), frequency, and weight
// orders.
//
// The layout is flat: the entries themselves sit in heap order (a key whose
// id word also names the file's slot) and one int32 per slot says where a
// member's entry is, so sifting moves one entry along one contiguous
// array. The *dfs.File is resolved on demand through the heap's resolver: a
// million-entry heap retains ids and keys, not pointers into the namespace,
// and its position table is as long as the most files ever live at once.
//
// A member is either in heap order or parked (see Park): parked members keep
// their key, follow Update/Rekey/Remove and count toward Len, but no
// selection sees them.
type FileHeap struct {
	items  []heapEntry // heap order
	parked []heapEntry // parked members, unordered
	// pos is indexed by slot (see dfs.File.Slot): 0 = not a member,
	// p+1 = items[p], -(q+1) = parked[q]. A word names a member only when
	// the entry it points at carries the asked-for id too.
	pos      []int32
	frontier []int32 // reused scratch of ascend
	less     func(a, b HeapKey) bool
	resolve  func(slot int32, id dfs.FileID) *dfs.File
	// ctx binds the heap to a context's eligibility record (see
	// CandidateIndex.NewHeap): new members the manager has on record enter
	// parked, and every selection first releases expired cooldowns. Nil for
	// a standalone heap. tier is the tier whose residents a bound heap orders
	// (the per-tier part of the record applies to it), -1 for one that spans
	// tiers.
	ctx  *Context
	tier storage.Media
}

// heapEntry is one member as the heap stores it: the key's weight and time
// beside the file's dfs.Ref, which orders as the key's id does and names the
// slot, so an entry costs no more than its HeapKey.
type heapEntry struct {
	w   float64
	t   int64
	ref dfs.Ref
}

func (e heapEntry) id() dfs.FileID { return e.ref.ID() }
func (e heapEntry) slot() int32    { return e.ref.Slot() }
func (e heapEntry) key() HeapKey   { return HeapKey{W: e.w, T: e.t, ID: e.ref.ID()} }

// NewFileHeap builds an empty heap with the given comparator (nil means
// the ascending HeapKey.Less order) and file resolver (dfs.FileSystem.FileAt).
// The resolver maps an indexed slot and id back to its file when a selection
// or visit callback needs one; entries that no longer resolve are treated as
// ineligible.
func NewFileHeap(less func(a, b HeapKey) bool, resolve func(slot int32, id dfs.FileID) *dfs.File) *FileHeap {
	if less == nil {
		less = HeapKey.Less
	}
	if resolve == nil {
		panic("core: NewFileHeap needs a file resolver")
	}
	return &FileHeap{less: less, resolve: resolve}
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

// place returns the pos word of the file with the id in the slot; a slot the
// heap never saw, or one whose entry belongs to another id, is no member.
func (h *FileHeap) place(slot int32, id dfs.FileID) int32 {
	if slot < 0 || int(slot) >= len(h.pos) {
		return 0
	}
	switch p := h.pos[slot]; {
	case p > 0 && h.items[p-1].id() == id, p < 0 && h.parked[-p-1].id() == id:
		return p
	}
	return 0
}

// Has reports whether the file is indexed.
func (h *FileHeap) Has(f *dfs.File) bool { return h.place(f.Slot(), f.ID()) != 0 }

// IsParked reports whether the file is a parked member.
func (h *FileHeap) IsParked(f *dfs.File) bool { return h.place(f.Slot(), f.ID()) < 0 }

// Update inserts the file or re-keys it in place. A parked member only has
// its key replaced; a new member enters parked when the bound context has it
// on record as busy or cooling down.
func (h *FileHeap) Update(f *dfs.File, w float64, t time.Time) {
	e := heapEntry{w: w, t: timeKey(t), ref: f.Ref()}
	switch p := h.place(f.Slot(), f.ID()); {
	case p > 0:
		h.items[p-1] = e
		h.fix(p - 1)
	case p < 0:
		h.parked[-p-1] = e
	default:
		for int(e.slot()) >= len(h.pos) {
			h.pos = append(h.pos, 0)
		}
		if h.ctx != nil && h.ctx.parked(f, h.tier) {
			h.pushParked(e)
		} else {
			h.pushItem(e)
		}
	}
}

// Remove drops the file if present.
func (h *FileHeap) Remove(f *dfs.File) { h.remove(f.Slot(), f.ID()) }

func (h *FileHeap) remove(slot int32, id dfs.FileID) {
	switch p := h.place(slot, id); {
	case p > 0:
		h.dropItem(p - 1)
	case p < 0:
		h.dropParked(-p - 1)
	default:
		return
	}
	h.pos[slot] = 0
}

// Park takes an indexed file out of heap order, keeping it a member. No-op
// when the file is not indexed or already parked.
func (h *FileHeap) Park(f *dfs.File) {
	if p := h.place(f.Slot(), f.ID()); p > 0 {
		e := h.items[p-1]
		h.dropItem(p - 1)
		h.pushParked(e)
	}
}

// Unpark returns a parked file to heap order under its current key. No-op
// when the file is not indexed or not parked.
func (h *FileHeap) Unpark(f *dfs.File) {
	if p := h.place(f.Slot(), f.ID()); p < 0 {
		e := h.parked[-p-1]
		h.dropParked(-p - 1)
		h.pushItem(e)
	}
}

func (h *FileHeap) pushItem(e heapEntry) {
	h.items = append(h.items, e)
	h.up(int32(len(h.items) - 1))
}

func (h *FileHeap) dropItem(i int32) {
	last := int32(len(h.items) - 1)
	moved := h.items[last]
	h.items = h.items[:last]
	if i < last {
		h.items[i] = moved
		h.fix(i)
	}
}

func (h *FileHeap) pushParked(e heapEntry) {
	h.parked = append(h.parked, e)
	h.pos[e.slot()] = -int32(len(h.parked))
}

func (h *FileHeap) dropParked(q int32) {
	last := int32(len(h.parked) - 1)
	moved := h.parked[last]
	h.parked = h.parked[:last]
	if q < last {
		h.parked[q] = moved
		h.pos[moved.slot()] = -(q + 1)
	}
}

// Rekey recomputes every member's key with fn and re-heapifies in O(N); the
// lazy weight heaps use it when their evaluation horizon advances. Entries
// that no longer resolve keep their stored key.
func (h *FileHeap) Rekey(fn func(f *dfs.File) (float64, time.Time)) {
	for _, members := range [2][]heapEntry{h.items, h.parked} {
		for i := range members {
			e := &members[i]
			if f := h.resolve(e.slot(), e.id()); f != nil {
				w, t := fn(f)
				e.w, e.t = w, timeKey(t)
			}
		}
	}
	for i := int32(len(h.items))/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Each visits every member, parked ones included, in unspecified order.
// Entries that no longer resolve are skipped.
func (h *FileHeap) Each(fn func(f *dfs.File, key HeapKey)) {
	for _, members := range [2][]heapEntry{h.items, h.parked} {
		for _, e := range members {
			if f := h.resolve(e.slot(), e.id()); f != nil {
				fn(f, e.key())
			}
		}
	}
}

// Key returns the stored key of a file.
func (h *FileHeap) Key(f *dfs.File) (HeapKey, bool) {
	switch p := h.place(f.Slot(), f.ID()); {
	case p > 0:
		return h.items[p-1].key(), true
	case p < 0:
		return h.parked[-p-1].key(), true
	}
	return HeapKey{}, false
}

// settle releases the bound context's expired cooldowns, so the members in
// heap order are exactly the selectable ones when a selection starts.
func (h *FileHeap) settle() {
	if h.ctx != nil && h.ctx.mgr != nil {
		h.ctx.mgr.releaseExpired()
	}
}

// ascend visits the keys in heap order, smallest first, until visit returns
// false, and leaves the heap as it found it. It is a best-first walk over the
// implicit tree: the next smallest key is always a child of one already
// visited, so a small min-heap of candidate positions (the frontier, reused
// across calls) yields v keys in O(v log v) whatever the size of the heap.
// visit must not modify the heap.
func (h *FileHeap) ascend(visit func(heapEntry) bool) {
	n := int32(len(h.items))
	if n == 0 {
		return
	}
	before := func(a, b int32) bool { return h.less(h.items[a].key(), h.items[b].key()) }
	fr := append(h.frontier[:0], 0)
	for len(fr) > 0 && visit(h.items[fr[0]]) {
		// The visited position's left child (else the frontier's last entry)
		// takes its place at the frontier's root and sinks...
		left := 2*fr[0] + 1
		if left < n {
			fr[0] = left
		} else {
			fr[0] = fr[len(fr)-1]
			fr = fr[:len(fr)-1]
		}
		for i, m := 0, len(fr); ; {
			c := 2*i + 1
			if c >= m {
				break
			}
			if r := c + 1; r < m && before(fr[r], fr[c]) {
				c = r
			}
			if !before(fr[c], fr[i]) {
				break
			}
			fr[i], fr[c] = fr[c], fr[i]
			i = c
		}
		// ...and its right child joins at the bottom and rises.
		if right := left + 1; right < n {
			fr = append(fr, right)
			for i := len(fr) - 1; i > 0; {
				p := (i - 1) / 2
				if !before(fr[i], fr[p]) {
					break
				}
				fr[i], fr[p] = fr[p], fr[i]
				i = p
			}
		}
	}
	h.frontier = fr[:0]
}

// SelectMin returns the minimum-key file in heap order, or nil. Keys must be
// exact (not bounds). The common case is a peek at the top; only when its id
// no longer resolves does the walk step over such entries.
func (h *FileHeap) SelectMin() *dfs.File {
	h.settle()
	if len(h.items) == 0 {
		return nil
	}
	best := h.resolve(h.items[0].slot(), h.items[0].id())
	if best == nil {
		h.ascend(func(e heapEntry) bool {
			best = h.resolve(e.slot(), e.id())
			return best == nil
		})
	}
	return best
}

// SelectMinLazy returns the file minimizing (trueW(f), f.ID()) among the
// members in heap order, where stored weight keys are lower bounds of trueW
// (entries' T components must be zero). It walks entries while their bound
// could still beat the best exact weight seen; with tight bounds this
// inspects a tiny prefix of the heap.
func (h *FileHeap) SelectMinLazy(trueW func(*dfs.File) float64) *dfs.File {
	h.settle()
	var best *dfs.File
	var bestKey HeapKey
	h.ascend(func(e heapEntry) bool {
		if best != nil && h.less(bestKey, e.key()) {
			return false
		}
		if f := h.resolve(e.slot(), e.id()); f != nil {
			tk := HeapKey{W: trueW(f), ID: e.id()}
			if best == nil || h.less(tk, bestKey) {
				best, bestKey = f, tk
			}
		}
		return true
	})
	return best
}

// AscendWhile visits files in ascending stored-key order while keep returns
// true for the next key. keep is consulted with each stored key before its
// file is visited, so a caller whose keys are lower bounds can stop as soon
// as the bound proves no remaining entry matters (the EXD upgrade admission
// walks the memory-tier weight heap this way to sum a victim prefix without
// sorting the tier). Cost is O(v log v) for v visited entries.
func (h *FileHeap) AscendWhile(keep func(HeapKey) bool, visit func(*dfs.File)) {
	h.settle()
	h.ascend(func(e heapEntry) bool {
		if !keep(e.key()) {
			return false
		}
		if f := h.resolve(e.slot(), e.id()); f != nil {
			visit(f)
		}
		return true
	})
}

// TopK appends up to k files to out in heap order (k <= 0 means all of
// them) and returns the extended slice. Cost is O(k log k).
func (h *FileHeap) TopK(k int, out []*dfs.File) []*dfs.File {
	h.settle()
	if k <= 0 {
		k = len(h.items)
	}
	taken := 0
	h.ascend(func(e heapEntry) bool {
		if f := h.resolve(e.slot(), e.id()); f != nil {
			out = append(out, f)
			taken++
		}
		return taken < k
	})
	return out
}

func (h *FileHeap) fix(i int32) {
	if !h.up(i) {
		h.down(i)
	}
}

// put stores e at heap position i and records the place.
func (h *FileHeap) put(i int32, e heapEntry) {
	h.items[i] = e
	h.pos[e.slot()] = i + 1
}

// up moves the entry at position i toward the root, shifting the larger
// parents down behind it, and reports whether it moved.
func (h *FileHeap) up(i int32) bool {
	e, from := h.items[i], i
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(e.key(), h.items[parent].key()) {
			break
		}
		h.put(i, h.items[parent])
		i = parent
	}
	h.put(i, e)
	return i != from
}

// down moves the entry at position i toward the leaves, shifting the smaller
// children up behind it.
func (h *FileHeap) down(i int32) {
	e, n := h.items[i], int32(len(h.items))
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h.less(h.items[right].key(), h.items[child].key()) {
			child = right
		}
		if !h.less(h.items[child].key(), e.key()) {
			break
		}
		h.put(i, h.items[child])
		i = child
	}
	h.put(i, e)
}

// tierOrder is one declared per-tier order: a heap per tier holding exactly
// the tier's fully resident files (see the membership rule above), each under
// key(f). The index's event feed keeps membership and keys; an order only
// says what its key is. exact orders hold key(f) itself (SelectMin applies);
// the others hold a lower bound (SelectMinLazy / AscendWhile apply), which
// the audit cannot recompute, so it checks their membership only.
type tierOrder struct {
	tiers [3]*FileHeap
	key   func(*dfs.File) (w float64, t time.Time)
	exact bool
}

// set inserts or re-keys the file on one tier.
func (o *tierOrder) set(f *dfs.File, m storage.Media) {
	w, t := o.key(f)
	o.tiers[m].Update(f, w, t)
}

// CandidateIndex is the Context's incremental selection state. Structures
// are built on demand — each policy declares what it needs at construction
// (RequireRecency, RequireFrequency, RequireUpgradeMRU,
// DecayedWeight.RequireOrder) and pays only for that — and seed themselves
// from the currently live files, so construction order relative to file
// creation does not matter.
type CandidateIndex struct {
	ctx     *Context
	recency *tierOrder   // (lastTouch, id) ascending
	freq    *tierOrder   // (count, lastTouch, id) ascending
	orders  []*tierOrder // every declared order: the two above and the derived statistics'
	mru     *FileHeap    // non-memory-resident files: lastTouch descending
	heaps   []*FileHeap  // every heap from NewHeap: the orders', the MRU heap, any other
}

func newCandidateIndex(ctx *Context) *CandidateIndex { return &CandidateIndex{ctx: ctx} }

// NewHeap builds an empty heap over the context's files that follows the
// manager's eligibility record: the manager parks and un-parks files in it
// together with the index's own structures, so its top is always selectable.
// tier names the tier whose residents the heap orders, -1 when it spans tiers.
func (ix *CandidateIndex) NewHeap(less func(a, b HeapKey) bool, tier storage.Media) *FileHeap {
	h := NewFileHeap(less, ix.ctx.FS.FileAt)
	h.ctx, h.tier = ix.ctx, tier
	ix.heaps = append(ix.heaps, h)
	return h
}

// park takes the file out of selection order everywhere it is indexed.
func (ix *CandidateIndex) park(f *dfs.File) {
	for _, h := range ix.heaps {
		h.Park(f)
	}
}

// parkOn takes the file out of the one tier's selection orders.
func (ix *CandidateIndex) parkOn(f *dfs.File, tier storage.Media) {
	for _, h := range ix.heaps {
		if h.tier == tier {
			h.Park(f)
		}
	}
}

// unpark returns a file that is off the manager's busy and cooldown record to
// selection order under its current keys, except on the tiers where it holds
// a last copy.
func (ix *CandidateIndex) unpark(f *dfs.File) {
	for _, h := range ix.heaps {
		if h.tier < 0 || !ix.ctx.mgr.lastCopyOn(f.ID(), h.tier) {
			h.Unpark(f)
		}
	}
}

// newOrder declares a per-tier order: it builds the three heaps, registers
// the order with the event feed and seeds it from current residency.
func (ix *CandidateIndex) newOrder(key func(*dfs.File) (float64, time.Time), exact bool) *tierOrder {
	o := &tierOrder{key: key, exact: exact}
	for _, m := range storage.AllMedia {
		o.tiers[m] = ix.NewHeap(nil, m)
	}
	ix.orders = append(ix.orders, o)
	for _, f := range ix.ctx.FS.LiveFiles() {
		if ix.indexable(f) {
			for _, m := range storage.AllMedia {
				if f.HasReplicaOn(m) {
					o.set(f, m)
				}
			}
		}
	}
	return o
}

// recencyKey orders by last touch; it is also the MRU heap's key, read
// through TimeDescending.
func (ix *CandidateIndex) recencyKey(f *dfs.File) (float64, time.Time) {
	return 0, ix.ctx.LastTouch(f)
}

func (ix *CandidateIndex) frequencyKey(f *dfs.File) (float64, time.Time) {
	return float64(ix.ctx.AccessCount(f)), ix.ctx.LastTouch(f)
}

// RequireRecency enables the per-tier recency heaps (LRU selection and
// LRU-ordered top-k collection).
func (ix *CandidateIndex) RequireRecency() {
	if ix.recency == nil {
		ix.recency = ix.newOrder(ix.recencyKey, true)
	}
}

// RequireFrequency enables the per-tier frequency heaps (LFU selection).
func (ix *CandidateIndex) RequireFrequency() {
	if ix.freq == nil {
		ix.freq = ix.newOrder(ix.frequencyKey, true)
	}
}

// RequireUpgradeMRU enables the most-recently-used heap over files not
// resident in memory (Context.UpgradeCandidatesInto).
func (ix *CandidateIndex) RequireUpgradeMRU() {
	if ix.mru != nil {
		return
	}
	ix.mru = ix.NewHeap(TimeDescending, -1)
	for _, f := range ix.ctx.FS.LiveFiles() {
		if ix.indexable(f) && ix.upgradeIndexable(f) {
			ix.mru.Update(f, 0, ix.ctx.LastTouch(f))
		}
	}
}

// indexable reports whether a live file may be a member of anything yet.
func (ix *CandidateIndex) indexable(f *dfs.File) bool {
	return !f.Deleted() && ix.ctx.FS.Complete(f)
}

// upgradeIndexable is the static part of the UpgradeCandidates predicate;
// busy and cooldown files are members too, parked.
func (ix *CandidateIndex) upgradeIndexable(f *dfs.File) bool {
	return !f.Deleted() && len(f.Blocks()) > 0 && !f.HasReplicaOn(storage.Memory)
}

// --- event feed (driven by the Context's file-system listener): one loop
// over the declared orders, plus the MRU heap under its own membership rule ---

func (ix *CandidateIndex) fileCreated(f *dfs.File) {
	for _, m := range storage.AllMedia {
		if f.HasReplicaOn(m) {
			for _, o := range ix.orders {
				o.set(f, m)
			}
		}
	}
	if ix.mru != nil && ix.upgradeIndexable(f) {
		ix.mru.Update(f, 0, ix.ctx.LastTouch(f))
	}
}

func (ix *CandidateIndex) fileAccessed(f *dfs.File) {
	for _, o := range ix.orders {
		w, t := o.key(f)
		for _, h := range o.tiers {
			if h.Has(f) {
				h.Update(f, w, t)
			}
		}
	}
	if ix.mru != nil && ix.mru.Has(f) {
		ix.mru.Update(f, 0, ix.ctx.LastTouch(f))
	}
}

func (ix *CandidateIndex) fileDeleted(f *dfs.File) {
	for _, o := range ix.orders {
		for _, h := range o.tiers {
			h.Remove(f)
		}
	}
	if ix.mru != nil {
		ix.mru.Remove(f)
	}
}

func (ix *CandidateIndex) residencyChanged(f *dfs.File, m storage.Media, resident bool) {
	for _, o := range ix.orders {
		if resident {
			o.set(f, m)
		} else {
			o.tiers[m].Remove(f)
		}
	}
	if ix.mru != nil && m == storage.Memory {
		if resident {
			ix.mru.Remove(f)
		} else if ix.upgradeIndexable(f) {
			ix.mru.Update(f, 0, ix.ctx.LastTouch(f))
		}
	}
}

// --- selection API ---

// SelectLRU returns the least recently touched selectable file on the tier
// (the indexed equivalent of the LRU policy's linear min-scan).
func (ix *CandidateIndex) SelectLRU(tier storage.Media) *dfs.File {
	return ix.recency.tiers[tier].SelectMin()
}

// SelectLFU returns the least frequently used selectable file on the tier,
// ties toward least recently touched.
func (ix *CandidateIndex) SelectLFU(tier storage.Media) *dfs.File {
	return ix.freq.tiers[tier].SelectMin()
}

// HasRecency reports whether the recency heaps are live.
func (ix *CandidateIndex) HasRecency() bool { return ix.recency != nil }

// Audit validates every enabled structure against a from-scratch recompute
// of membership and keys: each tier heap of each declared order must hold
// exactly the complete, live, fully resident files of its tier — by file
// identity, not by count — and, for an exact order, each under its current
// key; the MRU heap exactly the non-memory-resident candidates under their
// last touch. The scenario replayer runs it with the deep invariant checks so
// node churn and re-replication cannot silently leak or strand indexed
// entries. It ends with AuditParking.
func (ix *CandidateIndex) Audit() error {
	want := make(map[dfs.FileID]bool)
	collect := func(member func(*dfs.File) bool) {
		for id := range want {
			delete(want, id)
		}
		for _, f := range ix.ctx.FS.LiveFiles() {
			if ix.indexable(f) && member(f) {
				want[f.ID()] = true
			}
		}
	}
	for _, m := range storage.AllMedia {
		collect(func(f *dfs.File) bool { return f.HasReplicaOn(m) })
		for i, o := range ix.orders {
			if err := auditHeap(o.tiers[m], want, o.key, o.exact); err != nil {
				return fmt.Errorf("core: index order %d, tier %v: %w", i, m, err)
			}
		}
	}
	if ix.mru != nil {
		collect(ix.upgradeIndexable)
		if err := auditHeap(ix.mru, want, ix.recencyKey, true); err != nil {
			return fmt.Errorf("core: upgrade MRU: %w", err)
		}
	}
	return ix.AuditParking()
}

// auditHeap checks that the heap's members are exactly the wanted files and,
// for exact keys, that each is stored under key(f).
func auditHeap(h *FileHeap, want map[dfs.FileID]bool, key func(*dfs.File) (float64, time.Time), exact bool) error {
	if h.Len() != len(want) {
		return fmt.Errorf("holds %d files, want %d", h.Len(), len(want))
	}
	var err error
	seen := 0
	h.Each(func(f *dfs.File, stored HeapKey) {
		seen++
		if err != nil {
			return
		}
		if !want[f.ID()] {
			err = fmt.Errorf("holds stray file %q", f.Path())
		} else if exact {
			if w, t := key(f); stored != (HeapKey{W: w, T: timeKey(t), ID: f.ID()}) {
				err = fmt.Errorf("key stale for %q", f.Path())
			}
		}
	})
	if err == nil && seen != len(want) { // Each skips ids that no longer resolve
		err = fmt.Errorf("holds %d files that no longer exist", len(want)-seen)
	}
	return err
}

// AuditParking validates that ineligibility is structural: in every heap
// built by NewHeap (the index's own and the derived statistics') a member is
// parked exactly when the manager has it on record as busy or cooling down,
// or, in a tier's heap, as holding a last copy there; and the manager's scrape
// counts match its record.
func (ix *CandidateIndex) AuditParking() error {
	for i, h := range ix.heaps {
		var err error
		h.Each(func(f *dfs.File, _ HeapKey) {
			if parked := h.IsParked(f); err == nil && parked != ix.ctx.parked(f, h.tier) {
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
