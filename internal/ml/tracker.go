// Package ml implements the paper's file-access pattern modelling pipeline
// (Section 4): per-file access tracking (last-k access times), time-delta
// feature construction with [0,1] normalisation and missing-value encoding,
// sliding-reference training-data generation, and an incremental learner
// built on the gbt package with an accuracy gate before predictions are
// served.
package ml

import (
	"slices"
	"time"
)

// DefaultK is the number of access times kept per file and used as feature
// inputs (the paper's default, Section 7.6).
const DefaultK = 12

// trackSlack is how many accesses beyond K the tracker retains so that
// features can be computed at reference times slightly in the past (the
// sampler sets the reference one class-window before now).
const trackSlack = 20

// FileRecord is the per-file metadata the system maintains for modelling:
// size, creation time, and a bounded history of recent access times
// (Section 4.1: "we maintain the last k access times for each file").
type FileRecord struct {
	ID      int64
	Size    int64
	Created time.Time
	// accesses is the window of the most recent access times, at most
	// maxKeep = K+trackSlack of them. It fills in ascending order; once
	// full it is a ring whose oldest entry is at head, so an access
	// overwrites one entry instead of shifting the window. A read that needs
	// the window as one ascending slice rotates it back in place (ordered).
	accesses []time.Time
	total    int64 // lifetime access count
	maxKeep  int32
	head     int32
}

// RecordAccess appends an access time (times must be non-decreasing, which
// the simulation clock guarantees).
func (r *FileRecord) RecordAccess(at time.Time) { r.RecordAccessN(at, 1) }

// RecordAccessN records n accesses at one instant, exactly as n calls of
// RecordAccess(at) would: the lifetime count grows by n, and the window —
// which holds maxKeep entries at most — gains min(n, maxKeep) of them.
func (r *FileRecord) RecordAccessN(at time.Time, n int64) {
	r.total += n
	if n > int64(r.maxKeep) {
		n = int64(r.maxKeep)
	}
	for ; n > 0; n-- {
		r.push(at)
	}
}

// push writes one access: appended while the window fills, over the oldest
// entry once it is full. The backing array never outgrows the window.
func (r *FileRecord) push(at time.Time) {
	if n := len(r.accesses); n < int(r.maxKeep) {
		if n == cap(r.accesses) && 2*n >= int(r.maxKeep) {
			grown := make([]time.Time, n, r.maxKeep)
			copy(grown, r.accesses)
			r.accesses = grown
		}
		r.accesses = append(r.accesses, at)
		return
	}
	r.accesses[r.head] = at
	if r.head++; int(r.head) == len(r.accesses) {
		r.head = 0
	}
}

// at returns the i-th oldest access in the window.
func (r *FileRecord) at(i int) time.Time {
	if i += int(r.head); i >= len(r.accesses) {
		i -= len(r.accesses)
	}
	return r.accesses[i]
}

// ordered rotates a wrapped window back into ascending order in place and
// returns it.
func (r *FileRecord) ordered() []time.Time {
	if h := int(r.head); h != 0 {
		slices.Reverse(r.accesses[:h])
		slices.Reverse(r.accesses[h:])
		slices.Reverse(r.accesses)
		r.head = 0
	}
	return r.accesses
}

// AccessCount returns the lifetime number of recorded accesses.
func (r *FileRecord) AccessCount() int64 { return r.total }

// LastAccess returns the most recent access time, or the creation time when
// the file has never been accessed (and false).
func (r *FileRecord) LastAccess() (time.Time, bool) {
	if len(r.accesses) == 0 {
		return r.Created, false
	}
	return r.at(len(r.accesses) - 1), true
}

// AccessesBefore returns up to `limit` most recent tracked accesses at or
// before ref, in ascending order. The returned slice aliases internal
// storage; callers must not mutate it.
func (r *FileRecord) AccessesBefore(ref time.Time, limit int) []time.Time {
	accesses := r.ordered()
	end := len(accesses)
	for end > 0 && accesses[end-1].After(ref) {
		end--
	}
	start := 0
	if limit > 0 && end-start > limit {
		start = end - limit
	}
	return accesses[start:end]
}

// AccessedIn reports whether the file was accessed in the half-open
// interval (from, to].
func (r *FileRecord) AccessedIn(from, to time.Time) bool {
	for i := len(r.accesses) - 1; i >= 0; i-- {
		at := r.at(i)
		if !at.After(from) {
			return false
		}
		if !at.After(to) {
			return true
		}
	}
	return false
}

// FootprintBytes estimates the tracker memory used for this file
// (Section 7.7 reports a max of 956 bytes per file for k=12).
func (r *FileRecord) FootprintBytes() int {
	const fixed = 8 + 8 + 24 + 8 + 8 // id, size, created, total, maxKeep and head
	return fixed + cap(r.accesses)*24
}

// Tracker maintains FileRecords for the live files in the system, in a table
// indexed by the caller's slot: a small integer the caller hands out to at
// most one live file at a time and recycles (dfs.File.Slot, or a trace's
// file position). Each record keeps its file's id, and a lookup answers only
// for the id it names, so a slot taken over by another file never hands back
// its predecessor's record.
//
// A slot's record outlives its file: OnDelete marks it free and the next
// OnCreate in the slot reuses it, access-window array included, so a
// churning population allocates no records. That is safe because nothing
// holds a record across its file's delete: the policies look records up per
// call (XGB's candidate record buffers are refilled before every read), and
// the learner keeps feature rows, never records.
type Tracker struct {
	k    int
	recs []*FileRecord // by slot; nil for a slot never used
	live int
}

// freeID marks a record whose file is gone (file ids are never negative).
const freeID = -1

// NewTracker returns a tracker keeping k access times per file as feature
// inputs (plus bounded slack for retrospective sampling).
func NewTracker(k int) *Tracker {
	if k <= 0 {
		k = DefaultK
	}
	return &Tracker{k: k}
}

// K returns the configured feature access count.
func (t *Tracker) K() int { return t.k }

// Len returns the number of tracked files.
func (t *Tracker) Len() int { return t.live }

// OnCreate registers file id in slot, replacing whatever record the slot
// held (and reusing its storage).
func (t *Tracker) OnCreate(slot int32, id, size int64, at time.Time) *FileRecord {
	for int(slot) >= len(t.recs) {
		t.recs = append(t.recs, nil)
	}
	rec := t.recs[slot]
	switch {
	case rec == nil:
		rec = new(FileRecord)
		t.recs[slot] = rec
		t.live++
	case rec.ID == freeID:
		t.live++
	}
	*rec = FileRecord{ID: id, Size: size, Created: at, accesses: rec.accesses[:0], maxKeep: int32(t.k + trackSlack)}
	return rec
}

// OnAccess records an access, creating the record if the file predates the
// tracker.
func (t *Tracker) OnAccess(slot int32, id int64, at time.Time) *FileRecord {
	return t.OnAccessN(slot, id, at, 1)
}

// OnAccessN records n accesses at one instant (see FileRecord.RecordAccessN).
func (t *Tracker) OnAccessN(slot int32, id int64, at time.Time, n int64) *FileRecord {
	rec, ok := t.Get(slot, id)
	if !ok {
		rec = t.OnCreate(slot, id, 0, at)
	}
	rec.RecordAccessN(at, n)
	return rec
}

// OnDelete forgets a file; its slot's record waits for the slot's next file.
func (t *Tracker) OnDelete(slot int32, id int64) {
	if rec, ok := t.Get(slot, id); ok {
		rec.ID = freeID
		t.live--
	}
}

// Get returns the record of file id in slot.
func (t *Tracker) Get(slot int32, id int64) (*FileRecord, bool) {
	if slot < 0 || int(slot) >= len(t.recs) || id == freeID {
		return nil, false
	}
	if rec := t.recs[slot]; rec != nil && rec.ID == id {
		return rec, true
	}
	return nil, false
}

// Each visits every live file's record in slot order.
func (t *Tracker) Each(fn func(*FileRecord)) {
	for _, rec := range t.recs {
		if rec != nil && rec.ID != freeID {
			fn(rec)
		}
	}
}

// FootprintBytes estimates the tracker's total metadata memory.
func (t *Tracker) FootprintBytes() int {
	total := 0
	t.Each(func(rec *FileRecord) { total += rec.FootprintBytes() })
	return total
}
