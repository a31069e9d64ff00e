// Package ml implements the paper's file-access pattern modelling pipeline
// (Section 4): per-file access tracking (last-k access times), time-delta
// feature construction with [0,1] normalisation and missing-value encoding,
// sliding-reference training-data generation, and an incremental learner
// built on the gbt package with an accuracy gate before predictions are
// served.
package ml

import (
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
	ID       int64
	Size     int64
	Created  time.Time
	accesses []time.Time // ascending; bounded to K+trackSlack
	total    int64       // lifetime access count
	maxKeep  int
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

func (r *FileRecord) push(at time.Time) {
	r.accesses = append(r.accesses, at)
	if len(r.accesses) > r.maxKeep {
		// Shift rather than re-slice so the backing array does not grow
		// without bound over a long run.
		copy(r.accesses, r.accesses[len(r.accesses)-r.maxKeep:])
		r.accesses = r.accesses[:r.maxKeep]
	}
}

// AccessCount returns the lifetime number of recorded accesses.
func (r *FileRecord) AccessCount() int64 { return r.total }

// LastAccess returns the most recent access time, or the creation time when
// the file has never been accessed (and false).
func (r *FileRecord) LastAccess() (time.Time, bool) {
	if len(r.accesses) == 0 {
		return r.Created, false
	}
	return r.accesses[len(r.accesses)-1], true
}

// AccessesBefore returns up to `limit` most recent tracked accesses at or
// before ref, in ascending order. The returned slice aliases internal
// storage; callers must not mutate it.
func (r *FileRecord) AccessesBefore(ref time.Time, limit int) []time.Time {
	end := len(r.accesses)
	for end > 0 && r.accesses[end-1].After(ref) {
		end--
	}
	start := 0
	if limit > 0 && end-start > limit {
		start = end - limit
	}
	return r.accesses[start:end]
}

// AccessedIn reports whether the file was accessed in the half-open
// interval (from, to].
func (r *FileRecord) AccessedIn(from, to time.Time) bool {
	for i := len(r.accesses) - 1; i >= 0; i-- {
		at := r.accesses[i]
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
	const fixed = 8 + 8 + 24 + 8 + 8 // id, size, created, total, maxKeep
	return fixed + cap(r.accesses)*24
}

// Tracker maintains FileRecords for the live files in the system.
type Tracker struct {
	k     int
	files map[int64]*FileRecord
}

// NewTracker returns a tracker keeping k access times per file as feature
// inputs (plus bounded slack for retrospective sampling).
func NewTracker(k int) *Tracker {
	if k <= 0 {
		k = DefaultK
	}
	return &Tracker{k: k, files: make(map[int64]*FileRecord)}
}

// K returns the configured feature access count.
func (t *Tracker) K() int { return t.k }

// Len returns the number of tracked files.
func (t *Tracker) Len() int { return len(t.files) }

// OnCreate registers a file.
func (t *Tracker) OnCreate(id, size int64, at time.Time) *FileRecord {
	rec := &FileRecord{ID: id, Size: size, Created: at, maxKeep: t.k + trackSlack}
	t.files[id] = rec
	return rec
}

// OnAccess records an access, creating the record if the file predates the
// tracker.
func (t *Tracker) OnAccess(id int64, at time.Time) *FileRecord { return t.OnAccessN(id, at, 1) }

// OnAccessN records n accesses at one instant (see FileRecord.RecordAccessN).
func (t *Tracker) OnAccessN(id int64, at time.Time, n int64) *FileRecord {
	rec, ok := t.files[id]
	if !ok {
		rec = t.OnCreate(id, 0, at)
	}
	rec.RecordAccessN(at, n)
	return rec
}

// OnDelete forgets a file.
func (t *Tracker) OnDelete(id int64) { delete(t.files, id) }

// Get returns the record for a file id.
func (t *Tracker) Get(id int64) (*FileRecord, bool) {
	rec, ok := t.files[id]
	return rec, ok
}

// Each visits every record in unspecified order.
func (t *Tracker) Each(fn func(*FileRecord)) {
	for _, rec := range t.files {
		fn(rec)
	}
}

// FootprintBytes estimates the tracker's total metadata memory.
func (t *Tracker) FootprintBytes() int {
	total := 0
	for _, rec := range t.files {
		total += rec.FootprintBytes()
	}
	return total
}
