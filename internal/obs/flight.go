package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// FlightRecorder keeps the last N spans/moves/events in a fixed ring so an
// invariant failure or SIGQUIT can dump what the system was doing just
// before — the black box for otherwise opaque panics. Writers take a mutex;
// only sampled records reach it, so it is far off the hot path.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []any
	next int
	full bool
}

// NewFlightRecorder allocates a recorder retaining the last size records.
func NewFlightRecorder(size int) *FlightRecorder {
	return &FlightRecorder{ring: make([]any, size)}
}

func (f *FlightRecorder) add(rec any) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring[f.next] = rec
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.full = true
	}
	f.mu.Unlock()
}

// Len reports how many records are retained.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.full {
		return len(f.ring)
	}
	return f.next
}

// Dump writes the retained records, oldest first, as JSONL.
func (f *FlightRecorder) Dump(w io.Writer) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	recs := make([]any, 0, len(f.ring))
	if f.full {
		recs = append(recs, f.ring[f.next:]...)
	}
	recs = append(recs, f.ring[:f.next]...)
	f.mu.Unlock()

	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
