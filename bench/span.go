package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sampleEvery samples hot boundaries 1 in 61: a traced read_hot run crosses
// them millions of times per second and every span stays in memory until the
// run ends. Counts at the same boundaries are unsampled atomics. A prime, so
// that a schedule cycling through op kinds with a short period does not
// always offer the sampler the same kind.
const sampleEvery = 61

// span is one timed call from bench/ code into a layer. Times are host
// nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span ids 1 and 2 are the two roots of every traced run.
const (
	rootRun        = 1 // harness ops hang off this one
	rootBackground = 2 // seam calls made on shard loops hang off this one
)

// tracer collects spans in memory. A nil *tracer is the untraced run: now and
// record degrade to no-ops, per-op call sites check it once, and the
// decorators are never installed.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// seam is the parent of spans recorded by the decorators on goroutines
	// the harness does not run: the background root for a server's shard
	// loops, the replay's own span when the system runs inline (trace_xgb).
	seam atomic.Int64

	// armed publishes, per client goroutine, the virtual stamp and span id of
	// the sampled op currently inside the server, so a serve-class plane
	// grant issued within it (same IORequest.At) takes that op as its parent.
	armed [2]struct{ at, id atomic.Int64 }
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.nextID.Store(rootBackground)
	t.seam.Store(rootBackground)
	return t
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) add(id, parent int64, name string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// record times fn as a fresh span under parent.
func (t *tracer) record(parent int64, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id, start := t.newID(), t.now()
	fn()
	t.add(id, parent, name, start, t.now())
}

// arm marks client's sampled op as in flight; at is its virtual stamp in
// nanoseconds since sim.Epoch.
func (t *tracer) arm(client int, at, id int64) {
	t.armed[client].id.Store(id)
	t.armed[client].at.Store(at)
}

func (t *tracer) disarm(client int) { t.armed[client].at.Store(-1) }

// parentOf returns the span id of the armed op stamped at, or 0.
func (t *tracer) parentOf(at int64) int64 {
	for i := range t.armed {
		if t.armed[i].at.Load() == at {
			return t.armed[i].id.Load()
		}
	}
	return 0
}

// finish closes the two roots and returns all spans ordered by start.
func (t *tracer) finish() []span {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans,
		span{ID: rootRun, Name: "bench.run", End: end},
		span{ID: rootBackground, Parent: rootRun, Name: "bench.background", End: end})
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	return t.spans
}

// durations are the lengths, in nanoseconds, of the spans carrying one name.
type durations []int64

func (d durations) sum() float64 {
	var sum int64
	for _, v := range d {
		sum += v
	}
	return float64(sum)
}

func (d durations) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	return d.sum() / float64(len(d))
}

func (d durations) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sorted := append(durations(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(sorted[int(q*float64(len(sorted)-1))])
}

func statsByName(spans []span) map[string]durations {
	out := make(map[string]durations)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	return out
}

// layerOf is the module a span name belongs to ("policy.down.select" →
// "policy").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerSelfNS sums, per layer, each span's duration minus the part of it its
// child spans cover. Sampled spans are not scaled up: the numbers compare
// layers within one traced run, not against wall time.
func layerSelfNS(spans []span) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.ID != rootRun {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered, edge := int64(0), s.Start
		for _, c := range children[s.ID] { // already ordered by start
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[layerOf(s.Name)] += float64(s.End - s.Start - covered)
	}
	return out
}

// writeSpans dumps spans as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
