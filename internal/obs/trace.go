package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Span is one sampled operation's life: shard route, access publish, the
// placement the read resolved to, the data-plane grant breakdown, and the
// end-to-end wall time. Durations are nanoseconds; VirtNS is the engine's
// virtual clock at completion.
type Span struct {
	Kind   string `json:"kind"` // always "span"
	Op     string `json:"op"`   // "access" | "create"
	Path   string `json:"path"`
	Shard  int    `json:"shard"`
	Tenant int    `json:"tenant,omitempty"`
	VirtNS int64  `json:"virt_ns"`

	// Stage timings, wall-clock ns from op start.
	ResolveNS int64 `json:"resolve_ns"`          // shard route + namespace stripe lookup
	RingNS    int64 `json:"ring_ns,omitempty"`   // access publish
	DecideNS  int64 `json:"decide_ns,omitempty"` // replica/tier decision

	// Data-plane grant breakdown (virtual ns), zero without a plane.
	QueueNS    int64 `json:"queue_ns,omitempty"`
	BaseNS     int64 `json:"base_ns,omitempty"`
	TransferNS int64 `json:"transfer_ns,omitempty"`
	Saturated  bool  `json:"saturated,omitempty"`

	Tier    string `json:"tier,omitempty"` // tier the read was served from
	Bytes   int64  `json:"bytes,omitempty"`
	Err     string `json:"err,omitempty"`
	TotalNS int64  `json:"total_ns"` // wall-clock op latency
}

// MoveRecord is one movement-provenance event: which file, which tiers,
// which policy decided it and why, and what became of the request. Two
// records share a file's journey: outcome "queued" at admission ("shed" for
// a request too large for the tier's whole budget, which ends there), then
// "completed"/"failed" when the transfer finishes. Err is the failure's
// reason label (dfs.MoveReason), not a message: the record already names the
// file and the tiers.
type MoveRecord struct {
	Kind    string `json:"kind"` // always "move"
	Shard   int    `json:"shard"`
	VirtNS  int64  `json:"virt_ns"`
	Path    string `json:"path"`
	From    string `json:"from"`
	To      string `json:"to"`
	Bytes   int64  `json:"bytes"`
	Policy  string `json:"policy,omitempty"`  // deciding policy's Name()
	Trigger string `json:"trigger,omitempty"` // "tick" | "access" | "tier-data-added" | ...

	// Triggering stats: the file's tracker state at decision time.
	AccessCount  int64 `json:"access_count,omitempty"`
	LastAccessNS int64 `json:"last_access_ns,omitempty"`

	Outcome string `json:"outcome"` // "queued" | "shed" | "completed" | "failed"
	Err     string `json:"err,omitempty"`
}

// Event is a free-form notable occurrence (invariant failure, defer window,
// quota exhaustion) kept for the flight recorder and trace stream.
type Event struct {
	Kind   string `json:"kind"` // always "event"
	Shard  int    `json:"shard,omitempty"`
	VirtNS int64  `json:"virt_ns,omitempty"`
	What   string `json:"what"`
	Detail string `json:"detail,omitempty"`
}

// Tracer writes records as JSONL to a sink. Writes are serialized by a
// mutex — only sampled ops and movement events reach it, so contention is
// negligible next to the encode itself.
type Tracer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	enc *json.Encoder
	n   atomic.Int64
}

// NewTracer wraps a sink (typically an *os.File) in a JSONL tracer. The
// sink is closed by Close if it implements io.Closer.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriterSize(w, 1<<16)
	t := &Tracer{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

func (t *Tracer) emit(rec any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.enc.Encode(rec) == nil {
		t.n.Add(1)
	}
	t.mu.Unlock()
}

// Records returns how many records were written (0 on nil).
func (t *Tracer) Records() int64 {
	if t == nil {
		return 0
	}
	return t.n.Load()
}

// Close flushes and closes the sink. Nil-safe.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.w.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Hub bundles the observability plane's pieces: the metric registry, the
// optional JSONL tracer, the flight recorder, and the span sampler. A nil
// *Hub is the disabled plane — every method is a nil-check and return, so
// instrumented code threads the hub unconditionally.
type Hub struct {
	reg    *Registry
	tracer *Tracer
	flight *FlightRecorder
	every  uint64
	ops    atomic.Uint64
}

// HubConfig tunes a hub.
type HubConfig struct {
	// SampleEvery traces one op in N (default 64; 1 traces everything).
	SampleEvery int
	// FlightSize is the flight-recorder capacity in records (default 4096).
	FlightSize int
	// Trace, when non-nil, receives every sampled span, movement record,
	// and event as JSONL.
	Trace io.Writer
}

// NewHub builds an enabled hub.
func NewHub(cfg HubConfig) *Hub {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 64
	}
	if cfg.FlightSize <= 0 {
		cfg.FlightSize = 4096
	}
	h := &Hub{
		reg:    NewRegistry(),
		flight: NewFlightRecorder(cfg.FlightSize),
		every:  uint64(cfg.SampleEvery),
	}
	if cfg.Trace != nil {
		h.tracer = NewTracer(cfg.Trace)
	}
	return h
}

// Registry returns the hub's registry (nil on a nil hub; a nil registry
// absorbs registrations).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Tracer returns the hub's tracer, nil when tracing is off.
func (h *Hub) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.tracer
}

// SampleOp reports whether the caller should record a span for this op.
// One atomic add when enabled; false on a nil hub.
func (h *Hub) SampleOp() bool {
	if h == nil {
		return false
	}
	return h.ops.Add(1)%h.every == 1 || h.every == 1
}

// EmitSpan publishes a completed span to the trace sink and flight ring.
func (h *Hub) EmitSpan(s *Span) {
	if h == nil || s == nil {
		return
	}
	s.Kind = "span"
	h.tracer.emit(s)
	h.flight.add(*s)
}

// EmitMove publishes a movement-provenance record.
func (h *Hub) EmitMove(m *MoveRecord) {
	if h == nil || m == nil {
		return
	}
	m.Kind = "move"
	h.tracer.emit(m)
	h.flight.add(*m)
}

// EmitEvent publishes a notable event.
func (h *Hub) EmitEvent(e *Event) {
	if h == nil || e == nil {
		return
	}
	e.Kind = "event"
	h.tracer.emit(e)
	h.flight.add(*e)
}

// DumpFlight writes the flight recorder's retained records, oldest first,
// as JSONL. No-op on a nil hub.
func (h *Hub) DumpFlight(w io.Writer) error {
	if h == nil {
		return nil
	}
	return h.flight.Dump(w)
}

// Close flushes the tracer. Nil-safe.
func (h *Hub) Close() error {
	if h == nil {
		return nil
	}
	return h.tracer.Close()
}
