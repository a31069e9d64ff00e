package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Labels names one metric instance, e.g. {"tier": "SSD", "shard": "0"}.
// Rendering sorts keys, so registration order and map iteration order never
// leak into the exposition.
type Labels map[string]string

func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// entry is one registered metric. Scrapes call the value/hist closure; the
// closures read the owner's atomics, so registration is the only write the
// registry ever takes and the hot paths never touch it.
type entry struct {
	base   string // metric family name (for # TYPE grouping)
	labels string // rendered label set, "" or `{k="v",...}`
	typ    string // "counter" | "gauge" | "histogram"
	value  func() float64
	hist   func() [64]int64
}

// Emit hands a dynamic collector one (name, labels, value) triple per call.
type Emit func(name string, labels Labels, typ string, value float64)

// Registry is the metric catalog. Registration (cold path) appends under a
// mutex; scrapes copy the slice under the same mutex and then evaluate the
// closures lock-free. Subsystems register closures over their existing
// atomics, so a scrape observes live values with zero hot-path cost.
type Registry struct {
	mu         sync.Mutex
	entries    []entry
	collectors []func(Emit)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Gauge registers an instantaneous value read at scrape time.
func (r *Registry) Gauge(name string, labels Labels, fn func() float64) {
	r.register(entry{base: name, labels: labels.render(), typ: "gauge", value: fn})
}

// CounterFunc registers a monotonic value read at scrape time (a closure
// over the owner's atomic counter).
func (r *Registry) CounterFunc(name string, labels Labels, fn func() float64) {
	r.register(entry{base: name, labels: labels.render(), typ: "counter", value: fn})
}

// Histogram registers a log2-bucketed histogram, exported as Prometheus
// cumulative le-buckets plus _count and an approximate _sum (geometric
// bucket midpoints — the same approximation the quantiles use).
func (r *Registry) Histogram(name string, labels Labels, h *Histogram) {
	r.register(entry{base: name, labels: labels.render(), typ: "histogram", hist: h.Counts})
}

// Collector registers a dynamic metric source: fn is invoked per scrape and
// emits any number of samples. Use for sets whose membership changes at
// runtime (per-device plane channels under churn).
func (r *Registry) Collector(fn func(Emit)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

func (r *Registry) register(e entry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.entries = append(r.entries, e)
	r.mu.Unlock()
}

// sample is one evaluated metric instance.
type sample struct {
	base   string
	labels string
	typ    string
	value  float64
	counts [64]int64 // histograms only
}

// snapshot evaluates every registered closure and collector once.
func (r *Registry) snapshot() []sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := make([]entry, len(r.entries))
	copy(entries, r.entries)
	collectors := make([]func(Emit), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	out := make([]sample, 0, len(entries))
	for _, e := range entries {
		s := sample{base: e.base, labels: e.labels, typ: e.typ}
		if e.hist != nil {
			s.counts = e.hist()
		} else {
			s.value = e.value()
		}
		out = append(out, s)
	}
	for _, fn := range collectors {
		fn(func(name string, labels Labels, typ string, value float64) {
			out = append(out, sample{base: name, labels: labels.render(), typ: typ, value: value})
		})
	}
	// Stable exposition: group families together, order instances by label.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].base != out[j].base {
			return out[i].base < out[j].base
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	samples := r.snapshot()
	var b strings.Builder
	lastType := ""
	for _, s := range samples {
		if key := s.base + "\x00" + s.typ; key != lastType {
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.base, s.typ)
			lastType = key
		}
		if s.typ != "histogram" {
			fmt.Fprintf(&b, "%s%s %v\n", s.base, s.labels, s.value)
			continue
		}
		inner := strings.TrimSuffix(strings.TrimPrefix(s.labels, "{"), "}")
		var cum int64
		var sum float64
		for i, c := range s.counts {
			if c == 0 {
				continue
			}
			cum += c
			sum += float64(c) * float64(int64(1)<<uint(i)) * 1.41421356
			fmt.Fprintf(&b, "%s_bucket%s %d\n", s.base, histLabels(inner, fmt.Sprintf("%d", BucketBound(i))), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", s.base, histLabels(inner, "+Inf"), cum)
		fmt.Fprintf(&b, "%s_sum%s %v\n", s.base, s.labels, sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", s.base, s.labels, cum)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func histLabels(inner, le string) string {
	if inner == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return fmt.Sprintf("{%s,le=%q}", inner, le)
}

// WriteJSON renders a flat JSON snapshot: counters/gauges as numbers keyed
// by name+labels, histograms as {count, p50_ns, p99_ns}.
func (r *Registry) WriteJSON(w io.Writer) error {
	samples := r.snapshot()
	flat := make(map[string]any, len(samples))
	for _, s := range samples {
		key := s.base + s.labels
		if s.typ != "histogram" {
			flat[key] = s.value
			continue
		}
		var n int64
		for _, c := range s.counts {
			n += c
		}
		flat[key] = map[string]any{
			"count":  n,
			"p50_ns": QuantileOf(s.counts, 0.50).Nanoseconds(),
			"p99_ns": QuantileOf(s.counts, 0.99).Nanoseconds(),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(flat)
}
