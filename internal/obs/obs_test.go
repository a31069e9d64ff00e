package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 97; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		h.Observe(100 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d, want 100", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 500*time.Microsecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 %v outside the 1ms bucket", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 50*time.Millisecond {
		t.Fatalf("p99 %v must land in the slow-tail bucket", p99)
	}
	if (&Histogram{}).Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestNilSafety(t *testing.T) {
	// The disabled plane: every call on nil receivers must be a no-op.
	var h *Hub
	if h.SampleOp() {
		t.Fatal("nil hub sampled an op")
	}
	h.EmitSpan(&Span{Op: "access"})
	h.EmitMove(&MoveRecord{Path: "/x"})
	h.EmitEvent(&Event{What: "boom"})
	if err := h.DumpFlight(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, stop, err := h.ListenAndServe(":0"); err != nil {
		t.Fatal(err)
	} else {
		stop()
	}

	r := h.Registry()
	r.Gauge("g", nil, func() float64 { return 1 })
	r.CounterFunc("c", nil, func() float64 { return 1 })
	r.Histogram("h", nil, &Histogram{})
	r.Collector(func(Emit) {})
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}

	var tr *Tracer
	tr.emit(&Event{})
	if tr.Records() != 0 {
		t.Fatal("nil tracer recorded")
	}
	var f *FlightRecorder
	f.add(Event{})
	if f.Len() != 0 {
		t.Fatal("nil flight recorder retained")
	}
}

func TestSampleEvery(t *testing.T) {
	h := NewHub(HubConfig{SampleEvery: 4})
	var sampled int
	for i := 0; i < 100; i++ {
		if h.SampleOp() {
			sampled++
		}
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 at 1-in-4, want 25", sampled)
	}
	all := NewHub(HubConfig{SampleEvery: 1})
	for i := 0; i < 10; i++ {
		if !all.SampleOp() {
			t.Fatal("SampleEvery=1 must sample every op")
		}
	}
}

func TestRegistryPrometheusAndJSON(t *testing.T) {
	r := NewRegistry()
	var g atomic.Int64
	g.Store(7)
	r.Gauge("octo_depth", Labels{"tier": "SSD", "shard": "1"}, func() float64 { return float64(g.Load()) })
	r.CounterFunc("octo_ops_total", nil, func() float64 { return 42 })
	h := &Histogram{}
	h.Observe(time.Millisecond)
	h.Observe(time.Millisecond)
	r.Histogram("octo_read_latency_ns", Labels{"tier": "MEM"}, h)
	r.Collector(func(emit Emit) {
		emit("octo_device_grants_total", Labels{"device": "hdd-0"}, "counter", 3)
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE octo_depth gauge",
		`octo_depth{shard="1",tier="SSD"} 7`,
		"# TYPE octo_ops_total counter",
		"octo_ops_total 42",
		`octo_device_grants_total{device="hdd-0"} 3`,
		`octo_read_latency_ns_bucket{tier="MEM",le="+Inf"} 2`,
		`octo_read_latency_ns_count{tier="MEM"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Histogram le-buckets must be cumulative and bounded by the bucket edge:
	// 1ms lands in [2^19, 2^20), so its le edge is 1048576.
	if !strings.Contains(text, `octo_read_latency_ns_bucket{tier="MEM",le="1048576"} 2`) {
		t.Fatalf("1ms observations missing from the 2^20 ns le bucket:\n%s", text)
	}

	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var flat map[string]any
	if err := json.Unmarshal(buf.Bytes(), &flat); err != nil {
		t.Fatal(err)
	}
	if flat[`octo_depth{shard="1",tier="SSD"}`] != 7.0 {
		t.Fatalf("json gauge: %v", flat)
	}
	hist, ok := flat[`octo_read_latency_ns{tier="MEM"}`].(map[string]any)
	if !ok || hist["count"] != 2.0 {
		t.Fatalf("json histogram: %v", flat)
	}
}

func TestRegistryDeterministicOrder(t *testing.T) {
	// Two registries populated in different orders must render identically.
	build := func(swap bool) string {
		r := NewRegistry()
		a := func() { r.Gauge("octo_a", Labels{"x": "1"}, func() float64 { return 1 }) }
		b := func() { r.Gauge("octo_a", Labels{"x": "0"}, func() float64 { return 2 }) }
		if swap {
			b()
			a()
		} else {
			a()
			b()
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if build(false) != build(true) {
		t.Fatal("exposition depends on registration order")
	}
}

func TestTracerJSONL(t *testing.T) {
	var buf bytes.Buffer
	h := NewHub(HubConfig{SampleEvery: 1, Trace: &buf})
	h.EmitSpan(&Span{Op: "access", Path: "/a", Tier: "MEM", TotalNS: 1200})
	h.EmitMove(&MoveRecord{Path: "/a", From: "SSD", To: "HDD", Policy: "lru", Trigger: "tick", Outcome: "queued"})
	h.EmitEvent(&Event{What: "defer", Detail: "slo breach"})
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if h.Tracer().Records() != 3 {
		t.Fatalf("records %d, want 3", h.Tracer().Records())
	}

	var kinds []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, rec["kind"].(string))
	}
	if strings.Join(kinds, ",") != "span,move,event" {
		t.Fatalf("kinds %v", kinds)
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.add(Event{Kind: "event", What: fmt.Sprintf("e%d", i)})
	}
	if f.Len() != 4 {
		t.Fatalf("len %d, want 4", f.Len())
	}
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("dumped %d lines, want 4", len(lines))
	}
	// Oldest first, retaining the final 4 of 10.
	for i, line := range lines {
		want := fmt.Sprintf("e%d", 6+i)
		if !strings.Contains(line, want) {
			t.Fatalf("line %d = %q, want %s", i, line, want)
		}
	}
}

func TestListenAndServe(t *testing.T) {
	h := NewHub(HubConfig{SampleEvery: 1})
	h.Registry().Gauge("octo_up", nil, func() float64 { return 1 })
	h.EmitSpan(&Span{Op: "access", Path: "/x"})
	addr, stop, err := h.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if !strings.Contains(get("/metrics"), "octo_up 1") {
		t.Fatal("/metrics missing octo_up")
	}
	if !strings.Contains(get("/metrics.json"), `"octo_up": 1`) {
		t.Fatal("/metrics.json missing octo_up")
	}
	if !strings.Contains(get("/flight"), `"path":"/x"`) {
		t.Fatal("/flight missing the span")
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("pprof unreachable: %v", err)
	}
	resp.Body.Close()
}
