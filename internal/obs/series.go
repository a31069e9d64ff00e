package obs

import "time"

// This file is the batched time-series collector for load drivers: a driver
// samples monotonic counter snapshots (total ops, read latency histogram
// buckets) at a fixed wall-clock cadence, and the series turns successive
// snapshots into windowed points — ops/s and read p50/p99 per window — so a
// run's report carries the throughput curve over time instead of one
// end-of-run aggregate. Near saturation that is the difference between
// seeing the knee and averaging it away.
//
// The series is deliberately passive: it owns no goroutine and no clock.
// The driver decides when to sample (typically a ticker) and feeds wall
// times in; everything here is pure bookkeeping, so the same type serves
// tests that feed synthetic timelines.

// SeriesSample is one monotonic counter sample. Counters must be cumulative
// (never reset mid-run); the collector works on deltas between samples.
type SeriesSample struct {
	// Ops is the cumulative operation count.
	Ops int64
	// Read is the cumulative read-latency histogram in the
	// Histogram.Counts bucket layout.
	Read [64]int64
}

// SeriesPoint is one completed window of the time series.
type SeriesPoint struct {
	// EndSeconds is the window's end, in seconds since the collector start.
	EndSeconds float64 `json:"t_seconds"`
	// Ops is the number of operations completed in the window.
	Ops int64 `json:"ops"`
	// OpsPerSec is Ops divided by the window's wall duration.
	OpsPerSec float64 `json:"ops_per_sec"`
	// ReadP50us / ReadP99us are the window's read-latency quantiles in
	// microseconds, from the bucket delta (zero when the window saw no
	// reads).
	ReadP50us float64 `json:"read_p50_us"`
	ReadP99us float64 `json:"read_p99_us"`
}

// Series accumulates windowed points from counter snapshots.
type Series struct {
	start  time.Time
	prev   SeriesSample
	prevAt time.Time
	points []SeriesPoint
}

// NewSeries starts a series at the given wall time with the given
// baseline snapshot (typically all zeros, or the counters as they stand
// when the load phase begins).
func NewSeries(now time.Time, base SeriesSample) *Series {
	return &Series{start: now, prev: base, prevAt: now}
}

// Sample closes the window [prev, now) and appends its point. Samples with
// no elapsed time are ignored.
func (c *Series) Sample(now time.Time, s SeriesSample) {
	dt := now.Sub(c.prevAt).Seconds()
	if dt <= 0 {
		return
	}
	var delta [64]int64
	for i := range delta {
		delta[i] = s.Read[i] - c.prev.Read[i]
	}
	ops := s.Ops - c.prev.Ops
	c.points = append(c.points, SeriesPoint{
		EndSeconds: now.Sub(c.start).Seconds(),
		Ops:        ops,
		OpsPerSec:  float64(ops) / dt,
		ReadP50us:  float64(QuantileOf(delta, 0.50).Nanoseconds()) / 1e3,
		ReadP99us:  float64(QuantileOf(delta, 0.99).Nanoseconds()) / 1e3,
	})
	c.prev, c.prevAt = s, now
}

// Points returns the completed windows in order.
func (c *Series) Points() []SeriesPoint { return c.points }

// PeakOpsPerSec returns the highest windowed throughput — the "peak
// sustained ops/s" a benchmark gate can hold a baseline against (a full
// window at that rate, not an instantaneous burst).
func (c *Series) PeakOpsPerSec() float64 {
	var peak float64
	for _, p := range c.points {
		if p.OpsPerSec > peak {
			peak = p.OpsPerSec
		}
	}
	return peak
}
