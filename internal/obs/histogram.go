// Package obs is the zero-dependency observability plane: a lock-free
// metrics registry every subsystem registers into, sampled per-op spans and
// movement provenance records exported as JSONL, a fixed-size flight
// recorder of recent events dumped on invariant failures, and an HTTP
// endpoint serving Prometheus text, pprof, and a JSON snapshot.
//
// Everything is nil-safe: every method on *Hub, *Registry, *Tracer, and
// *FlightRecorder works on a nil receiver and costs one branch, so the
// serving stack threads a possibly-nil hub through its hot paths without
// guards and the differential suites stay bit-for-bit when disabled.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log2-bucketed latency histogram: bucket i counts
// observations with ceil(log2(ns)) == i, giving ~2x resolution from 1 ns to
// ~9 years in 64 fixed buckets. Concurrent Observe calls are a single
// atomic add, so every client goroutine records into one shared histogram
// without coordination; quantiles are answered from the bucket counts using
// each bucket's geometric midpoint.
type Histogram struct {
	buckets [64]atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	if ns == 0 {
		ns = 1
	}
	h.buckets[bits.Len64(ns)-1].Add(1)
}

// AddFrom accumulates another histogram's buckets into h (used to merge
// per-shard histograms into one report).
func (h *Histogram) AddFrom(o *Histogram) {
	for i := range h.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Counts snapshots the bucket counters; the SLO controller diffs snapshots
// to answer quantiles over a window, and the differential tests compare
// whole histograms bit-for-bit.
func (h *Histogram) Counts() [64]int64 {
	var out [64]int64
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile returns the q-quantile (0..1) as a duration, approximated by the
// geometric midpoint of the bucket containing the rank. Zero when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	return QuantileOf(h.Counts(), q)
}

// QuantileOf answers the q-quantile over an arbitrary bucket-count vector
// in the Histogram.Counts layout — a live snapshot, or a windowed delta of
// two snapshots. The time-series collector (Series) diffs
// successive snapshots and quantiles each window through this.
func QuantileOf(counts [64]int64, q float64) time.Duration {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total-1))
	var seen int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen > rank {
			lo := int64(1) << uint(i)
			// Geometric midpoint of [2^i, 2^(i+1)): lo * sqrt(2).
			return time.Duration(float64(lo) * 1.41421356)
		}
	}
	return 0
}

// BucketBound returns the exclusive upper bound of bucket i in nanoseconds
// (2^(i+1)), the "le" edge the Prometheus exposition uses.
func BucketBound(i int) int64 {
	if i >= 62 {
		return int64(1) << 62
	}
	return int64(1) << uint(i+1)
}
