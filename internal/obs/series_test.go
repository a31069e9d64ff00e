package obs

import (
	"math"
	"testing"
	"time"
)

// bucketFor places a duration in the Histogram bucket layout.
func bucketFor(d time.Duration) int {
	h := &Histogram{}
	h.Observe(d)
	counts := h.Counts()
	for i, c := range counts {
		if c != 0 {
			return i
		}
	}
	return 0
}

func TestCollectorWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := NewSeries(t0, SeriesSample{})

	// Window 1: 100 ops in 1s, all reads at ~1ms.
	var s1 SeriesSample
	s1.Ops = 100
	s1.Read[bucketFor(time.Millisecond)] = 100
	c.Sample(t0.Add(1*time.Second), s1)

	// Window 2: 300 ops in 2s (150 ops/s), reads split 99 fast / 3 slow —
	// a >1% tail, so the window p99 must land in the slow bucket.
	s2 := s1
	s2.Ops = 400
	s2.Read[bucketFor(time.Millisecond)] += 99
	s2.Read[bucketFor(100*time.Millisecond)] += 3
	c.Sample(t0.Add(3*time.Second), s2)

	pts := c.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].Ops != 100 || math.Abs(pts[0].OpsPerSec-100) > 1e-9 {
		t.Fatalf("window 1: ops=%d rate=%v", pts[0].Ops, pts[0].OpsPerSec)
	}
	if pts[0].EndSeconds != 1 {
		t.Fatalf("window 1 end %v, want 1", pts[0].EndSeconds)
	}
	if pts[1].Ops != 300 || math.Abs(pts[1].OpsPerSec-150) > 1e-9 {
		t.Fatalf("window 2: ops=%d rate=%v", pts[1].Ops, pts[1].OpsPerSec)
	}

	// Window quantiles come from the delta, not the cumulative counts: the
	// second window's p50 must reflect only its own 100 reads, and its p99
	// must land in the slow bucket (1 of 100 at ~100ms).
	wantFast := float64(QuantileOf(deltaOf(time.Millisecond, 1), 0.5).Nanoseconds()) / 1e3
	if pts[1].ReadP50us != wantFast {
		t.Fatalf("window 2 p50 %v, want %v", pts[1].ReadP50us, wantFast)
	}
	wantSlow := float64(QuantileOf(deltaOf(100*time.Millisecond, 1), 0.99).Nanoseconds()) / 1e3
	if pts[1].ReadP99us != wantSlow {
		t.Fatalf("window 2 p99 %v, want %v (slow tail must surface)", pts[1].ReadP99us, wantSlow)
	}

	if peak := c.PeakOpsPerSec(); math.Abs(peak-150) > 1e-9 {
		t.Fatalf("peak %v, want 150", peak)
	}
}

// deltaOf builds a bucket vector holding n observations of d.
func deltaOf(d time.Duration, n int64) [64]int64 {
	var out [64]int64
	out[bucketFor(d)] = n
	return out
}

func TestCollectorZeroWindow(t *testing.T) {
	t0 := time.Unix(0, 0)
	c := NewSeries(t0, SeriesSample{})
	c.Sample(t0, SeriesSample{Ops: 5}) // zero elapsed: ignored
	if len(c.Points()) != 0 {
		t.Fatalf("zero-duration window produced a point")
	}
	if c.PeakOpsPerSec() != 0 {
		t.Fatalf("peak of empty series should be 0")
	}
	// An idle window (no ops, no reads) still yields a point: gaps in the
	// curve are information.
	c.Sample(t0.Add(time.Second), SeriesSample{Ops: 5})
	pts := c.Points()
	if len(pts) != 1 || pts[0].Ops != 5 {
		t.Fatalf("got %+v", pts)
	}
	c.Sample(t0.Add(2*time.Second), SeriesSample{Ops: 5})
	pts = c.Points()
	if len(pts) != 2 || pts[1].Ops != 0 || pts[1].OpsPerSec != 0 || pts[1].ReadP99us != 0 {
		t.Fatalf("idle window: %+v", pts)
	}
}

func TestCollectorEmpty(t *testing.T) {
	c := NewSeries(time.Unix(1000, 0), SeriesSample{})
	if pts := c.Points(); len(pts) != 0 {
		t.Fatalf("fresh collector has points: %+v", pts)
	}
	if peak := c.PeakOpsPerSec(); peak != 0 {
		t.Fatalf("fresh collector peak %v, want 0", peak)
	}
}

func TestCollectorNonMonotonicSamples(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := NewSeries(t0, SeriesSample{})
	c.Sample(t0.Add(time.Second), SeriesSample{Ops: 100})

	// A sample whose wall time runs backwards (clock step, scheduler
	// reordering) must be dropped, not produce a negative-duration window.
	c.Sample(t0.Add(500*time.Millisecond), SeriesSample{Ops: 150})
	pts := c.Points()
	if len(pts) != 1 {
		t.Fatalf("backwards sample produced a point: %+v", pts)
	}

	// The series resumes cleanly from the last accepted sample: the next
	// in-order window covers [1s, 2s) and its delta is against Ops=100.
	c.Sample(t0.Add(2*time.Second), SeriesSample{Ops: 180})
	pts = c.Points()
	if len(pts) != 2 || pts[1].Ops != 80 || math.Abs(pts[1].OpsPerSec-80) > 1e-9 {
		t.Fatalf("post-recovery window: %+v", pts)
	}
	if pts[1].EndSeconds != 2 {
		t.Fatalf("post-recovery end %v, want 2", pts[1].EndSeconds)
	}
}

func TestCollectorPeakSinglePoint(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := NewSeries(t0, SeriesSample{})
	c.Sample(t0.Add(2*time.Second), SeriesSample{Ops: 500})
	if peak := c.PeakOpsPerSec(); math.Abs(peak-250) > 1e-9 {
		t.Fatalf("single-point peak %v, want 250", peak)
	}
}
