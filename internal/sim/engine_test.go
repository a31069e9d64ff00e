package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtEpoch(t *testing.T) {
	e := NewEngine()
	if !e.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", e.Now(), Epoch)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now().Sub(Epoch) != 3*time.Second {
		t.Fatalf("final time = %v", e.Now().Sub(Epoch))
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	var ev Event
	e.ScheduleEvent(&ev, time.Second, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0: a cancelled event is not counted", e.Fired())
	}
}

func TestCancelIdempotent(t *testing.T) {
	e := NewEngine()
	var ev Event
	e.ScheduleEvent(&ev, time.Second, func() {})
	ev.Cancel()
	ev.Cancel() // must not panic
	e.Run()
	ev.Cancel() // after the queue drained: still a no-op
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
}

// Re-arming a handle whose earlier entry is still queued withdraws that
// entry: only the latest arming fires, at its own time, and the stale entry
// is discarded without being counted or running the event hook.
func TestRearmWithdrawsQueuedEntry(t *testing.T) {
	e := NewEngine()
	hooks := 0
	e.SetEventHook(func() { hooks++ })
	var ev Event
	var got []string
	e.ScheduleEvent(&ev, time.Second, func() { got = append(got, "first") })
	e.ScheduleEvent(&ev, 3*time.Second, func() { got = append(got, "second") })
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 (the stale entry stays queued until popped)", e.Pending())
	}
	e.Run()
	if len(got) != 1 || got[0] != "second" {
		t.Fatalf("fired %v, want [second]", got)
	}
	if e.Now().Sub(Epoch) != 3*time.Second || e.Fired() != 1 || hooks != 1 {
		t.Fatalf("now %v fired %d hooks %d, want 3s 1 1", e.Now().Sub(Epoch), e.Fired(), hooks)
	}
	// A handle re-armed from its own callback fires again.
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 3 {
			e.ScheduleEvent(&ev, time.Second, tick)
		}
	}
	e.ScheduleEvent(&ev, time.Second, tick)
	e.Run()
	if n != 3 {
		t.Fatalf("self re-armed %d times, want 3", n)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-5*time.Second, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event with negative delay did not fire")
	}
	if !e.Now().Equal(Epoch) {
		t.Fatalf("clock moved backwards: %v", e.Now())
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*time.Second, func() {
		e.ScheduleAt(Epoch, func() {}) // in the past
	})
	e.Run()
	if e.Now().Sub(Epoch) != 10*time.Second {
		t.Fatalf("final time = %v", e.Now().Sub(Epoch))
	}
}

func TestRunUntilAdvancesToDeadline(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(time.Second, func() { count++ })
	e.Schedule(time.Hour, func() { count++ })
	e.RunUntil(Epoch.Add(time.Minute))
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if e.Now().Sub(Epoch) != time.Minute {
		t.Fatalf("time = %v, want 1m", e.Now().Sub(Epoch))
	}
	// The far event should still be pending.
	e.Run()
	if count != 2 {
		t.Fatalf("count after Run = %d, want 2", count)
	}
}

func TestRunForRelative(t *testing.T) {
	e := NewEngine()
	e.RunFor(time.Minute)
	e.RunFor(time.Minute)
	if got := e.Now().Sub(Epoch); got != 2*time.Minute {
		t.Fatalf("time = %v, want 2m", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	e.Schedule(time.Second, func() {
		got = append(got, e.Since(Epoch))
		e.Schedule(time.Second, func() {
			got = append(got, e.Since(Epoch))
		})
	})
	e.Run()
	if len(got) != 2 || got[0] != time.Second || got[1] != 2*time.Second {
		t.Fatalf("got %v", got)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	ticks := 0
	tk := e.Every(time.Minute, func() {
		ticks++
		if ticks == 5 {
			e.Stop()
		}
	})
	e.Run()
	tk.Stop()
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if got := e.Since(Epoch); got != 5*time.Minute {
		t.Fatalf("time = %v, want 5m", got)
	}
}

func TestTickerStopPreventsFutureTicks(t *testing.T) {
	e := NewEngine()
	ticks := 0
	tk := e.Every(time.Minute, func() { ticks++ })
	e.Schedule(150*time.Second, func() { tk.Stop() })
	e.RunUntil(Epoch.Add(time.Hour))
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2", ticks)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(time.Second, func() { count++; e.Stop() })
	e.Schedule(2*time.Second, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	e.Run() // resumes
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestFiredAndPendingCounters(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 4; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {})
	}
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", e.Pending())
	}
	e.Run()
	if e.Fired() != 4 {
		t.Fatalf("Fired = %d, want 4", e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

// Property: no matter the (non-negative) delays scheduled, events fire in
// non-decreasing time order and the engine clock never moves backwards.
func TestPropertyMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last time.Time = Epoch
		ok := true
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Millisecond, func() {
				if e.Now().Before(last) {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: scheduling inside callbacks preserves ordering: a callback that
// schedules at +d always runs at parent time + d.
func TestPropertyNestedDelay(t *testing.T) {
	f := func(a, b uint16) bool {
		e := NewEngine()
		da := time.Duration(a) * time.Millisecond
		db := time.Duration(b) * time.Millisecond
		var inner time.Time
		e.Schedule(da, func() {
			parent := e.Now()
			e.Schedule(db, func() { inner = e.Now() })
			_ = parent
		})
		e.Run()
		return inner.Equal(Epoch.Add(da + db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}
