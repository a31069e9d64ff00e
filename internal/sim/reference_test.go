package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refEngine is the engine as it was before the value-typed queue: a
// container/heap of *refEvent ordered by time.Time, one allocation per
// scheduled callback, cancellation by a dead flag. It is kept only as the
// oracle the differential below holds Engine to.
type refEngine struct {
	now     time.Time
	seq     uint64
	events  refHeap
	fired   uint64
	onEvent func()
}

type refEvent struct {
	at   time.Time
	seq  uint64
	fn   func()
	dead bool
}

func (e *refEvent) Cancel() {
	if e != nil {
		e.dead = true
	}
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func newRefEngine() *refEngine { return &refEngine{now: Epoch} }

func (e *refEngine) Schedule(delay time.Duration, fn func()) *refEvent {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now.Add(delay), fn)
}

func (e *refEngine) ScheduleAt(at time.Time, fn func()) *refEvent {
	if at.Before(e.now) {
		at = e.now
	}
	ev := &refEvent{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

func (e *refEngine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn()
		if e.onEvent != nil {
			e.onEvent()
		}
		return true
	}
	return false
}

func (e *refEngine) RunUntil(deadline time.Time) {
	for {
		next := e.peek()
		if next == nil || next.at.After(deadline) {
			break
		}
		e.Step()
	}
	if e.now.Before(deadline) {
		e.now = deadline
	}
}

func (e *refEngine) peek() *refEvent {
	for len(e.events) > 0 {
		if e.events[0].dead {
			heap.Pop(&e.events)
			continue
		}
		return e.events[0]
	}
	return nil
}

// diffHandles is how many re-armable handles the differential juggles.
const diffHandles = 4

// driven is the surface the differential exercises, on either engine. The
// reference has no re-armable handle, so arm cancels the previous event and
// keeps the new one: the behaviour ScheduleEvent promises.
type driven interface {
	now() time.Time
	fired() uint64
	pending() int
	step() bool
	runUntil(time.Time)
	schedule(time.Duration, func())
	scheduleAt(time.Time, func())
	arm(h int, d time.Duration, fn func())
	cancel(h int)
}

type drivenEngine struct {
	e       *Engine
	handles [diffHandles]Event
}

func (d *drivenEngine) now() time.Time                     { return d.e.Now() }
func (d *drivenEngine) fired() uint64                      { return d.e.Fired() }
func (d *drivenEngine) pending() int                       { return d.e.Pending() }
func (d *drivenEngine) step() bool                         { return d.e.Step() }
func (d *drivenEngine) runUntil(t time.Time)               { d.e.RunUntil(t) }
func (d *drivenEngine) schedule(x time.Duration, f func()) { d.e.Schedule(x, f) }
func (d *drivenEngine) scheduleAt(t time.Time, f func())   { d.e.ScheduleAt(t, f) }
func (d *drivenEngine) arm(h int, x time.Duration, f func()) {
	d.e.ScheduleEvent(&d.handles[h], x, f)
}
func (d *drivenEngine) cancel(h int) { d.handles[h].Cancel() }

type drivenRef struct {
	e       *refEngine
	handles [diffHandles]*refEvent
}

func (d *drivenRef) now() time.Time                     { return d.e.now }
func (d *drivenRef) fired() uint64                      { return d.e.fired }
func (d *drivenRef) pending() int                       { return len(d.e.events) }
func (d *drivenRef) step() bool                         { return d.e.Step() }
func (d *drivenRef) runUntil(t time.Time)               { d.e.RunUntil(t) }
func (d *drivenRef) schedule(x time.Duration, f func()) { d.e.Schedule(x, f) }
func (d *drivenRef) scheduleAt(t time.Time, f func())   { d.e.ScheduleAt(t, f) }
func (d *drivenRef) arm(h int, x time.Duration, f func()) {
	d.handles[h].Cancel()
	d.handles[h] = d.e.Schedule(x, f)
}
func (d *drivenRef) cancel(h int) { d.handles[h].Cancel() }

// diffSide is one engine under the differential plus what its callbacks
// saw. Callback ids are handed out in scheduling order, so two engines that
// agree so far hand out the same ids.
type diffSide struct {
	eng   driven
	log   []int // ids of fired callbacks, in firing order
	ids   int
	hooks int
}

func (s *diffSide) callback() func() {
	id := s.ids
	s.ids++
	return func() {
		s.log = append(s.log, id)
		// Nested scheduling from inside a callback, decided by the id so
		// both engines do the same thing.
		switch id % 6 {
		case 0:
			s.eng.schedule(time.Duration(id%3)*time.Millisecond, s.callback())
		case 1:
			s.eng.arm(id%diffHandles, time.Duration(id%4)*time.Millisecond, s.callback())
		case 2:
			s.eng.cancel(id % diffHandles)
		case 3:
			s.eng.scheduleAt(s.eng.now().Add(time.Duration(id%5-2)*time.Millisecond), s.callback())
		}
	}
}

func (s *diffSide) apply(op, arg byte) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	switch op % 6 {
	case 0:
		s.eng.schedule(ms(int(arg%16)), s.callback())
	case 1: // up to 8 ms in the past
		s.eng.scheduleAt(s.eng.now().Add(ms(int(arg%24)-8)), s.callback())
	case 2:
		s.eng.arm(int(arg)%diffHandles, ms(int(arg)/diffHandles%16), s.callback())
	case 3:
		s.eng.cancel(int(arg) % diffHandles)
	case 4:
		s.eng.step()
	case 5: // deadlines up to 2 ms in the past
		s.eng.runUntil(s.eng.now().Add(ms(int(arg%20) - 2)))
	}
}

func (s *diffSide) differs(o *diffSide) error {
	switch {
	case len(s.log) != len(o.log):
		return fmt.Errorf("fired callbacks %v, reference %v", s.log, o.log)
	case len(s.log) > 0 && s.log[len(s.log)-1] != o.log[len(o.log)-1]:
		return fmt.Errorf("last fired callback %d, reference %d", s.log[len(s.log)-1], o.log[len(o.log)-1])
	case s.eng.now() != o.eng.now():
		return fmt.Errorf("Now %v, reference %v", s.eng.now(), o.eng.now())
	case s.eng.fired() != o.eng.fired():
		return fmt.Errorf("Fired %d, reference %d", s.eng.fired(), o.eng.fired())
	case s.eng.pending() != o.eng.pending():
		return fmt.Errorf("Pending %d, reference %d", s.eng.pending(), o.eng.pending())
	case s.hooks != o.hooks:
		return fmt.Errorf("event hook ran %d times, reference %d", s.hooks, o.hooks)
	}
	return nil
}

// runEngineDiff drives Engine and the reference with the operation stream
// encoded in data (two bytes per operation), then drains both, and fails at
// the first step after which they disagree on the fired callback, Now,
// Fired, Pending or the event hook.
func runEngineDiff(t *testing.T, data []byte) {
	e := NewEngine()
	r := newRefEngine()
	got := &diffSide{eng: &drivenEngine{e: e}}
	want := &diffSide{eng: &drivenRef{e: r}}
	e.SetEventHook(func() { got.hooks++ })
	r.onEvent = func() { want.hooks++ }
	for i := 0; i+1 < len(data); i += 2 {
		got.apply(data[i], data[i+1])
		want.apply(data[i], data[i+1])
		if err := got.differs(want); err != nil {
			t.Fatalf("after op %d (%d %d): %v", i/2, data[i]%6, data[i+1], err)
		}
	}
	for step := 0; ; step++ {
		a, b := got.eng.step(), want.eng.step()
		if a != b {
			t.Fatalf("drain step %d: Step %v, reference %v", step, a, b)
		}
		if err := got.differs(want); err != nil {
			t.Fatalf("drain step %d: %v", step, err)
		}
		if !a {
			return
		}
	}
}

func diffStream(seed int64, ops int) []byte {
	data := make([]byte, 2*ops)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		runEngineDiff(t, diffStream(seed, 400))
	}
}

func FuzzEngine(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(diffStream(seed, 64))
	}
	f.Fuzz(runEngineDiff)
}
