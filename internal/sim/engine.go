// Package sim provides a deterministic discrete-event simulation engine and
// the virtual clock that drives every other component in octostore.
//
// All simulation state advances by processing events in timestamp order.
// Components never sleep or consult the wall clock; instead they schedule
// callbacks on an Engine and read the current virtual time from its Now.
// This allows a six-hour cluster workload to be replayed in milliseconds and
// makes every run exactly reproducible for a given seed.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Handler is an event callback carried as a value. A pointer its owner
// already holds (a replica, a block) schedules without allocating, where a
// closure over the same state would cost one allocation per event.
type Handler interface{ Fire() }

// Func adapts a plain callback to Handler.
type Func func()

// Fire implements Handler.
func (f Func) Fire() { f() }

// Event is a re-armable handle for a component timer that must be moved or
// withdrawn after it is set (a device's next completion, a Ticker's next
// tick). ScheduleEvent arms it; arming it again or calling
// Cancel withdraws whatever firing is still pending. The zero value is
// ready to use, and a handle embedded in its owner costs no allocation per
// arming. Callbacks that never need withdrawing go through Schedule.
type Event struct {
	gen uint64
	fn  func() // the pending arming's callback
}

// Cancel prevents the handle's pending firing, if any. Cancelling a handle
// that already fired or was already cancelled is a no-op.
func (e *Event) Cancel() { e.gen++ }

// armed is a handle as the handler of the entry it armed.
type armed Event

// Fire implements Handler.
func (a *armed) Fire() { a.fn() }

// entry is one scheduled callback. Entries fire by (at, seq): virtual time,
// then FIFO among equal times. An entry armed through a handle carries the
// handle (as armed) and the generation it was armed at, never 0, and is
// dropped unfired once the handle moves on.
type entry struct {
	at  int64 // virtual nanoseconds since Epoch
	seq uint64
	h   Handler
	gen uint64 // 0: not armed through a handle
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (a *entry) live() bool { return a.gen == 0 || a.h.(*armed).gen == a.gen }

// eventQueue is a 4-ary min-heap of entries by (at, seq). The wider fan-out
// halves the depth of a binary heap, and entries are values, so a push
// allocates only when the backing array grows.
type eventQueue []entry

func (q *eventQueue) push(x entry) {
	h := append(*q, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	*q = h
}

func (q *eventQueue) pop() entry {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{} // drop the handler so it can be collected
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < c+4 && j < n; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	*q = h
	return top
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; the simulation model is sequential by design (determinism
// is worth more than parallelism at this scale).
type Engine struct {
	now     time.Time
	nowNs   int64 // now as nanoseconds since Epoch
	seq     uint64
	events  eventQueue
	stopped bool
	fired   uint64
	onEvent func()
}

// Epoch is the virtual time at which every new Engine starts. The concrete
// date is arbitrary; only durations matter to the simulation.
var Epoch = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

// NewEngine returns an engine whose clock starts at Epoch.
func NewEngine() *Engine {
	return &Engine{now: Epoch}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// Fired reports how many events have been processed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are currently scheduled (including
// cancelled events that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.events) }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero. The callback cannot be withdrawn; use ScheduleEvent for one that
// may need to be.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	e.ScheduleHandler(delay, funcHandler(fn))
}

// ScheduleAt runs fn at the given virtual time. Times in the past are
// clamped to the current time.
func (e *Engine) ScheduleAt(at time.Time, fn func()) {
	e.ScheduleHandlerAt(at, funcHandler(fn))
}

// ScheduleHandler fires h after delay of virtual time, like Schedule.
func (e *Engine) ScheduleHandler(delay time.Duration, h Handler) {
	e.push(e.after(delay), h, 0)
}

// ScheduleHandlerAt fires h at the given virtual time, like ScheduleAt.
func (e *Engine) ScheduleHandlerAt(at time.Time, h Handler) {
	e.push(max(Nanos(at), e.nowNs), h, 0)
}

// ScheduleEvent arms ev to run fn after delay of virtual time (a negative
// delay is treated as zero), withdrawing any firing ev still has pending.
func (e *Engine) ScheduleEvent(ev *Event, delay time.Duration, fn func()) {
	if fn == nil {
		panic("sim: event scheduled with nil callback")
	}
	ev.gen++
	ev.fn = fn
	e.push(e.after(delay), (*armed)(ev), ev.gen)
}

// funcHandler adapts fn, keeping a nil fn nil so push can refuse it.
func funcHandler(fn func()) Handler {
	if fn == nil {
		return nil
	}
	return Func(fn)
}

// after is the instant delay from now, clamped to [now, the last
// representable instant].
func (e *Engine) after(delay time.Duration) int64 {
	if delay <= 0 {
		return e.nowNs
	}
	if delay > time.Duration(math.MaxInt64-e.nowNs) {
		return math.MaxInt64
	}
	return e.nowNs + int64(delay)
}

func (e *Engine) push(at int64, h Handler, gen uint64) {
	if h == nil {
		panic("sim: event scheduled with nil callback")
	}
	x := entry{at: at, seq: e.seq, h: h, gen: gen}
	e.seq++
	e.events.push(x)
}

// Every schedules fn to run repeatedly with the given period, starting one
// period from now. The returned Ticker can be stopped. A period <= 0 panics.
func (e *Engine) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every called with non-positive period %v", period))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.tick = t.fire
	t.schedule()
	return t
}

// Ticker re-schedules a callback at a fixed virtual period until stopped.
// It re-arms one embedded handle, so ticking allocates nothing.
type Ticker struct {
	engine  *Engine
	period  time.Duration
	fn      func()
	tick    func() // fire, bound once
	next    Event
	stopped bool
}

func (t *Ticker) schedule() { t.engine.ScheduleEvent(&t.next, t.period, t.tick) }

func (t *Ticker) fire() {
	t.fn()
	if !t.stopped {
		t.schedule()
	}
}

// Stop cancels future ticks. It is safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.next.Cancel()
}

// SetEventHook installs fn to run after every fired event, regardless of
// which loop (Step, Run, RunUntil, or a component's private drain loop)
// processed it. The scenario replayer uses it to validate system invariants
// at event boundaries. A nil fn removes the hook. The hook must not schedule
// events or re-enter the engine.
func (e *Engine) SetEventHook(fn func()) { e.onEvent = fn }

// Step processes the single earliest pending event. It reports false when no
// events remain.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		x := e.events.pop()
		if !x.live() {
			continue
		}
		if x.at != e.nowNs {
			e.nowNs = x.at
			e.now = AtNanos(x.at)
		}
		e.fired++
		x.h.Fire()
		if e.onEvent != nil {
			e.onEvent()
		}
		return true
	}
	return false
}

// Run processes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil processes events with timestamps <= deadline and then advances
// the clock to exactly the deadline.
func (e *Engine) RunUntil(deadline time.Time) {
	e.stopped = false
	end := Nanos(deadline)
	for !e.stopped && e.peekLive() && e.events[0].at <= end {
		e.Step()
	}
	if e.nowNs < end {
		e.now, e.nowNs = deadline, end
	}
}

// RunFor is shorthand for RunUntil(Now().Add(d)).
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Stop halts Run/RunUntil after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// peekLive discards cancelled entries from the head of the queue and
// reports whether a live one remains there.
func (e *Engine) peekLive() bool {
	for len(e.events) > 0 {
		if e.events[0].live() {
			return true
		}
		e.events.pop()
	}
	return false
}

// Since returns the virtual duration elapsed since t.
func (e *Engine) Since(t time.Time) time.Duration { return e.now.Sub(t) }

// InfiniteFuture is a timestamp far beyond any simulated horizon, used as a
// sentinel for "no completion scheduled".
var InfiniteFuture = Epoch.Add(time.Duration(math.MaxInt64 / 4))

// Nanos converts a virtual timestamp to nanoseconds since Epoch. Components
// that share state across engines (the storage data plane's per-device
// busy-until horizons) store virtual instants as these integers so they can
// be advanced with atomic operations; time.Time itself is multi-word and
// cannot be read or CASed atomically.
func Nanos(t time.Time) int64 { return t.Sub(Epoch).Nanoseconds() }

// AtNanos is the inverse of Nanos.
func AtNanos(ns int64) time.Time { return Epoch.Add(time.Duration(ns)) }
