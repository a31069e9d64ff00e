package storage

import (
	"errors"
	"fmt"
	"math"
	"time"

	"octostore/internal/sim"
)

// ErrNoSpace is returned by Reserve when a device cannot fit the requested
// bytes.
var ErrNoSpace = errors.New("storage: device full")

// Direction distinguishes the two independently contended bandwidth pools of
// a device.
type Direction int

const (
	// Read transfers consume read bandwidth.
	Read Direction = iota
	// Write transfers consume write bandwidth.
	Write
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Read {
		return "read"
	}
	return "write"
}

// Device is a single storage device (one memory bank, one SSD, or one HDD)
// with finite capacity and direction-specific bandwidth. Concurrent
// transfers in the same direction share bandwidth equally (processor
// sharing).
type Device struct {
	id    string
	media Media

	capacity int64
	used     int64

	read  pool
	write pool

	bytesRead    int64
	bytesWritten int64
}

// NewDevice creates a device bound to the given engine.
func NewDevice(engine *sim.Engine, id string, media Media, capacity int64, readBW, writeBW float64) *Device {
	if capacity < 0 {
		panic(fmt.Sprintf("storage: negative capacity %d", capacity))
	}
	if readBW <= 0 || writeBW <= 0 {
		panic("storage: bandwidths must be positive")
	}
	d := &Device{id: id, media: media, capacity: capacity}
	d.read.init(engine, readBW)
	d.write.init(engine, writeBW)
	return d
}

// ID returns the device identifier (unique within a cluster).
func (d *Device) ID() string { return d.id }

// Media returns the device's media class.
func (d *Device) Media() Media { return d.media }

// Capacity returns the usable capacity in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

// Used returns the bytes currently reserved on the device.
func (d *Device) Used() int64 { return d.used }

// Free returns the bytes still available for reservation.
func (d *Device) Free() int64 { return d.capacity - d.used }

// Utilization returns Used/Capacity in [0,1]; a zero-capacity device reports
// 1 so placement policies skip it.
func (d *Device) Utilization() float64 {
	if d.capacity == 0 {
		return 1
	}
	return float64(d.used) / float64(d.capacity)
}

// BytesRead returns the cumulative bytes delivered by completed or
// in-progress read transfers.
func (d *Device) BytesRead() int64 { return d.bytesRead }

// BytesWritten returns the cumulative bytes accepted by write transfers.
func (d *Device) BytesWritten() int64 { return d.bytesWritten }

// Active returns the number of in-flight transfers in the given direction.
func (d *Device) Active(dir Direction) int {
	return d.pool(dir).active()
}

// Load is a placement heuristic: the total number of in-flight transfers.
func (d *Device) Load() int { return d.read.active() + d.write.active() }

// Grow raises the device's usable capacity by the given bytes. The sharded
// serving layer uses it to apply quota borrowed from the global tier ledger
// to a shard's view of the device; the simulation core itself never resizes
// devices.
func (d *Device) Grow(bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("storage: negative capacity growth %d", bytes))
	}
	d.capacity += bytes
}

// ShrinkUpTo lowers the device's capacity by up to the given bytes, never
// below the currently reserved bytes, and returns how much was actually
// reclaimed. Quota reconciliation uses it to return unused shard capacity to
// the global pool without ever invalidating a stored replica.
func (d *Device) ShrinkUpTo(bytes int64) int64 {
	if bytes < 0 {
		panic(fmt.Sprintf("storage: negative capacity shrink %d", bytes))
	}
	take := bytes
	if free := d.Free(); take > free {
		take = free
	}
	d.capacity -= take
	return take
}

// Reserve claims space on the device, failing with ErrNoSpace if the bytes
// do not fit. Reservations model stored block replicas.
func (d *Device) Reserve(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("storage: negative reservation %d", bytes)
	}
	if d.used+bytes > d.capacity {
		return fmt.Errorf("%w: %s needs %d, free %d", ErrNoSpace, d.id, bytes, d.Free())
	}
	d.used += bytes
	return nil
}

// Release returns previously reserved space to the device.
func (d *Device) Release(bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("storage: negative release %d", bytes))
	}
	d.used -= bytes
	if d.used < 0 {
		panic(fmt.Sprintf("storage: device %s released more than reserved", d.id))
	}
}

func (d *Device) pool(dir Direction) *pool {
	if dir == Read {
		return &d.read
	}
	return &d.write
}

// Start begins a transfer of the given size and direction; done (optional)
// fires at the simulated completion time. The returned Transfer may be
// cancelled. Zero-byte transfers complete via a zero-delay event so that
// callbacks still run asynchronously with respect to the caller.
func (d *Device) Start(dir Direction, bytes int64, done func()) *Transfer {
	if bytes < 0 {
		panic(fmt.Sprintf("storage: negative transfer %d", bytes))
	}
	if dir == Read {
		d.bytesRead += bytes
	} else {
		d.bytesWritten += bytes
	}
	return d.pool(dir).start(d, bytes, done)
}

// StartRead is shorthand for Start(Read, ...).
func (d *Device) StartRead(bytes int64, done func()) *Transfer {
	return d.Start(Read, bytes, done)
}

// StartWrite is shorthand for Start(Write, ...).
func (d *Device) StartWrite(bytes int64, done func()) *Transfer {
	return d.Start(Write, bytes, done)
}

// EstimateLatency predicts how long a transfer of the given size would take
// if started now, assuming the current contention level stays constant. It
// is used by placement policies; actual transfers may finish earlier or
// later.
func (d *Device) EstimateLatency(dir Direction, bytes int64) time.Duration {
	p := d.pool(dir)
	share := p.bw / float64(p.active()+1)
	return time.Duration(float64(bytes) / share * float64(time.Second))
}

// Transfer is one in-flight I/O operation on a device.
type Transfer struct {
	device    *Device
	pool      *pool
	remaining float64
	done      func()
	finished  bool
	cancelled bool
}

// Done reports whether the transfer completed.
func (t *Transfer) Done() bool { return t.finished }

// Cancel aborts an in-flight transfer; its completion callback will not run.
// Cancelling a finished transfer is a no-op.
func (t *Transfer) Cancel() {
	if t.finished || t.cancelled {
		return
	}
	t.cancelled = true
	t.pool.remove(t)
}

// pool is one direction's processor-sharing bandwidth server.
type pool struct {
	engine      *sim.Engine
	bw          float64 // bytes/second
	transfers   []*Transfer
	lastSettle  time.Time
	next        sim.Event   // the next completion, re-armed on every replan
	complete    func()      // onCompletion, bound once
	finished    []*Transfer // onCompletion's scratch, nil while its callbacks run
	totalServed float64
}

func (p *pool) init(engine *sim.Engine, bw float64) {
	p.engine = engine
	p.bw = bw
	p.lastSettle = engine.Now()
	p.complete = p.onCompletion
}

func (p *pool) active() int { return len(p.transfers) }

// settle advances the remaining byte counts of all active transfers to the
// current virtual time under equal sharing.
func (p *pool) settle() {
	now := p.engine.Now()
	dt := now.Sub(p.lastSettle).Seconds()
	p.lastSettle = now
	n := len(p.transfers)
	if n == 0 || dt <= 0 {
		return
	}
	share := p.bw / float64(n) * dt
	for _, t := range p.transfers {
		t.remaining -= share
		p.totalServed += share
	}
}

const remainderEpsilon = 1e-3 // bytes; tolerate float accumulation error

// reschedule plans the completion event for the transfer closest to
// finishing.
func (p *pool) reschedule() {
	n := len(p.transfers)
	if n == 0 {
		p.next.Cancel()
		return
	}
	minRemaining := p.transfers[0].remaining
	for _, t := range p.transfers[1:] {
		if t.remaining < minRemaining {
			minRemaining = t.remaining
		}
	}
	if minRemaining < 0 {
		minRemaining = 0
	}
	share := p.bw / float64(n)
	// Round the delay up to a whole nanosecond: rounding down can produce a
	// zero-delay event that never advances the clock, so the remaining byte
	// count never settles past the completion threshold.
	delay := time.Duration(math.Ceil(minRemaining / share * float64(time.Second)))
	p.engine.ScheduleEvent(&p.next, delay, p.complete)
}

// onCompletion settles progress and completes every transfer that has
// drained, then replans.
func (p *pool) onCompletion() {
	p.settle()
	// Take the scratch out of the pool while the done callbacks run, so a
	// completion that runs inside one of them cannot overwrite it.
	finished := p.finished[:0]
	p.finished = nil
	old := p.transfers
	live := old[:0]
	for _, t := range old {
		if t.remaining <= remainderEpsilon {
			t.finished = true
			finished = append(finished, t)
		} else {
			live = append(live, t)
		}
	}
	// Clear the stale tail so finished transfers (and everything their done
	// closures capture) become collectable; a burst can push the slice to a
	// high-water mark that would otherwise pin every completed transfer.
	for i := len(live); i < len(old); i++ {
		old[i] = nil
	}
	p.transfers = live
	p.reschedule()
	for _, t := range finished {
		if t.done != nil {
			t.done()
		}
	}
	// Keep a small scratch only: a burst of simultaneous completions (a
	// bulk load) would otherwise pin its high-water mark for the pool's
	// lifetime beside the transfers slice's own.
	if cap(finished) <= maxFinishedScratch {
		clear(finished) // completed transfers must not stay reachable
		p.finished = finished
	}
}

// maxFinishedScratch bounds the completion scratch a pool keeps between
// events. Replay events finish one transfer, rarely up to four; a bulk load
// of equal writes finishes thousands in one event, and keeping that
// capacity would pin it for the pool's lifetime.
const maxFinishedScratch = 16

func (p *pool) start(d *Device, bytes int64, done func()) *Transfer {
	p.settle()
	t := &Transfer{device: d, pool: p, remaining: float64(bytes), done: done}
	p.transfers = append(p.transfers, t)
	p.reschedule()
	return t
}

func (p *pool) remove(t *Transfer) {
	p.settle()
	for i, other := range p.transfers {
		if other == t {
			n := len(p.transfers)
			p.transfers = append(p.transfers[:i], p.transfers[i+1:]...)
			p.transfers[:n][n-1] = nil // drop the stale duplicate slot
			break
		}
	}
	p.reschedule()
}
