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
	// tally, when set, is the running total the device's used and capacity
	// bytes count towards (Track).
	tally *Tally

	// plane and ch are the data-plane channel the device was first attached
	// to (ContendedPlane.Attach). They are set before the device is shared
	// and never change, so any goroutine may read them; bw, the read and
	// write bandwidth indexed by Direction, is set at construction and
	// never changes either (the pools' state is the shard loop's).
	plane *ContendedPlane
	ch    *planeChannel
	bw    [2]float64

	read  pool
	write pool
}

// Tally is a running sum of the used and capacity bytes of the devices that
// track it; a cluster keeps one per media, so its tier usage is two loads.
type Tally struct {
	Used, Capacity int64
}

// Track points the device at t: t takes in the device's bytes now and
// follows every later Reserve, Release, Grow and ShrinkUpTo. Track(nil)
// takes the bytes back out of the device's tally and stops following it.
func (d *Device) Track(t *Tally) {
	if d.tally != nil {
		d.tally.Used -= d.used
		d.tally.Capacity -= d.capacity
	}
	d.tally = t
	if t != nil {
		t.Used += d.used
		t.Capacity += d.capacity
	}
}

// NewDevice creates a device bound to the given engine.
func NewDevice(engine *sim.Engine, id string, media Media, capacity int64, readBW, writeBW float64) *Device {
	if !media.Valid() {
		panic(fmt.Sprintf("storage: invalid media %v", media))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("storage: negative capacity %d", capacity))
	}
	if readBW <= 0 || writeBW <= 0 {
		panic("storage: bandwidths must be positive")
	}
	d := &Device{id: id, media: media, capacity: capacity, bw: [2]float64{Read: readBW, Write: writeBW}}
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
	if d.tally != nil {
		d.tally.Capacity += bytes
	}
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
	if d.tally != nil {
		d.tally.Capacity -= take
	}
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
	if d.tally != nil {
		d.tally.Used += bytes
	}
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
	if d.tally != nil {
		d.tally.Used -= bytes
	}
}

func (d *Device) pool(dir Direction) *pool {
	if dir == Read {
		return &d.read
	}
	return &d.write
}

// Start begins a transfer of the given size and direction; done (optional)
// fires at the simulated completion time. Zero-byte transfers complete via
// a zero-delay event so that callbacks still run asynchronously with respect
// to the caller. A caller that owns the transfer's state passes a pointer to
// it as done; sim.Func adapts a plain callback.
func (d *Device) Start(dir Direction, bytes int64, done sim.Handler) {
	if bytes < 0 {
		panic(fmt.Sprintf("storage: negative transfer %d", bytes))
	}
	d.pool(dir).start(bytes, done)
}

// transfer is one in-flight I/O operation in a pool.
type transfer struct {
	remaining float64
	done      sim.Handler
}

// pool is one direction's processor-sharing bandwidth server.
type pool struct {
	engine     *sim.Engine
	bw         float64 // bytes/second
	transfers  []transfer
	lastSettle time.Time
	next       sim.Event // the next completion, re-armed on every replan
	complete   func()    // onCompletion, bound once
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
	for i := range p.transfers {
		p.transfers[i].remaining -= share
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
// drained, then replans. The finished handlers are collected on the stack
// (an event finishes one transfer, rarely a few), so a completion that runs
// inside one of them has nothing of this one's to overwrite.
func (p *pool) onCompletion() {
	p.settle()
	var buf [4]sim.Handler
	finished := buf[:0]
	old := p.transfers
	live := old[:0]
	for _, t := range old {
		if t.remaining <= remainderEpsilon {
			finished = append(finished, t.done)
		} else {
			live = append(live, t)
		}
	}
	// Clear the stale tail so finished transfers' handlers (and everything
	// they reach) become collectable; a burst can push the
	// slice to a high-water mark that would otherwise pin them.
	clear(old[len(live):])
	p.transfers = live
	p.reschedule()
	for _, done := range finished {
		if done != nil {
			done.Fire()
		}
	}
}

func (p *pool) start(bytes int64, done sim.Handler) {
	p.settle()
	p.transfers = append(p.transfers, transfer{remaining: float64(bytes), done: done})
	p.reschedule()
}
