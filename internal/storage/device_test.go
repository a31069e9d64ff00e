package storage

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"octostore/internal/sim"
)

func newTestDevice(e *sim.Engine) *Device {
	// 100 bytes/second both ways makes arithmetic easy to follow.
	return NewDevice(e, "hdd-0", HDD, 1000, 100, 100)
}

func TestMediaOrdering(t *testing.T) {
	if !Memory.Higher(SSD) || !SSD.Higher(HDD) {
		t.Fatal("tier ordering broken")
	}
	if !HDD.Lower(SSD) || !SSD.Lower(Memory) {
		t.Fatal("Lower ordering broken")
	}
	if below, ok := Memory.Below(); !ok || below != SSD {
		t.Fatalf("Memory.Below() = %v, %v", below, ok)
	}
	if _, ok := HDD.Below(); ok {
		t.Fatal("HDD.Below() should not exist")
	}
	if above, ok := HDD.Above(); !ok || above != SSD {
		t.Fatalf("HDD.Above() = %v, %v", above, ok)
	}
	if _, ok := Memory.Above(); ok {
		t.Fatal("Memory.Above() should not exist")
	}
}

func TestMediaString(t *testing.T) {
	if Memory.String() != "MEM" || SSD.String() != "SSD" || HDD.String() != "HDD" {
		t.Fatal("unexpected media strings")
	}
	if !Memory.Valid() || Media(99).Valid() {
		t.Fatal("Valid() broken")
	}
}

func TestReserveRelease(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	if err := d.Reserve(600); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 600 || d.Free() != 400 {
		t.Fatalf("used=%d free=%d", d.Used(), d.Free())
	}
	if err := d.Reserve(500); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-reserve error = %v, want ErrNoSpace", err)
	}
	d.Release(600)
	if d.Used() != 0 {
		t.Fatalf("used=%d after release", d.Used())
	}
	if got := d.Utilization(); got != 0 {
		t.Fatalf("utilization = %v", got)
	}
}

func TestReleaseTooMuchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := sim.NewEngine()
	d := newTestDevice(e)
	d.Release(1)
}

// TestNewDeviceRejectsInvalidMedia: a device's media selects its row of
// the media table, so NewDevice refuses one outside it.
func TestNewDeviceRejectsInvalidMedia(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDevice(sim.NewEngine(), "bad", numMedia, GB, 1, 1)
}

func TestSingleTransferLatency(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	var doneAt time.Time
	d.Start(Read, 200, sim.Func(func() { doneAt = e.Now() }))
	e.Run()
	want := sim.Epoch.Add(2 * time.Second) // 200 bytes at 100 B/s
	if !doneAt.Equal(want) {
		t.Fatalf("done at %v, want %v", doneAt.Sub(sim.Epoch), want.Sub(sim.Epoch))
	}
}

func TestProcessorSharingTwoEqualTransfers(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	var t1, t2 time.Time
	d.Start(Read, 100, sim.Func(func() { t1 = e.Now() }))
	d.Start(Read, 100, sim.Func(func() { t2 = e.Now() }))
	e.Run()
	// Both share 100 B/s, so each effectively gets 50 B/s: 2 s for 100 B.
	want := sim.Epoch.Add(2 * time.Second)
	if !t1.Equal(want) || !t2.Equal(want) {
		t.Fatalf("t1=%v t2=%v, want both %v", t1.Sub(sim.Epoch), t2.Sub(sim.Epoch), want.Sub(sim.Epoch))
	}
}

func TestProcessorSharingStaggeredArrival(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	var t1, t2 time.Time
	d.Start(Read, 100, sim.Func(func() { t1 = e.Now() }))
	e.Schedule(500*time.Millisecond, func() {
		d.Start(Read, 100, sim.Func(func() { t2 = e.Now() }))
	})
	e.Run()
	// T1: 50 B alone in 0.5 s, then shares; 50 B left at 50 B/s = 1 s more.
	// T1 finishes at 1.5 s. T2 then runs alone: at 1.5 s it has transferred
	// 50 B, 50 B left at 100 B/s = 0.5 s. T2 finishes at 2.0 s.
	if got := t1.Sub(sim.Epoch); got != 1500*time.Millisecond {
		t.Fatalf("t1 = %v, want 1.5s", got)
	}
	if got := t2.Sub(sim.Epoch); got != 2*time.Second {
		t.Fatalf("t2 = %v, want 2s", got)
	}
}

func TestReadsAndWritesDoNotContend(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	var tr, tw time.Time
	d.Start(Read, 100, sim.Func(func() { tr = e.Now() }))
	d.Start(Write, 100, sim.Func(func() { tw = e.Now() }))
	e.Run()
	want := sim.Epoch.Add(time.Second)
	if !tr.Equal(want) || !tw.Equal(want) {
		t.Fatalf("read=%v write=%v, want both 1s", tr.Sub(sim.Epoch), tw.Sub(sim.Epoch))
	}
}

func TestZeroByteTransferCompletes(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	done := false
	d.Start(Write, 0, sim.Func(func() { done = true }))
	e.Run()
	if !done {
		t.Fatal("zero-byte transfer never completed")
	}
	if !e.Now().Equal(sim.Epoch) {
		t.Fatalf("zero-byte transfer advanced time to %v", e.Now())
	}
}

// A done callback that runs the engine on makes the pool complete more
// transfers inside its own completion; each callback must still fire
// exactly once.
func TestCompletionInsideCallback(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	d.Start(Read, 100, nil) // two transfers finish in one completion first
	d.Start(Read, 100, nil)
	e.Run()
	calls := make([]int, 4)
	d.Start(Read, 100, sim.Func(func() { calls[0]++; e.Run() }))
	d.Start(Read, 100, sim.Func(func() { calls[1]++ }))
	d.Start(Read, 300, sim.Func(func() { calls[2]++ }))
	d.Start(Read, 300, sim.Func(func() { calls[3]++ }))
	e.Run()
	for i, n := range calls {
		if n != 1 {
			t.Fatalf("transfer %d completed %d times, want once (all: %v)", i, n, calls)
		}
	}
}

// One write through a pool: start, its completion event, the callback.
// It must allocate nothing: the pool holds transfers by value and the
// completion collects finished callbacks on the stack.
func BenchmarkTransferCompletion(b *testing.B) {
	e := sim.NewEngine()
	d := NewDevice(e, "ssd-0", SSD, 1<<40, 1<<30, 1<<30)
	done := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Start(Write, 4096, sim.Func(done))
		e.Run()
	}
}

func TestActiveAndLoad(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	d.Start(Read, 1000, nil)
	d.Start(Write, 1000, nil)
	if d.Active(Read) != 1 || d.Active(Write) != 1 || d.Load() != 2 {
		t.Fatalf("active read=%d write=%d load=%d", d.Active(Read), d.Active(Write), d.Load())
	}
	e.Run()
	if d.Load() != 0 {
		t.Fatalf("load=%d after drain", d.Load())
	}
}

func TestNodeSpecTotalCapacity(t *testing.T) {
	spec := PaperWorkerSpec()
	if got := spec.TotalCapacity(Memory); got != 4*GB {
		t.Fatalf("memory capacity = %d", got)
	}
	if got := spec.TotalCapacity(HDD); got != 3*134*GB {
		t.Fatalf("hdd capacity = %d", got)
	}
}

// TestPaperMediaKeepsTheTestbedNumbers pins the constructors built on the
// one paper-media bandwidth table to the literals they replaced.
func TestPaperMediaKeepsTheTestbedNumbers(t *testing.T) {
	for _, c := range []struct {
		name string
		got  NodeSpec
		want NodeSpec
	}{
		{"PaperWorkerSpec", PaperWorkerSpec(), NodeSpec{
			{Media: Memory, Capacity: 4 * GB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
			{Media: SSD, Capacity: 64 * GB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
			{Media: HDD, Capacity: 134 * GB, ReadBW: 160e6, WriteBW: 140e6, Count: 3},
		}},
		{"SmallWorkerSpec", SmallWorkerSpec(), NodeSpec{
			{Media: Memory, Capacity: 64 * MB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
			{Media: SSD, Capacity: 256 * MB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
			{Media: HDD, Capacity: 1 * GB, ReadBW: 160e6, WriteBW: 140e6, Count: 1},
		}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s = %+v, want %+v", c.name, c.got, c.want)
		}
	}
	want := [3]TierProfile{
		Memory: {BaseLatency: 50 * time.Microsecond, ReadBW: 4000e6, WriteBW: 3000e6},
		SSD:    {BaseLatency: 200 * time.Microsecond, ReadBW: 500e6, WriteBW: 400e6},
		HDD:    {BaseLatency: 6 * time.Millisecond, ReadBW: 160e6, WriteBW: 140e6},
	}
	if got := DefaultTierProfiles(); got != want {
		t.Errorf("DefaultTierProfiles = %+v, want %+v", got, want)
	}
}

// Property: total served bytes equal the sum of all completed transfer sizes
// regardless of arrival pattern (conservation of work).
func TestPropertyWorkConservation(t *testing.T) {
	f := func(sizes []uint16, gaps []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		e := sim.NewEngine()
		d := NewDevice(e, "d", SSD, 1<<40, 1000, 1000)
		var total, completed int64
		at := time.Duration(0)
		for i, s := range sizes {
			size := int64(s)
			total += size
			if i < len(gaps) {
				at += time.Duration(gaps[i]) * time.Millisecond
			}
			e.Schedule(at, func() {
				d.Start(Read, size, sim.Func(func() { completed += size }))
			})
		}
		e.Run()
		return completed == total && d.Active(Read) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: under pure processor sharing, n equal transfers started together
// all complete at n * (size/bw).
func TestPropertyEqualSharing(t *testing.T) {
	f := func(nRaw uint8, sizeRaw uint16) bool {
		n := int(nRaw%8) + 1
		size := int64(sizeRaw) + 1
		e := sim.NewEngine()
		d := NewDevice(e, "d", SSD, 1<<40, 1000, 1000)
		var finishes []time.Time
		for i := 0; i < n; i++ {
			d.Start(Read, size, sim.Func(func() { finishes = append(finishes, e.Now()) }))
		}
		e.Run()
		want := float64(n) * float64(size) / 1000.0
		for _, ft := range finishes {
			got := ft.Sub(sim.Epoch).Seconds()
			if math.Abs(got-want) > 1e-6*want+1e-9 {
				return false
			}
		}
		return len(finishes) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDeviceTransferChurn(b *testing.B) {
	e := sim.NewEngine()
	d := NewDevice(e, "d", SSD, 1<<40, 500e6, 500e6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Start(Read, int64(128*MB), nil)
		if i%32 == 31 {
			e.Run()
		}
	}
	e.Run()
}
