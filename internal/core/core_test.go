package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// env bundles a small Octopus++ test system.
type env struct {
	engine *sim.Engine
	fs     *dfs.FileSystem
	ctx    *Context
}

func newEnv(t testing.TB, mode dfs.Mode) *env {
	t.Helper()
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{
		Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec(),
	})
	fs := dfs.MustNew(c, dfs.Config{Mode: mode, BlockSize: 16 * storage.MB, Seed: 3})
	cfg := DefaultConfig()
	cfg.PeriodicInterval = 30 * time.Second
	return &env{engine: e, fs: fs, ctx: NewContext(fs, cfg)}
}

func (ev *env) create(t testing.TB, path string, size int64) *dfs.File {
	t.Helper()
	var file *dfs.File
	var ferr error
	ev.fs.Create(path, size, func(f *dfs.File, err error) { file, ferr = f, err })
	ev.engine.Run()
	if ferr != nil {
		t.Fatalf("create %s: %v", path, ferr)
	}
	return file
}

// lruStub is a minimal downgrade policy for manager tests: watermark
// thresholds, LRU selection, default target.
type lruStub struct {
	NopCallbacks
	ctx     *Context
	selects int
}

func (p *lruStub) Name() string { return "stub-lru" }
func (p *lruStub) StartDowngrade(tier storage.Media) bool {
	return p.ctx.AboveHighWatermark(tier)
}
func (p *lruStub) StopDowngrade(tier storage.Media) bool {
	return p.ctx.BelowLowWatermark(tier)
}
func (p *lruStub) SelectFile(tier storage.Media) *dfs.File {
	p.selects++
	files := p.ctx.LRUFilesInto(nil, tier, 0)
	if len(files) == 0 {
		return nil
	}
	return files[0]
}
func (p *lruStub) SelectTargetTier(f *dfs.File, from storage.Media) (storage.Media, bool) {
	to, ok := p.ctx.DefaultDowngradeTier(f, from)
	if !ok {
		return 0, true
	}
	return to, false
}

// osaStub upgrades every accessed non-memory file.
type osaStub struct {
	NopCallbacks
	ctx     *Context
	pending *dfs.File
}

func (p *osaStub) Name() string { return "stub-osa" }
func (p *osaStub) StartUpgrade(accessed *dfs.File) bool {
	if accessed == nil || accessed.HasReplicaOn(storage.Memory) {
		return false
	}
	p.pending = accessed
	return true
}
func (p *osaStub) SelectFile() *dfs.File {
	f := p.pending
	p.pending = nil
	return f
}
func (p *osaStub) SelectTargetTier(f *dfs.File, from storage.Media) (storage.Media, bool) {
	return p.ctx.DefaultUpgradeTier(f, from)
}
func (p *osaStub) StopUpgrade() bool { return p.pending == nil }

func TestContextRecordAndTouch(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	NewManager(ev.ctx, nil, nil)
	f := ev.create(t, "/f", 16*storage.MB)
	rec := ev.ctx.Record(f)
	if rec.Size != f.Size() {
		t.Fatalf("record size = %d", rec.Size)
	}
	if got := ev.ctx.LastTouch(f); !got.Equal(f.Created()) {
		t.Fatalf("LastTouch before access = %v", got)
	}
	ev.engine.RunFor(time.Minute)
	ev.fs.RecordAccess(f)
	if got := ev.ctx.LastTouch(f); !got.Equal(ev.engine.Now()) {
		t.Fatalf("LastTouch after access = %v, now = %v", got, ev.engine.Now())
	}
	if ev.ctx.AccessCount(f) != 1 {
		t.Fatalf("AccessCount = %d", ev.ctx.AccessCount(f))
	}
}

func TestEligibleFilesFiltersTierAndBusy(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	m := NewManager(ev.ctx, nil, nil)
	f1 := ev.create(t, "/f1", 16*storage.MB)
	f2 := ev.create(t, "/f2", 16*storage.MB)
	elig := ev.ctx.EligibleFiles(storage.Memory)
	if len(elig) != 2 {
		t.Fatalf("eligible = %d, want 2", len(elig))
	}
	m.busy[f1.ID()] = true
	elig = ev.ctx.EligibleFiles(storage.Memory)
	if len(elig) != 1 || elig[0] != f2 {
		t.Fatalf("eligible after busy = %v", elig)
	}
}

func TestLRUFilesOrdering(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	NewManager(ev.ctx, nil, nil)
	f1 := ev.create(t, "/f1", 16*storage.MB)
	f2 := ev.create(t, "/f2", 16*storage.MB)
	ev.engine.RunFor(time.Minute)
	ev.fs.RecordAccess(f1) // f1 now most recently used
	files := ev.ctx.LRUFilesInto(nil, storage.Memory, 0)
	if len(files) != 2 || files[0] != f2 || files[1] != f1 {
		t.Fatalf("LRU order wrong")
	}
	if got := ev.ctx.LRUFilesInto(nil, storage.Memory, 1); len(got) != 1 || got[0] != f2 {
		t.Fatal("k truncation wrong")
	}
}

func TestUpgradeCandidatesExcludeMemoryResident(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	NewManager(ev.ctx, nil, nil)
	f := ev.create(t, "/f", 16*storage.MB)
	if got := ev.ctx.UpgradeCandidatesInto(nil, 10); len(got) != 0 {
		t.Fatalf("memory-resident file offered for upgrade: %v", got)
	}
	if err := ev.fs.DeleteFileReplicas(f, storage.Memory); err != nil {
		t.Fatal(err)
	}
	got := ev.ctx.UpgradeCandidatesInto(nil, 10)
	if len(got) != 1 || got[0] != f {
		t.Fatalf("UpgradeCandidates = %v", got)
	}
}

func TestManagerDowngradesWhenTierFills(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	down := &lruStub{ctx: ev.ctx}
	m := NewManager(ev.ctx, down, nil)
	// Memory: 3 nodes x 64 MB = 192 MB. Each 16 MB file puts 16 MB in
	// memory. Write 12 files => 192 MB => 100% without downgrades.
	for i := 0; i < 12; i++ {
		ev.create(t, pathN(i), 16*storage.MB)
		ev.engine.Run()
	}
	if got := ev.fs.TierUtilization(storage.Memory); got > 0.90 {
		t.Fatalf("memory still at %.2f; manager failed to downgrade", got)
	}
	if m.Metrics().DowngradesScheduled == 0 {
		t.Fatal("no downgrades recorded")
	}
	if ev.fs.Stats().BytesDowngradedTo[storage.SSD] == 0 {
		t.Fatal("no bytes downgraded to SSD")
	}
}

func pathN(i int) string {
	return "/files/f" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func TestManagerUpgradeOnAccess(t *testing.T) {
	ev := newEnv(t, dfs.ModePinnedHDD)
	up := &osaStub{ctx: ev.ctx}
	m := NewManager(ev.ctx, nil, up)
	f := ev.create(t, "/f", 16*storage.MB)
	ev.fs.RecordAccess(f)
	ev.engine.Run()
	if !f.HasReplicaOn(storage.Memory) {
		t.Fatal("accessed file not upgraded to memory")
	}
	if m.Metrics().UpgradesScheduled != 1 {
		t.Fatalf("upgrades = %d", m.Metrics().UpgradesScheduled)
	}
	// A second access must not double-upgrade.
	ev.fs.RecordAccess(f)
	ev.engine.Run()
	if m.Metrics().UpgradesScheduled != 1 {
		t.Fatal("upgraded a memory-resident file")
	}
}

func TestManagerPeriodicTick(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	down := &lruStub{ctx: ev.ctx}
	m := NewManager(ev.ctx, down, nil)
	m.Start()
	ev.engine.RunFor(5 * time.Minute)
	if m.Metrics().Ticks < 9 {
		t.Fatalf("ticks = %d, want ~10", m.Metrics().Ticks)
	}
	m.Stop()
	before := m.Metrics().Ticks
	ev.engine.RunFor(5 * time.Minute)
	if m.Metrics().Ticks != before {
		t.Fatal("ticks continued after Stop")
	}
	m.Start()
	ev.engine.RunFor(time.Minute)
	if m.Metrics().Ticks == before {
		t.Fatal("restart did not resume ticks")
	}
}

func TestManagerTracksDeletes(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	NewManager(ev.ctx, nil, nil)
	f := ev.create(t, "/f", 16*storage.MB)
	if ev.ctx.Tracker.Len() != 1 {
		t.Fatalf("tracker len = %d", ev.ctx.Tracker.Len())
	}
	if err := ev.fs.Delete(f); err != nil {
		t.Fatal(err)
	}
	if ev.ctx.Tracker.Len() != 0 {
		t.Fatal("tracker retains deleted file")
	}
}

func TestMonitorConcurrencyLimit(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	NewManager(ev.ctx, nil, nil) // busy bookkeeping not needed here
	mo := NewMonitor(ev.fs, 1, 0)
	f1 := ev.create(t, "/f1", 16*storage.MB)
	f2 := ev.create(t, "/f2", 16*storage.MB)
	var done int
	mo.Enqueue(MoveRequest{File: f1, From: storage.Memory, To: storage.SSD, Done: func(err error) {
		if err != nil {
			t.Errorf("move f1: %v", err)
		}
		done++
	}})
	mo.Enqueue(MoveRequest{File: f2, From: storage.Memory, To: storage.SSD, Done: func(err error) {
		if err != nil {
			t.Errorf("move f2: %v", err)
		}
		done++
	}})
	if mo.Active() != 1 || mo.QueueLen() != 1 {
		t.Fatalf("active=%d queue=%d, want 1/1", mo.Active(), mo.QueueLen())
	}
	ev.engine.Run()
	if done != 2 || mo.MovesDone() != 2 {
		t.Fatalf("done=%d movesDone=%d", done, mo.MovesDone())
	}
}

func TestMonitorFailedMoveReported(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	mo := NewMonitor(ev.fs, 2, 0)
	f := ev.create(t, "/f", 16*storage.MB)
	var gotErr error
	// Moving from a tier with no replica fails synchronously.
	if err := ev.fs.DeleteFileReplicas(f, storage.SSD); err != nil {
		t.Fatal(err)
	}
	mo.Enqueue(MoveRequest{File: f, From: storage.SSD, To: storage.HDD, Done: func(err error) { gotErr = err }})
	ev.engine.Run() // the move begins after the (zero) command latency
	if gotErr == nil {
		t.Fatal("failed move not reported")
	}
	if mo.MovesFailed() != 1 {
		t.Fatalf("movesFailed = %d", mo.MovesFailed())
	}
}

// A move that starts but cannot commit — its destination node leaves the
// cluster mid-transfer — is a failed move, not a done one.
func TestMonitorBooksNodeLossAsFailure(t *testing.T) {
	ev := newEnv(t, dfs.ModePinnedHDD)
	mo := NewMonitor(ev.fs, 2, 0)
	f := ev.create(t, "/f", 16*storage.MB)
	// Memory is full on the node the move reads from, so the replica has to
	// leave it for another node.
	src := f.Blocks()[0].ReplicaOn(storage.HDD).Node()
	for _, d := range src.Devices(storage.Memory) {
		if err := d.Reserve(d.Free()); err != nil {
			t.Fatal(err)
		}
	}
	var gotErr error
	mo.Enqueue(MoveRequest{File: f, From: storage.HDD, To: storage.Memory, Done: func(err error) { gotErr = err }})
	var lost *cluster.Node
	ev.engine.Schedule(time.Millisecond, func() {
		for _, n := range ev.fs.Cluster().Nodes() {
			for _, d := range n.Devices(storage.Memory) {
				if n != src && d.Used() > 0 {
					lost = n
				}
			}
		}
		if lost != nil {
			ev.fs.FailNode(lost)
		}
	})
	ev.engine.Run()
	if lost == nil {
		t.Fatal("no move in flight to another node")
	}
	if !errors.Is(gotErr, dfs.ErrNodeGone) {
		t.Fatalf("Done got %v, want ErrNodeGone", gotErr)
	}
	if mo.MovesDone() != 0 || mo.MovesFailed() != 1 {
		t.Fatalf("movesDone=%d movesFailed=%d, want 0/1", mo.MovesDone(), mo.MovesFailed())
	}
	if !f.HasReplicaOn(storage.HDD) || f.HasReplicaOn(storage.Memory) {
		t.Fatal("the replica did not stay at its source")
	}
}

func TestMonitorRepairsUnderReplication(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	mo := NewMonitor(ev.fs, 2, 0)
	f := ev.create(t, "/f", 16*storage.MB)
	if err := ev.fs.DeleteFileReplicas(f, storage.HDD); err != nil {
		t.Fatal(err)
	}
	if n := mo.CheckReplication(); n != 1 {
		t.Fatalf("repairs initiated = %d", n)
	}
	ev.engine.Run()
	if !f.HasReplicaOn(storage.HDD) {
		t.Fatal("repair did not restore the HDD replica")
	}
	if got := f.Blocks()[0].ReadableReplicas(); got != 3 {
		t.Fatalf("replicas after repair = %d", got)
	}
}

func TestEffectiveUtilizationAccountsPendingReleases(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	down := &lruStub{ctx: ev.ctx}
	m := NewManager(ev.ctx, down, nil)
	for i := 0; i < 11; i++ {
		ev.create(t, pathN(i), 16*storage.MB)
	}
	// Trigger a downgrade cycle manually while moves are in flight.
	m.runDowngrade(storage.Memory, "test")
	raw := ev.fs.TierUtilization(storage.Memory)
	eff := ev.ctx.EffectiveUtilization(storage.Memory)
	if eff > raw {
		t.Fatalf("effective %v > raw %v", eff, raw)
	}
	ev.engine.Run()
	if got := ev.ctx.EffectiveUtilization(storage.Memory); got != ev.fs.TierUtilization(storage.Memory) {
		t.Fatalf("after drain: eff %v != raw %v", got, ev.fs.TierUtilization(storage.Memory))
	}
}

func TestDefaultDowngradeTierPrefersNextLower(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	NewManager(ev.ctx, nil, nil)
	f := ev.create(t, "/f", 16*storage.MB)
	to, ok := ev.ctx.DefaultDowngradeTier(f, storage.Memory)
	if !ok || to != storage.SSD {
		t.Fatalf("DefaultDowngradeTier = %v, %v", to, ok)
	}
	// Fill SSD: next choice is HDD.
	for _, n := range ev.fs.Cluster().Nodes() {
		for _, d := range n.Devices(storage.SSD) {
			if err := d.Reserve(d.Free()); err != nil {
				t.Fatal(err)
			}
		}
	}
	to, ok = ev.ctx.DefaultDowngradeTier(f, storage.Memory)
	if !ok || to != storage.HDD {
		t.Fatalf("with full SSD: %v, %v", to, ok)
	}
}

func TestDefaultUpgradeTierMemoryOnly(t *testing.T) {
	ev := newEnv(t, dfs.ModePinnedHDD)
	NewManager(ev.ctx, nil, nil)
	f := ev.create(t, "/f", 16*storage.MB)
	to, ok := ev.ctx.DefaultUpgradeTier(f, storage.HDD)
	if !ok || to != storage.Memory {
		t.Fatalf("DefaultUpgradeTier = %v, %v", to, ok)
	}
	for _, n := range ev.fs.Cluster().Nodes() {
		for _, d := range n.Devices(storage.Memory) {
			if err := d.Reserve(d.Free()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, ok := ev.ctx.DefaultUpgradeTier(f, storage.HDD); ok {
		t.Fatal("upgrade offered into a full memory tier")
	}
}

func TestCooldownAfterFailedMove(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	down := &lruStub{ctx: ev.ctx}
	m := NewManager(ev.ctx, down, nil)
	f := ev.create(t, "/f", 16*storage.MB)
	// Fill SSD and HDD so every downgrade target fails.
	for _, n := range ev.fs.Cluster().Nodes() {
		for _, media := range []storage.Media{storage.SSD, storage.HDD} {
			for _, d := range n.Devices(media) {
				if err := d.Reserve(d.Free()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	m.scheduleDowngrade(f, storage.Memory, storage.SSD, "test")
	ev.engine.Run()
	if m.Metrics().DowngradeErrors != 1 {
		t.Fatalf("downgrade errors = %d", m.Metrics().DowngradeErrors)
	}
	if !m.inCooldown(f) {
		t.Fatal("failed file not in cooldown")
	}
	if got := ev.ctx.EligibleFiles(storage.Memory); len(got) != 0 {
		t.Fatal("cooldown file still eligible")
	}
	ev.engine.RunFor(2 * failureCooldown)
	if m.inCooldown(f) {
		t.Fatal("cooldown never expires")
	}
}

// halving is a Decay for tests: a weight halves every life of idle time.
type halving struct{ life time.Duration }

func (h halving) Bump(stored float64, idle time.Duration) float64 { return 1 + h.Decayed(stored, idle) }
func (h halving) Decayed(stored float64, idle time.Duration) float64 {
	return stored * math.Exp2(-idle.Seconds()/h.life.Seconds())
}

// However many policies ask, the context keeps one statistic per formula and
// parameter and one weight heap per tier for it.
func TestDecayedWeightOnePerFormula(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	w := ev.ctx.DecayedWeight(halving{time.Hour})
	w.RequireOrder()
	again := ev.ctx.DecayedWeight(halving{time.Hour})
	again.RequireOrder()
	if again != w || len(ev.ctx.weights) != 1 || len(ev.ctx.index.heaps) != 3 {
		t.Fatalf("two requests for one formula: same instance %v, %d statistics, %d heaps; want one statistic over 3 heaps",
			again == w, len(ev.ctx.weights), len(ev.ctx.index.heaps))
	}
	other := ev.ctx.DecayedWeight(halving{time.Minute})
	other.RequireOrder()
	if other == w || len(ev.ctx.weights) != 2 || len(ev.ctx.index.heaps) != 6 {
		t.Fatalf("another parameter: same instance %v, %d statistics, %d heaps; want 2 statistics over 6 heaps",
			other == w, len(ev.ctx.weights), len(ev.ctx.index.heaps))
	}
}

// formula1 and formula2 are the two decays of Section 5.2 (LRFU's and EXD's)
// as test doubles: internal/policy owns the real ones and cannot be imported
// from here.
type formula1 struct{ halfLife time.Duration }

func (d formula1) Bump(w float64, idle time.Duration) float64 { return 1 + d.Decayed(w, idle) }
func (d formula1) Decayed(w float64, idle time.Duration) float64 {
	return d.halfLife.Seconds() * w / (idle.Seconds() + d.halfLife.Seconds())
}

type formula2 struct{ alpha float64 }

func (d formula2) Bump(w float64, idle time.Duration) float64 { return 1 + d.Decayed(w, idle) }
func (d formula2) Decayed(w float64, idle time.Duration) float64 {
	return w * math.Exp(-d.alpha*float64(idle.Milliseconds()))
}

// One notification of n accesses leaves every statistic where n single
// accesses at the same instant leave it: the tracker's count and last touch,
// the recency (LRU), frequency (LFU) and upgrade-MRU heap keys, and the
// LRFU- and EXD-style decayed weights with their heap keys. Counts and times
// are equal exactly; weights to rounding, because n-1 additions of 1 are
// booked as one addition of n-1 — and exactly while every n was 1, the path
// every fenced replay takes.
func TestRecordAccessNEqualsNRecordAccesses(t *testing.T) {
	decays := []Decay{formula1{time.Hour}, formula2{1.16e-8}, halving{time.Hour}}
	build := func() (*env, []*dfs.File) {
		ev := newEnv(t, dfs.ModeOctopus)
		ev.ctx.index.RequireRecency()
		ev.ctx.index.RequireFrequency()
		ev.ctx.index.RequireUpgradeMRU()
		for _, d := range decays {
			ev.ctx.DecayedWeight(d).RequireOrder()
		}
		var files []*dfs.File
		for i := 0; i < 6; i++ {
			files = append(files, ev.create(t, fmt.Sprintf("/n/f%d", i), 24*storage.MB))
		}
		return ev, files
	}
	single, singleFiles := build()
	batched, batchedFiles := build()
	closeTo := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), 1) }

	rng := rand.New(rand.NewSource(7))
	maxKeep := int64(single.ctx.Tracker.K()) + 20
	exact := true // until the first n > 1
	for round, n := range []int64{1, 1, 1, 2, 5, maxKeep, maxKeep + 7, 1, 1000, 3} {
		exact = exact && n == 1
		idle := time.Duration(rng.Intn(5000)+1) * time.Second
		single.engine.RunFor(idle)
		batched.engine.RunFor(idle)
		i := rng.Intn(len(singleFiles))
		for k := int64(0); k < n; k++ {
			single.fs.RecordAccess(singleFiles[i])
		}
		batched.fs.RecordAccessN(batchedFiles[i], n)

		for j := range singleFiles {
			fs, fb := singleFiles[j], batchedFiles[j]
			if a, b := single.ctx.AccessCount(fs), batched.ctx.AccessCount(fb); a != b {
				t.Fatalf("round %d file %d: AccessCount %d vs %d", round, j, a, b)
			}
			if a, b := single.ctx.LastTouch(fs), batched.ctx.LastTouch(fb); !a.Equal(b) {
				t.Fatalf("round %d file %d: LastTouch %v vs %v", round, j, a, b)
			}
			ws, wb := single.ctx.Record(fs).AccessesBefore(single.engine.Now(), 0), batched.ctx.Record(fb).AccessesBefore(batched.engine.Now(), 0)
			if len(ws) != len(wb) {
				t.Fatalf("round %d file %d: k-last window holds %d vs %d instants", round, j, len(ws), len(wb))
			}
			for k := range ws {
				if !ws[k].Equal(wb[k]) {
					t.Fatalf("round %d file %d: k-last window differs at %d: %v vs %v", round, j, k, ws[k], wb[k])
				}
			}
			for d := range decays {
				a, b := single.ctx.weights[d].Stored(fs), batched.ctx.weights[d].Stored(fb)
				if exact && a != b || !closeTo(a, b) {
					t.Fatalf("round %d file %d decay %d: Stored %v vs %v", round, j, d, a, b)
				}
			}
		}
		if len(single.ctx.index.heaps) != len(batched.ctx.index.heaps) {
			t.Fatal("the two contexts built different heap sets")
		}
		for hi, hs := range single.ctx.index.heaps {
			hb := batched.ctx.index.heaps[hi]
			if hs.Len() != hb.Len() {
				t.Fatalf("round %d heap %d: %d vs %d members", round, hi, hs.Len(), hb.Len())
			}
			hs.Each(func(f *dfs.File, ks HeapKey) {
				kb, ok := hb.Key(f)
				if !ok || ks.T != kb.T || ks.ID != kb.ID || (exact && ks.W != kb.W) || !closeTo(ks.W, kb.W) {
					t.Fatalf("round %d heap %d file %d: key %+v vs %+v", round, hi, f.ID(), ks, kb)
				}
			})
		}
		if a, b := single.fs.Stats().FileAccesses, batched.fs.Stats().FileAccesses; a != b {
			t.Fatalf("round %d: Stats.FileAccesses %d vs %d", round, a, b)
		}
		for _, ev := range []*env{single, batched} {
			if err := ev.ctx.index.Audit(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}
