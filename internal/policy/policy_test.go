package policy

import (
	"math"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/ml"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

type env struct {
	engine *sim.Engine
	fs     *dfs.FileSystem
	ctx    *core.Context
	mgr    *core.Manager
}

// newEnv builds a 3-node Octopus system with a registered manager (policies
// can be nil; the XGB tests feed the model callbacks themselves).
func newEnv(t *testing.T, mode dfs.Mode, down core.DowngradePolicy, up core.UpgradePolicy) *env {
	t.Helper()
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec()})
	fs := dfs.MustNew(c, dfs.Config{Mode: mode, BlockSize: 16 * storage.MB, Seed: 5})
	cfg := core.DefaultConfig()
	cfg.PeriodicInterval = 30 * time.Second
	ctx := core.NewContext(fs, cfg)
	ev := &env{engine: e, fs: fs, ctx: ctx}
	ev.mgr = core.NewManager(ctx, down, up)
	return ev
}

func (ev *env) create(t *testing.T, path string, size int64) *dfs.File {
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

func (ev *env) access(f *dfs.File) {
	ev.fs.RecordAccess(f)
	ev.engine.Run()
}

// ctxOnly builds an env without any manager-driven movement so selection
// logic can be tested in isolation.
func ctxOnly(t *testing.T) *env { return newEnv(t, dfs.ModeOctopus, nil, nil) }

func TestLRUSelectsLeastRecent(t *testing.T) {
	ev := ctxOnly(t)
	p := NewLRU(ev.ctx)
	f1 := ev.create(t, "/f1", 16*storage.MB)
	f2 := ev.create(t, "/f2", 16*storage.MB)
	f3 := ev.create(t, "/f3", 16*storage.MB)
	ev.engine.RunFor(time.Minute)
	ev.access(f1)
	ev.engine.RunFor(time.Minute)
	ev.access(f2)
	if got := p.SelectFile(storage.Memory); got != f3 {
		t.Fatalf("LRU selected %v, want f3 (never accessed)", got.Path())
	}
	ev.engine.RunFor(time.Minute)
	ev.access(f3)
	if got := p.SelectFile(storage.Memory); got != f1 {
		t.Fatalf("LRU selected %v, want f1", got.Path())
	}
}

func TestLFUSelectsLeastFrequent(t *testing.T) {
	ev := ctxOnly(t)
	p := NewLFU(ev.ctx)
	f1 := ev.create(t, "/f1", 16*storage.MB)
	f2 := ev.create(t, "/f2", 16*storage.MB)
	for i := 0; i < 3; i++ {
		ev.access(f1)
	}
	ev.access(f2)
	if got := p.SelectFile(storage.Memory); got != f2 {
		t.Fatalf("LFU selected %s, want /f2", got.Path())
	}
}

func TestLRFUWeightFormula(t *testing.T) {
	// Paper example: H = 6h; a file re-accessed 6h after its last access
	// has new weight 1 + W/2.
	h := 6 * time.Hour
	w := lrfuDecay(h).Bump(4.0, 6*time.Hour)
	if math.Abs(w-3.0) > 1e-9 {
		t.Fatalf("LRFU bump = %v, want 3.0", w)
	}
}

func TestLRFUDownPrefersColdFile(t *testing.T) {
	ev := ctxOnly(t)
	p := NewLRFUDown(ev.ctx, time.Hour)
	hot := ev.create(t, "/hot", 16*storage.MB)
	cold := ev.create(t, "/cold", 16*storage.MB)
	for i := 0; i < 5; i++ {
		ev.engine.RunFor(5 * time.Minute)
		ev.fs.RecordAccess(hot)
	}
	ev.engine.RunFor(5 * time.Minute)
	if got := p.SelectFile(storage.Memory); got != cold {
		t.Fatalf("LRFU selected %s, want /cold", got.Path())
	}
}

func TestLIFEEvictsLargestWhenAllRecent(t *testing.T) {
	ev := ctxOnly(t)
	p := NewLIFE(ev.ctx, 2*time.Hour)
	small := ev.create(t, "/small", 16*storage.MB)
	large := ev.create(t, "/large", 32*storage.MB)
	_ = small
	if got := p.SelectFile(storage.Memory); got != large {
		t.Fatalf("LIFE selected %s, want /large", got.Path())
	}
}

func TestLIFEEvictsOldLFUFirst(t *testing.T) {
	ev := ctxOnly(t)
	p := NewLIFE(ev.ctx, time.Hour)
	old := ev.create(t, "/old", 16*storage.MB)
	ev.engine.RunFor(2 * time.Hour)
	fresh := ev.create(t, "/fresh", 32*storage.MB)
	_ = fresh
	if got := p.SelectFile(storage.Memory); got != old {
		t.Fatalf("LIFE selected %s, want /old", got.Path())
	}
}

func TestLFUFPartitions(t *testing.T) {
	ev := ctxOnly(t)
	p := NewLFUF(ev.ctx, time.Hour)
	oldPopular := ev.create(t, "/oldpop", 16*storage.MB)
	oldRare := ev.create(t, "/oldrare", 16*storage.MB)
	for i := 0; i < 3; i++ {
		ev.access(oldPopular)
	}
	_ = oldRare
	ev.engine.RunFor(2 * time.Hour)
	fresh := ev.create(t, "/fresh", 16*storage.MB)
	_ = fresh
	// Both old files are beyond the window; the rare one is the LFU choice.
	if got := p.SelectFile(storage.Memory); got != oldRare {
		t.Fatalf("LFU-F selected %s, want /oldrare", got.Path())
	}
}

func TestEXDWeightFormula(t *testing.T) {
	// With alpha = ln(2)/ms, weight halves every millisecond of idle time.
	alpha := exdDecay(math.Ln2)
	w := alpha.Bump(2.0, time.Millisecond)
	if math.Abs(w-2.0) > 1e-9 { // 1 + 2*0.5
		t.Fatalf("EXD bump = %v, want 2.0", w)
	}
	if got := alpha.Decayed(2.0, time.Millisecond); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("EXD decayed = %v, want 1.0", got)
	}
}

func TestEXDDownSelectsLowestWeight(t *testing.T) {
	ev := ctxOnly(t)
	p := NewEXDDown(ev.ctx, DefaultEXDAlpha)
	hot := ev.create(t, "/hot", 16*storage.MB)
	cold := ev.create(t, "/cold", 16*storage.MB)
	for i := 0; i < 4; i++ {
		ev.engine.RunFor(time.Minute)
		ev.fs.RecordAccess(hot)
	}
	if got := p.SelectFile(storage.Memory); got != cold {
		t.Fatalf("EXD selected %s, want /cold", got.Path())
	}
}

func TestOSAUpgradesOnAccess(t *testing.T) {
	osa := &OSA{}
	ev := newEnv(t, dfs.ModePinnedHDD, nil, nil)
	osa.ctx = ev.ctx
	f := ev.create(t, "/f", 16*storage.MB)
	if osa.StartUpgrade(nil) {
		t.Fatal("OSA started without an accessed file")
	}
	if !osa.StartUpgrade(f) {
		t.Fatal("OSA refused an accessed HDD file")
	}
	if got := osa.SelectFile(); got != f {
		t.Fatal("OSA selected wrong file")
	}
	if !osa.StopUpgrade() {
		t.Fatal("OSA should stop after the single file")
	}
	to, ok := osa.SelectTargetTier(f, storage.HDD)
	if !ok || to != storage.Memory {
		t.Fatalf("OSA target = %v, %v", to, ok)
	}
}

func TestOSAEndToEndViaManager(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec()})
	fs := dfs.MustNew(c, dfs.Config{Mode: dfs.ModePinnedHDD, BlockSize: 16 * storage.MB, Seed: 5})
	ctx := core.NewContext(fs, core.DefaultConfig())
	up := NewOSA(ctx)
	core.NewManager(ctx, nil, up)
	var file *dfs.File
	fs.Create("/f", 16*storage.MB, func(f *dfs.File, err error) { file = f })
	e.Run()
	fs.RecordAccess(file)
	e.Run()
	if !file.HasReplicaOn(storage.Memory) {
		t.Fatal("OSA did not move the file to memory")
	}
}

func TestLRFUUpThreshold(t *testing.T) {
	ev := newEnv(t, dfs.ModePinnedHDD, nil, nil)
	p := NewLRFUUp(ev.ctx, time.Hour, 3.0)
	f := ev.create(t, "/f", 16*storage.MB)
	// One access: weight ~ 1 + H*1/(d+H) < 3 => no upgrade.
	ev.engine.RunFor(time.Minute)
	ev.fs.RecordAccess(f)
	if p.StartUpgrade(f) {
		t.Fatal("LRFU admitted after a single access")
	}
	// Several rapid accesses push the weight past 3.
	for i := 0; i < 5; i++ {
		ev.engine.RunFor(time.Second)
		ev.fs.RecordAccess(f)
	}
	if !p.StartUpgrade(f) {
		t.Fatal("LRFU refused a hot file")
	}
}

func TestEXDUpAdmitsWhenSpaceAvailable(t *testing.T) {
	ev := newEnv(t, dfs.ModePinnedHDD, nil, nil)
	p := NewEXDUp(ev.ctx, DefaultEXDAlpha)
	f := ev.create(t, "/f", 16*storage.MB)
	if !p.StartUpgrade(f) {
		t.Fatal("EXD refused with free memory")
	}
}

func TestEXDUpWeighsVictimsWhenFull(t *testing.T) {
	ev := newEnv(t, dfs.ModePinnedHDD, nil, nil)
	p := NewEXDUp(ev.ctx, DefaultEXDAlpha)
	f := ev.create(t, "/f", 16*storage.MB)
	// Exhaust memory with reservations not belonging to any file: victims
	// cannot free enough, so the admission must fail.
	for _, n := range ev.fs.Cluster().Nodes() {
		for _, d := range n.Devices(storage.Memory) {
			if err := d.Reserve(d.Free()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p.StartUpgrade(f) {
		t.Fatal("EXD admitted with no reclaimable memory")
	}
}

func TestXGBDownFallsBackToLRUUntrained(t *testing.T) {
	ev := ctxOnly(t)
	p := NewXGBDown(ev.ctx, ml.DefaultLearnerConfig())
	f1 := ev.create(t, "/f1", 16*storage.MB)
	f2 := ev.create(t, "/f2", 16*storage.MB)
	ev.engine.RunFor(time.Minute)
	ev.access(f2)
	if got := p.SelectFile(storage.Memory); got != f1 {
		t.Fatalf("untrained XGB selected %s, want LRU choice /f1", got.Path())
	}
}

func TestXGBDownLearnsColdFiles(t *testing.T) {
	ev := ctxOnly(t)
	cfg := ml.DefaultLearnerConfig()
	cfg.MinTrainSamples = 120
	cfg.UpdateBatch = 60
	p := NewXGBDown(ev.ctx, cfg)
	// Hot files re-accessed every 10 minutes; cold files never.
	var hot, cold []*dfs.File
	for i := 0; i < 6; i++ {
		hot = append(hot, ev.create(t, "/hot/"+string(rune('a'+i)), 16*storage.MB))
		cold = append(cold, ev.create(t, "/cold/"+string(rune('a'+i)), 16*storage.MB))
	}
	for step := 0; step < 80; step++ {
		ev.engine.RunFor(10 * time.Minute)
		for _, f := range hot {
			ev.fs.RecordAccess(f)
			p.OnFileAccessed(f)
		}
		p.Tick()
	}
	if !p.Pipeline().Learner.Ready() {
		t.Fatalf("XGB model not ready after 80 rounds (samples=%d)", p.Pipeline().Learner.SamplesSeen())
	}
	got := p.SelectFile(storage.Memory)
	for _, h := range hot {
		if got == h {
			t.Fatalf("XGB chose hot file %s for downgrade", got.Path())
		}
	}
}

func TestXGBUpProactiveQueueAndBatchLimit(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec()})
	fs := dfs.MustNew(c, dfs.Config{Mode: dfs.ModePinnedHDD, BlockSize: 16 * storage.MB, Seed: 5})
	cfg := core.DefaultConfig()
	cfg.UpgradeBatchLimit = 32 * storage.MB // two 16 MB files
	ctx := core.NewContext(fs, cfg)
	lcfg := ml.DefaultLearnerConfig()
	lcfg.MinTrainSamples = 120
	lcfg.UpdateBatch = 60
	p := NewXGBUp(ctx, lcfg)
	core.NewManager(ctx, nil, nil)

	var hot []*dfs.File
	for i := 0; i < 6; i++ {
		var f *dfs.File
		fs.Create("/hot/"+string(rune('a'+i)), 16*storage.MB, func(created *dfs.File, err error) { f = created })
		e.Run()
		ctx.Record(f)
		hot = append(hot, f)
	}
	for step := 0; step < 80; step++ {
		e.RunFor(10 * time.Minute)
		for _, f := range hot {
			ctx.Tracker.OnAccess(f.Slot(), int64(f.ID()), e.Now())
			p.OnFileAccessed(f)
		}
		p.Tick()
	}
	if !p.Pipeline().Learner.Ready() {
		t.Fatalf("upgrade model not ready (samples=%d)", p.Pipeline().Learner.SamplesSeen())
	}
	// Proactive start right after an access round: hot files should qualify.
	if !p.StartUpgrade(nil) {
		t.Fatal("proactive upgrade did not start")
	}
	selected := 0
	for !p.StopUpgrade() {
		if f := p.SelectFile(); f == nil {
			break
		}
		selected++
	}
	if selected == 0 {
		t.Fatal("no files selected")
	}
	if selected > 2 {
		t.Fatalf("batch limit violated: %d files selected", selected)
	}
}

func TestRegistryDowngrade(t *testing.T) {
	ev := ctxOnly(t)
	for _, name := range DowngradeNames {
		p, err := NewDowngrade(name, ev.ctx, ml.DefaultLearnerConfig())
		if err != nil || p == nil {
			t.Fatalf("NewDowngrade(%q) = %v, %v", name, p, err)
		}
	}
	if p, err := NewDowngrade("none", ev.ctx, ml.DefaultLearnerConfig()); err != nil || p != nil {
		t.Fatalf("none => %v, %v", p, err)
	}
	if _, err := NewDowngrade("bogus", ev.ctx, ml.DefaultLearnerConfig()); err == nil {
		t.Fatal("bogus accepted")
	}
}

func TestRegistryUpgrade(t *testing.T) {
	ev := ctxOnly(t)
	for _, name := range UpgradeNames {
		p, err := NewUpgrade(name, ev.ctx, ml.DefaultLearnerConfig())
		if err != nil || p == nil {
			t.Fatalf("NewUpgrade(%q) = %v, %v", name, p, err)
		}
	}
	if p, err := NewUpgrade("", ev.ctx, ml.DefaultLearnerConfig()); err != nil || p != nil {
		t.Fatalf("empty => %v, %v", p, err)
	}
	if _, err := NewUpgrade("bogus", ev.ctx, ml.DefaultLearnerConfig()); err == nil {
		t.Fatal("bogus accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	ev := ctxOnly(t)
	lcfg := ml.DefaultLearnerConfig()
	names := map[string]string{}
	for _, n := range DowngradeNames {
		p, _ := NewDowngrade(n, ev.ctx, lcfg)
		names[n] = p.Name()
	}
	want := map[string]string{
		"lru": "LRU", "lfu": "LFU", "lrfu": "LRFU", "life": "LIFE",
		"lfuf": "LFU-F", "exd": "EXD", "xgb": "XGB",
	}
	for k, v := range want {
		if names[k] != v {
			t.Fatalf("policy %q name = %q, want %q", k, names[k], v)
		}
	}
}

// A downgrade/upgrade pair of the weight family reads one statistic: both
// sides hold the context's one instance for the formula (one weight per file,
// one heap per tier; core's TestDecayedWeightOnePerFormula counts them), an
// access applies the formula once, and only a different parameter gets a
// statistic of its own.
func TestWeightPairSharesOneStatistic(t *testing.T) {
	const idle = 90 * time.Second
	for _, c := range []struct {
		name  string
		decay core.Decay
		held  func(core.DowngradePolicy, core.UpgradePolicy) [2]*core.DecayedWeight
		other func(*core.Context) *core.DecayedWeight
	}{
		{"exd", exdDecay(DefaultEXDAlpha),
			func(d core.DowngradePolicy, u core.UpgradePolicy) [2]*core.DecayedWeight {
				return [2]*core.DecayedWeight{d.(*WeightDown).w, u.(*EXDUp).w}
			},
			func(ctx *core.Context) *core.DecayedWeight { return NewEXDUp(ctx, 2*DefaultEXDAlpha).w }},
		{"lrfu", lrfuDecay(DefaultLRFUHalfLife),
			func(d core.DowngradePolicy, u core.UpgradePolicy) [2]*core.DecayedWeight {
				return [2]*core.DecayedWeight{d.(*WeightDown).w, u.(*LRFUUp).w}
			},
			func(ctx *core.Context) *core.DecayedWeight { return NewLRFUDown(ctx, 2*DefaultLRFUHalfLife).w }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ev := newEnv(t, dfs.ModePinnedHDD, nil, nil)
			down, err := NewDowngrade(c.name, ev.ctx, ml.DefaultLearnerConfig())
			if err != nil {
				t.Fatal(err)
			}
			up, err := NewUpgrade(c.name, ev.ctx, ml.DefaultLearnerConfig())
			if err != nil {
				t.Fatal(err)
			}
			core.NewManager(ev.ctx, down, up)
			w := ev.ctx.DecayedWeight(c.decay)
			if held := c.held(down, up); held != [2]*core.DecayedWeight{w, w} {
				t.Fatalf("the pair holds statistics %p and %p, want the context's one, %p", held[0], held[1], w)
			}

			f := ev.create(t, "/f", 16*storage.MB)
			if got := w.Stored(f); got != 1 {
				t.Fatalf("weight at creation = %v, want 1", got)
			}
			ev.engine.RunFor(idle)
			ev.fs.RecordAccess(f)
			once := c.decay.Bump(1, idle)
			if got := w.Stored(f); got != once || once == c.decay.Bump(once, 0) {
				t.Fatalf("weight after one access = %v, want one application of the formula, %v", got, once)
			}

			if c.other(ev.ctx) == w {
				t.Fatal("a policy with another parameter reads the same statistic")
			}
			if err := ev.ctx.Index().Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// core.Decay's contract for coalesced accesses: nothing fades in no time, so
// an access right after another adds exactly 1 under both formulas.
func TestDecayBumpAtZeroIdleAddsOne(t *testing.T) {
	for _, d := range []core.Decay{lrfuDecay(DefaultLRFUHalfLife), lrfuDecay(6 * time.Hour), exdDecay(DefaultEXDAlpha), exdDecay(math.Ln2)} {
		for _, w := range []float64{0, 1, 1.359026326445546, 41.75, 1e6 / 3} {
			if got := d.Bump(w, 0); math.Abs(got-(w+1)) > 1e-12*(w+1) {
				t.Errorf("%T(%v).Bump(%v, 0) = %v, want %v", d, d, w, got, w+1)
			}
		}
	}
}
