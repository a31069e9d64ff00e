package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"octostore/internal/gbt"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

var t0 = sim.Epoch

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTrackerCreateAccessDelete(t *testing.T) {
	tr := NewTracker(4)
	rec := tr.OnCreate(1, 1, 100, t0)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := rec.LastAccess(); ok {
		t.Fatal("fresh file claims an access")
	}
	tr.OnAccess(1, 1, t0.Add(time.Minute))
	got, ok := tr.Get(1, 1)
	if !ok || got.AccessCount() != 1 {
		t.Fatalf("after access: %v %v", got, ok)
	}
	last, ok := got.LastAccess()
	if !ok || !last.Equal(t0.Add(time.Minute)) {
		t.Fatalf("LastAccess = %v, %v", last, ok)
	}
	tr.OnDelete(1, 1)
	if tr.Len() != 0 {
		t.Fatal("delete did not remove record")
	}
}

func TestTrackerAccessOnUnknownFile(t *testing.T) {
	tr := NewTracker(4)
	rec := tr.OnAccess(42, 42, t0.Add(time.Hour))
	if rec == nil || tr.Len() != 1 {
		t.Fatal("implicit record not created")
	}
}

func TestRecordBoundedHistory(t *testing.T) {
	tr := NewTracker(4)
	rec := tr.OnCreate(1, 1, 100, t0)
	for i := 0; i < 100; i++ {
		rec.RecordAccess(t0.Add(time.Duration(i+1) * time.Minute))
	}
	if rec.AccessCount() != 100 {
		t.Fatalf("count = %d", rec.AccessCount())
	}
	if len(rec.accesses) > 4+trackSlack {
		t.Fatalf("history grew to %d", len(rec.accesses))
	}
	// Most recent accesses must be retained.
	all := rec.AccessesBefore(t0.Add(200*time.Minute), 4)
	if len(all) != 4 {
		t.Fatalf("AccessesBefore = %d entries", len(all))
	}
	if !all[3].Equal(t0.Add(100 * time.Minute)) {
		t.Fatalf("latest retained = %v", all[3])
	}
}

func TestAccessesBeforeFiltersFuture(t *testing.T) {
	tr := NewTracker(12)
	rec := tr.OnCreate(1, 1, 100, t0)
	for _, m := range []int{10, 20, 30, 40} {
		rec.RecordAccess(t0.Add(time.Duration(m) * time.Minute))
	}
	got := rec.AccessesBefore(t0.Add(25*time.Minute), 12)
	if len(got) != 2 {
		t.Fatalf("AccessesBefore(25m) = %d entries", len(got))
	}
	if !got[1].Equal(t0.Add(20 * time.Minute)) {
		t.Fatalf("last = %v", got[1])
	}
}

func TestAccessedIn(t *testing.T) {
	tr := NewTracker(12)
	rec := tr.OnCreate(1, 1, 100, t0)
	rec.RecordAccess(t0.Add(30 * time.Minute))
	cases := []struct {
		from, to time.Duration
		want     bool
	}{
		{0, 30 * time.Minute, true},          // boundary: at `to` counts
		{30 * time.Minute, time.Hour, false}, // boundary: at `from` excluded
		{20 * time.Minute, 40 * time.Minute, true},
		{40 * time.Minute, 60 * time.Minute, false},
	}
	for i, c := range cases {
		if got := rec.AccessedIn(t0.Add(c.from), t0.Add(c.to)); got != c.want {
			t.Fatalf("case %d: AccessedIn = %v, want %v", i, got, c.want)
		}
	}
}

func TestFootprintBounded(t *testing.T) {
	tr := NewTracker(DefaultK)
	rec := tr.OnCreate(1, 1, storage.GB, t0)
	for i := 0; i < 1000; i++ {
		rec.RecordAccess(t0.Add(time.Duration(i) * time.Second))
	}
	// Section 7.7: max 956 bytes per file. Our record keeps k+slack times,
	// so allow some headroom but require the same order of magnitude.
	if got := rec.FootprintBytes(); got > 2048 {
		t.Fatalf("footprint = %d bytes", got)
	}
	if tr.FootprintBytes() != rec.FootprintBytes() {
		t.Fatal("tracker footprint mismatch")
	}
}

func TestFeatureVectorMatchesPaperExample(t *testing.T) {
	// Figure 4: file of 200 MB created 8:00, accessed 9:20, 9:50, 11:10;
	// reference time 11:30. Expect deltas 80, 30, 80, 20 minutes and the
	// ref-creation delta, normalised by the max interval.
	spec := FeatureSpec{
		K:           12,
		MaxInterval: 48 * time.Hour,
		MaxSize:     4 * storage.GB,
		UseSize:     true,
		UseCreation: true,
	}
	rec := &FileRecord{ID: 1, Size: 200 * storage.MB, Created: t0, maxKeep: 32}
	rec.RecordAccess(t0.Add(80 * time.Minute))  // 9:20
	rec.RecordAccess(t0.Add(110 * time.Minute)) // 9:50
	rec.RecordAccess(t0.Add(190 * time.Minute)) // 11:10
	ref := t0.Add(210 * time.Minute)            // 11:30

	x := spec.Vector(rec, ref)
	if len(x) != spec.Width() || spec.Width() != 15 {
		t.Fatalf("width = %d", len(x))
	}
	maxMin := 48 * 60.0
	approx := func(got, wantMinutes float64) bool {
		return math.Abs(got-wantMinutes/maxMin) < 1e-9
	}
	if got := x[0]; math.Abs(got-200.0/4096.0) > 1e-9 {
		t.Fatalf("size feature = %v", got)
	}
	if !approx(x[1], 210) {
		t.Fatalf("ref-creation = %v", x[1])
	}
	if !approx(x[2], 20) {
		t.Fatalf("ref-last = %v", x[2])
	}
	if !approx(x[3], 80) {
		t.Fatalf("oldest-creation = %v", x[3])
	}
	if !approx(x[4], 80) { // 11:10 - 9:50
		t.Fatalf("delta1 = %v", x[4])
	}
	if !approx(x[5], 30) { // 9:50 - 9:20
		t.Fatalf("delta2 = %v", x[5])
	}
	for i := 6; i < len(x); i++ {
		if !gbt.IsMissing(x[i]) {
			t.Fatalf("slot %d should be missing, got %v", i, x[i])
		}
	}
}

func TestFeatureVectorNeverAccessed(t *testing.T) {
	spec := DefaultFeatureSpec()
	rec := &FileRecord{ID: 1, Size: storage.GB, Created: t0, maxKeep: 32}
	x := spec.Vector(rec, t0.Add(time.Hour))
	if gbt.IsMissing(x[0]) || gbt.IsMissing(x[1]) {
		t.Fatal("size/creation features missing for fresh file")
	}
	for i := 2; i < len(x); i++ {
		if !gbt.IsMissing(x[i]) {
			t.Fatalf("slot %d should be missing", i)
		}
	}
}

func TestFeatureNormalisationClamps(t *testing.T) {
	spec := DefaultFeatureSpec()
	rec := &FileRecord{ID: 1, Size: 100 * storage.GB, Created: t0, maxKeep: 32}
	x := spec.Vector(rec, t0.Add(1000*time.Hour))
	if x[0] != 1 {
		t.Fatalf("oversized file feature = %v", x[0])
	}
	if x[1] != 1 {
		t.Fatalf("ancient creation feature = %v", x[1])
	}
}

func TestFeatureAblationFlags(t *testing.T) {
	spec := DefaultFeatureSpec()
	spec.UseSize = false
	spec.UseCreation = false
	rec := &FileRecord{ID: 1, Size: storage.GB, Created: t0, maxKeep: 32}
	rec.RecordAccess(t0.Add(time.Hour))
	x := spec.Vector(rec, t0.Add(2*time.Hour))
	if !gbt.IsMissing(x[0]) || !gbt.IsMissing(x[1]) || !gbt.IsMissing(x[3]) {
		t.Fatal("ablated features still populated")
	}
	if gbt.IsMissing(x[2]) {
		t.Fatal("recency feature should remain")
	}
}

func TestLabel(t *testing.T) {
	rec := &FileRecord{ID: 1, Created: t0, maxKeep: 32}
	rec.RecordAccess(t0.Add(45 * time.Minute))
	if got := Label(rec, t0.Add(30*time.Minute), 30*time.Minute); got != 1 {
		t.Fatalf("label = %v, want 1", got)
	}
	if got := Label(rec, t0.Add(50*time.Minute), 30*time.Minute); got != 0 {
		t.Fatalf("label = %v, want 0", got)
	}
}

// synthStream feeds the learner with a simple learnable pattern: files with
// a short gap between accesses are re-accessed (y=1).
func synthSample(rng *rand.Rand, spec FeatureSpec) ([]float64, float64) {
	x := make([]float64, spec.Width())
	for i := range x {
		x[i] = gbt.Missing
	}
	recency := rng.Float64()
	x[0] = rng.Float64()
	x[1] = rng.Float64()
	x[2] = recency
	if recency < 0.3 {
		return x, 1
	}
	return x, 0
}

func TestLearnerTrainsAndServes(t *testing.T) {
	cfg := DefaultLearnerConfig()
	cfg.MinTrainSamples = 100
	cfg.UpdateBatch = 50
	spec := DefaultFeatureSpec()
	l := NewLearner(spec.Width(), cfg)
	if l.Ready() {
		t.Fatal("fresh learner claims ready")
	}
	if _, ok := l.Predict(make([]float64, spec.Width())); ok {
		t.Fatal("fresh learner served a prediction")
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 600; i++ {
		x, y := synthSample(rng, spec)
		l.Add(x, y)
	}
	if l.Trainings() != 1 {
		t.Fatalf("trainings = %d", l.Trainings())
	}
	if l.Updates() == 0 {
		t.Fatal("no incremental updates happened")
	}
	if !l.Ready() {
		t.Fatalf("learner not ready; rolling error = %v", l.RollingError())
	}
	x := make([]float64, spec.Width())
	for i := range x {
		x[i] = gbt.Missing
	}
	x[0], x[1] = 0.5, 0.5
	x[2] = 0.05 // very recent
	pHot, ok := l.Predict(x)
	if !ok {
		t.Fatal("predict not served")
	}
	x[2] = 0.95 // very stale
	pCold, _ := l.Predict(x)
	if pHot <= pCold {
		t.Fatalf("pHot=%v <= pCold=%v", pHot, pCold)
	}
}

func TestLearnerRollingErrorGate(t *testing.T) {
	cfg := DefaultLearnerConfig()
	cfg.MinTrainSamples = 50
	cfg.UpdateBatch = 1 << 30 // never update: model goes stale
	cfg.EvalFraction = 1.0
	cfg.EvalWindow = 40
	cfg.ErrorThreshold = 0.3
	spec := DefaultFeatureSpec()
	l := NewLearner(spec.Width(), cfg)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		x, y := synthSample(rng, spec)
		l.Add(x, y)
	}
	l.Flush() // no further buffer fills to publish the first model
	if l.Model() == nil {
		t.Fatal("model not trained")
	}
	// Now feed adversarial samples: labels inverted. Error should rise above
	// the threshold and the gate must close.
	for i := 0; i < 100; i++ {
		x, y := synthSample(rng, spec)
		l.Add(x, 1-y)
	}
	// Held-out outcomes enter the ring when their batch is published, scored
	// under the model they arrived under.
	l.ForceTrain()
	if l.Ready() {
		t.Fatalf("gate open despite rolling error %v", l.RollingError())
	}
}

func TestPipelineSampleSkipsYoungFiles(t *testing.T) {
	p := NewPipeline(DefaultFeatureSpec(), 30*time.Minute, DefaultLearnerConfig())
	tr := NewTracker(DefaultK)
	rec := tr.OnCreate(1, 1, storage.MB, t0.Add(time.Hour))
	if p.Sample(rec, t0.Add(time.Hour+10*time.Minute)) {
		t.Fatal("sampled a file created after the reference time")
	}
	if !p.Sample(rec, t0.Add(2*time.Hour)) {
		t.Fatal("failed to sample an old-enough file")
	}
	if p.Learner.SamplesSeen() != 1 {
		t.Fatalf("samples = %d", p.Learner.SamplesSeen())
	}
}

func TestPipelineLearnsReaccessPattern(t *testing.T) {
	// Build a workload where files with id%2==0 are periodically
	// re-accessed every 10 minutes and odd files never re-accessed. After
	// sampling, the pipeline should score hot files above cold ones.
	window := 30 * time.Minute
	cfg := DefaultLearnerConfig()
	cfg.MinTrainSamples = 150
	cfg.UpdateBatch = 100
	p := NewPipeline(DefaultFeatureSpec(), window, cfg)
	tr := NewTracker(DefaultK)
	const nFiles = 40
	for i := 0; i < nFiles; i++ {
		tr.OnCreate(int32(i), int64(i), storage.MB*int64(1+i), t0)
	}
	now := t0
	for step := 0; step < 120; step++ {
		now = now.Add(10 * time.Minute)
		for i := 0; i < nFiles; i += 2 {
			tr.OnAccess(int32(i), int64(i), now)
		}
		// Periodic sampling pass.
		for i := 0; i < nFiles; i++ {
			rec, _ := tr.Get(int32(i), int64(i))
			p.Sample(rec, now)
		}
	}
	if !p.Learner.Ready() {
		t.Fatalf("pipeline not ready; err=%v samples=%d", p.Learner.RollingError(), p.Learner.SamplesSeen())
	}
	hot, _ := tr.Get(0, 0)
	cold, _ := tr.Get(1, 1)
	pHot, ok1 := p.Score(hot, now)
	pCold, ok2 := p.Score(cold, now)
	if !ok1 || !ok2 {
		t.Fatal("scores not served")
	}
	if pHot < 0.6 || pCold > 0.4 {
		t.Fatalf("pHot=%v pCold=%v; expected clear separation", pHot, pCold)
	}
}

func TestForceTrain(t *testing.T) {
	spec := DefaultFeatureSpec()
	cfg := DefaultLearnerConfig()
	cfg.MinTrainSamples = 1 << 30
	l := NewLearner(spec.Width(), cfg)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 100; i++ {
		x, y := synthSample(rng, spec)
		l.Add(x, y)
	}
	if l.Model() != nil {
		t.Fatal("trained before ForceTrain")
	}
	l.ForceTrain()
	if l.Model() == nil {
		t.Fatal("ForceTrain did not train")
	}
	for i := 0; i < 50; i++ {
		x, y := synthSample(rng, spec)
		l.Add(x, y)
	}
	l.ForceTrain()
	if l.Updates() == 0 {
		t.Fatal("second ForceTrain did not update")
	}
}

// Property: feature vectors are always within [0,1] or missing, regardless
// of access history shape.
func TestPropertyFeatureRange(t *testing.T) {
	spec := DefaultFeatureSpec()
	f := func(sizeRaw uint32, gaps []uint16) bool {
		rec := &FileRecord{ID: 1, Size: int64(sizeRaw), Created: t0, maxKeep: int32(spec.K + trackSlack)}
		now := t0
		for _, g := range gaps {
			now = now.Add(time.Duration(g) * time.Minute)
			rec.RecordAccess(now)
		}
		x := spec.Vector(rec, now.Add(time.Minute))
		for _, v := range x {
			if gbt.IsMissing(v) {
				continue
			}
			if v < 0 || v > 1 {
				return false
			}
		}
		return len(x) == spec.Width()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of present consecutive-delta features equals
// min(#accesses before ref, K) - 1 when the file has been accessed.
func TestPropertyDeltaCount(t *testing.T) {
	spec := DefaultFeatureSpec()
	f := func(nRaw uint8) bool {
		n := int(nRaw % 20)
		rec := &FileRecord{ID: 1, Size: 1, Created: t0, maxKeep: int32(spec.K + trackSlack)}
		for i := 0; i < n; i++ {
			rec.RecordAccess(t0.Add(time.Duration(i+1) * time.Minute))
		}
		ref := t0.Add(time.Hour)
		x := spec.Vector(rec, ref)
		present := 0
		for i := 4; i < len(x); i++ {
			if !gbt.IsMissing(x[i]) {
				present++
			}
		}
		want := 0
		if n > 0 {
			want = min(n, spec.K) - 1
		}
		return present == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFeatureVector(b *testing.B) {
	spec := DefaultFeatureSpec()
	rec := &FileRecord{ID: 1, Size: storage.GB, Created: t0, maxKeep: int32(spec.K + trackSlack)}
	for i := 0; i < spec.K; i++ {
		rec.RecordAccess(t0.Add(time.Duration(i+1) * time.Minute))
	}
	ref := t0.Add(time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = spec.Vector(rec, ref)
	}
}

// BenchmarkLearnerAddSample is the amortised cost of one training sample
// under trace_xgb's learner configuration (updates of 200 samples, 3 rounds
// each, a 200-tree bound), with the ensemble already at its bound: buffering
// the sample and its share of the updates. The updates run beside Add, so the
// clock stops only once the last one has been published.
func BenchmarkLearnerAddSample(b *testing.B) {
	spec := DefaultFeatureSpec()
	cfg := DefaultLearnerConfig()
	cfg.Params.MaxTrees, cfg.MinTrainSamples, cfg.UpdateBatch, cfg.UpdateRounds = 200, 300, 200, 3
	l := NewLearner(spec.Width(), cfg)
	rng := rand.New(rand.NewSource(1))
	for l.Updates() < 70 {
		x, y := noisySample(rng, spec)
		l.Add(x, y)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := noisySample(rng, spec)
		l.Add(x, y)
	}
	l.Flush()
}

// OnAccessN(slot, id, at, n) is n times OnAccess(slot, id, at): the same lifetime count,
// the same k-last window (which holds K + slack instants at most, so a
// larger n adds no more than that), the same footprint.
func TestOnAccessNEqualsNOnAccesses(t *testing.T) {
	const k = 4
	keep := int64(k + trackSlack)
	for _, n := range []int64{1, 2, keep, keep + 7} {
		single, batched := NewTracker(k), NewTracker(k)
		for _, tr := range []*Tracker{single, batched} {
			rec := tr.OnCreate(1, 1, 100, t0)
			for i := 1; i <= 3; i++ { // earlier history the new instants push out
				rec.RecordAccess(t0.Add(time.Duration(i) * time.Minute))
			}
		}
		at := t0.Add(time.Hour)
		for i := int64(0); i < n; i++ {
			single.OnAccess(1, 1, at)
		}
		batched.OnAccessN(1, 1, at, n)
		batched.OnAccessN(2, 2, at, n) // a file the tracker had not seen
		for i := int64(0); i < n; i++ {
			single.OnAccess(2, 2, at)
		}
		for id := int64(1); id <= 2; id++ {
			a, _ := single.Get(int32(id), id)
			b, _ := batched.Get(int32(id), id)
			if a.AccessCount() != b.AccessCount() || a.FootprintBytes() != b.FootprintBytes() {
				t.Fatalf("n=%d file %d: count %d vs %d, footprint %d vs %d", n, id,
					a.AccessCount(), b.AccessCount(), a.FootprintBytes(), b.FootprintBytes())
			}
			wa, wb := a.AccessesBefore(at, 0), b.AccessesBefore(at, 0)
			if len(wa) != len(wb) || int64(len(wb)) > keep {
				t.Fatalf("n=%d file %d: window %d vs %d instants (bound %d)", n, id, len(wa), len(wb), keep)
			}
			for i := range wa {
				if !wa[i].Equal(wb[i]) {
					t.Fatalf("n=%d file %d: window differs at %d: %v vs %v", n, id, i, wa[i], wb[i])
				}
			}
		}
	}
}
