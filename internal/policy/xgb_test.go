package policy

import (
	"math"
	"testing"
	"time"

	"octostore/internal/dfs"
	"octostore/internal/ml"
	"octostore/internal/storage"
)

// trainedXGBDown builds an XGB downgrade policy over six hot files
// (re-accessed every ten minutes) and six cold ones, trained until it
// serves, with the clock standing at one instant.
func trainedXGBDown(t *testing.T) (*env, *XGBDown, []*dfs.File) {
	t.Helper()
	ev := ctxOnly(t)
	cfg := ml.DefaultLearnerConfig()
	cfg.MinTrainSamples = 120
	cfg.UpdateBatch = 60
	p := NewXGBDown(ev.ctx, cfg)
	var files, hot []*dfs.File
	for i := 0; i < 6; i++ {
		hot = append(hot, ev.create(t, "/hot/"+string(rune('a'+i)), 16*storage.MB))
		files = append(files, hot[i], ev.create(t, "/cold/"+string(rune('a'+i)), 16*storage.MB))
	}
	for step := 0; step < 80; step++ {
		ev.engine.RunFor(10 * time.Minute)
		for _, f := range hot {
			ev.fs.RecordAccess(f)
			p.OnFileAccessed(f)
		}
		p.Tick()
	}
	ev.engine.RunFor(7 * time.Minute)
	if !p.Pipeline().Learner.Ready() {
		t.Fatalf("XGB model not ready (samples=%d)", p.Pipeline().Learner.SamplesSeen())
	}
	return ev, p, files
}

// checkMemo requires the memoised selection to equal the uncached one, and
// every remembered score to be what the model says now.
func checkMemo(t *testing.T, ev *env, p *XGBDown, when string) {
	t.Helper()
	got, want := p.SelectFile(storage.Memory), p.SelectFileLinear(storage.Memory)
	if got != want {
		t.Fatalf("%s: memoised selection %s, uncached %s", when, got.Path(), want.Path())
	}
	now := ev.ctx.Clock.Now()
	for _, f := range ev.ctx.LRUFilesInto(nil, storage.Memory, ev.ctx.Cfg.CandidateK) {
		m, ok := p.memo[f.ID()]
		if !ok {
			t.Fatalf("%s: candidate %s has no remembered score", when, f.Path())
		}
		fresh, _ := p.pipeline.Score(ev.ctx.Record(f), now)
		if math.Float64bits(m.prob) != math.Float64bits(fresh) {
			t.Fatalf("%s: %s remembered as %v, the model says %v", when, f.Path(), m.prob, fresh)
		}
	}
}

// TestXGBDownMemoSeesAccessAtTheSameInstant: an access to a candidate
// between two selections of one burst changes that file's features, so its
// remembered score must not be reused.
func TestXGBDownMemoSeesAccessAtTheSameInstant(t *testing.T) {
	ev, p, files := trainedXGBDown(t)
	checkMemo(t, ev, p, "first selection")
	at := ev.ctx.Clock.Now()
	moved := 0
	for _, f := range files {
		before := p.memo[f.ID()]
		ev.fs.RecordAccess(f)
		if !ev.ctx.Clock.Now().Equal(at) {
			t.Fatal("the access advanced the clock; the burst is over")
		}
		checkMemo(t, ev, p, "after accessing "+f.Path())
		after := p.memo[f.ID()]
		if after.accesses != before.accesses+1 {
			t.Fatalf("%s remembered at %d accesses, then %d", f.Path(), before.accesses, after.accesses)
		}
		if after.prob != before.prob {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no access changed a score: the case does not show a stale memo would be wrong")
	}
}

// TestXGBDownMemoSeesModelUpdateAtTheSameInstant: an incremental update
// between two selections of one burst changes every score.
func TestXGBDownMemoSeesModelUpdateAtTheSameInstant(t *testing.T) {
	ev, p, files := trainedXGBDown(t)
	checkMemo(t, ev, p, "first selection")
	learner := p.Pipeline().Learner
	gen, at := learner.Generation(), ev.ctx.Clock.Now()
	before := p.memo[files[0].ID()]
	// Teach the model the opposite of what it knows until it takes an update.
	for i := 0; learner.Generation() == gen; i++ {
		f := files[i%len(files)]
		x, y := p.pipeline.TrainingPoint(ev.ctx.Record(f), at.Add(-p.pipeline.Window))
		learner.Add(x, 1-y)
	}
	if !ev.ctx.Clock.Now().Equal(at) {
		t.Fatal("the clock moved; the burst is over")
	}
	if !learner.Ready() {
		t.Skip("the update closed the serving gate; nothing is scored")
	}
	checkMemo(t, ev, p, "after the update")
	if p.memoGen != learner.Generation() {
		t.Fatalf("memo is of generation %d, the learner at %d", p.memoGen, learner.Generation())
	}
	if after := p.memo[files[0].ID()]; after.prob == before.prob {
		t.Fatalf("%s scores %v under both models: the case does not show a stale memo would be wrong", files[0].Path(), after.prob)
	}
}

// TestXGBDownMemoIsOneBurst: the memo holds one instant's scores and is
// emptied when the clock moves, so it cannot outgrow a burst's candidates.
func TestXGBDownMemoIsOneBurst(t *testing.T) {
	ev, p, files := trainedXGBDown(t)
	for i := 0; i < 50; i++ {
		checkMemo(t, ev, p, "burst")
		if len(p.memo) > len(files) {
			t.Fatalf("selection %d: %d remembered scores for %d files", i, len(p.memo), len(files))
		}
	}
	for _, f := range files[:4] {
		if err := ev.fs.Delete(f.Path()); err != nil {
			t.Fatal(err)
		}
	}
	ev.engine.RunFor(time.Minute)
	checkMemo(t, ev, p, "next instant")
	if len(p.memo) != len(files)-4 {
		t.Fatalf("%d remembered scores after the clock moved, want the %d live candidates'", len(p.memo), len(files)-4)
	}
}
