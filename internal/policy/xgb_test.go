package policy

import (
	"fmt"
	"math"
	"slices"
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

// checkMemo requires the windowed selection to equal the uncached one, the
// window's selectable files to be a prefix of the tier's recency order at
// least CandidateK long (or all of it), the first CandidateK of them to hold
// a score, and every score the window holds for a selectable file to be what
// the model says now.
func checkMemo(t *testing.T, ev *env, p *XGBDown, when string) {
	t.Helper()
	got, want := p.SelectFile(storage.Memory), p.SelectFileLinear(storage.Memory)
	if got != want {
		t.Fatalf("%s: windowed selection %s, uncached %s", when, got.Path(), want.Path())
	}
	k, now := ev.ctx.Cfg.CandidateK, ev.ctx.Clock.Now()
	var live []*dfs.File
	for _, e := range p.win {
		if !ev.ctx.InLRUOrder(e.f, storage.Memory) {
			continue
		}
		if live = append(live, e.f); len(live) <= k && e.accesses < 0 {
			t.Fatalf("%s: candidate %s has no score", when, e.f.Path())
		}
		if e.accesses < 0 {
			continue
		}
		rec := ev.ctx.Record(e.f)
		if e.accesses != rec.AccessCount() {
			t.Fatalf("%s: %s scored at %d accesses, has %d", when, e.f.Path(), e.accesses, rec.AccessCount())
		}
		fresh, _ := p.pipeline.Score(rec, now)
		if math.Float64bits(e.prob) != math.Float64bits(fresh) {
			t.Fatalf("%s: %s remembered as %v, the model says %v", when, e.f.Path(), e.prob, fresh)
		}
	}
	order := ev.ctx.LRUFilesInto(nil, storage.Memory, 0)
	if len(live) < min(k, len(order)) || !slices.Equal(live, order[:len(live)]) {
		t.Fatalf("%s: the window's %d selectable files are not the first of the tier's %d", when, len(live), len(order))
	}
}

// windowed returns the window's entry for the file.
func windowed(t *testing.T, p *XGBDown, f *dfs.File) windowEntry {
	t.Helper()
	for _, e := range p.win {
		if e.f == f {
			return e
		}
	}
	t.Fatalf("%s is not in the window", f.Path())
	return windowEntry{}
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
		before := windowed(t, p, f)
		ev.fs.RecordAccess(f)
		if !ev.ctx.Clock.Now().Equal(at) {
			t.Fatal("the access advanced the clock; the burst is over")
		}
		checkMemo(t, ev, p, "after accessing "+f.Path())
		after := windowed(t, p, f)
		if after.accesses != before.accesses+1 {
			t.Fatalf("%s remembered at %d accesses, then %d", f.Path(), before.accesses, after.accesses)
		}
		if after.prob != before.prob {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no access changed a score: the case does not show a stale score would be wrong")
	}
}

// TestXGBDownMemoSeesModelUpdateAtTheSameInstant: an incremental update
// between two selections of one burst changes every score.
func TestXGBDownMemoSeesModelUpdateAtTheSameInstant(t *testing.T) {
	ev, p, files := trainedXGBDown(t)
	checkMemo(t, ev, p, "first selection")
	learner := p.Pipeline().Learner
	gen, at := learner.Generation(), ev.ctx.Clock.Now()
	before := windowed(t, p, files[0])
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
	if p.winGen != learner.Generation() {
		t.Fatalf("window is of generation %d, the learner at %d", p.winGen, learner.Generation())
	}
	if after := windowed(t, p, files[0]); after.prob == before.prob {
		t.Fatalf("%s scores %v under both models: the case does not show a stale score would be wrong", files[0].Path(), after.prob)
	}
}

// TestXGBDownMemoIsOneBurst: the window holds one instant's files and scores
// and is taken afresh when the clock moves, so it cannot outgrow a burst's
// candidates.
func TestXGBDownMemoIsOneBurst(t *testing.T) {
	ev, p, files := trainedXGBDown(t)
	for i := 0; i < 50; i++ {
		checkMemo(t, ev, p, "burst")
		if len(p.win) > len(files) {
			t.Fatalf("selection %d: %d files in the window for %d files", i, len(p.win), len(files))
		}
	}
	for _, f := range files[:4] {
		if err := ev.fs.Delete(f); err != nil {
			t.Fatal(err)
		}
	}
	ev.engine.RunFor(time.Minute)
	checkMemo(t, ev, p, "next instant")
	if len(p.win) != len(files)-4 || !p.winNow.Equal(ev.ctx.Clock.Now()) {
		t.Fatalf("%d files in the window of %v after the clock moved to %v, want the %d live candidates'",
			len(p.win), p.winNow, ev.ctx.Clock.Now(), len(files)-4)
	}
}

// TestXGBDownWindowRunsShort: a file leaving the recency order does not
// retake the window, so a burst that deletes each file it selects runs the
// window short of CandidateK selectable files while the tier has more; the
// selection must then take the window afresh, not choose among fewer
// candidates than the oracle does.
func TestXGBDownWindowRunsShort(t *testing.T) {
	ev, p, files := trainedXGBDown(t)
	ev.ctx.Cfg.CandidateK = 2
	at := ev.ctx.Clock.Now()
	for left := len(files); left > 0; left-- {
		checkMemo(t, ev, p, fmt.Sprintf("%d files left", left))
		if err := ev.fs.Delete(p.SelectFile(storage.Memory)); err != nil {
			t.Fatal(err)
		}
		if !ev.ctx.Clock.Now().Equal(at) {
			t.Fatal("the delete advanced the clock; the burst is over")
		}
	}
	if f := p.SelectFile(storage.Memory); f != nil {
		t.Fatalf("selected %s from an empty tier", f.Path())
	}
}
