package policy_test

// Differential cases with a large share of a tier ineligible. The manager
// holds busy and cooled-down files parked outside the selection heaps, so
// the indexed selections never meet them; the linear oracles still decide
// eligibility from Context.Selectable (the manager's record and the clock).
// With 10 / 30 / 50 % of the memory and HDD tiers made ineligible — busy and
// cooldown mixed, the least-recently-used end of the tier hit hardest,
// cooldowns expiring while the run goes on — every indexed answer must stay
// equal to its oracle's: LRU, LFU, LRFU and EXD SelectFile, the XGB
// policies' LRU / upgrade top-k collections, and the EXD admission sum.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/policy"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

type ineligibleWorld struct {
	e     *sim.Engine
	fs    *dfs.FileSystem
	ctx   *core.Context
	mgr   *core.Manager
	des   *policy.Designator
	mover *policy.HeldMover
	files []*dfs.File

	downs []interface {
		core.DowngradePolicy
		SelectFileLinear(storage.Media) *dfs.File
	}
	exdUp      *policy.EXDUp
	bufA, bufB []*dfs.File
}

func newIneligibleWorld(t *testing.T) *ineligibleWorld {
	t.Helper()
	e := sim.NewEngine()
	spec := storage.PaperMediaSpec(1*storage.GB, 8*storage.GB, 64*storage.GB, 2)
	c := cluster.MustNew(e, cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: spec})
	fs := dfs.MustNew(c, dfs.Config{Mode: dfs.ModePinnedHDD, BlockSize: 4 * storage.MB, Seed: 5})
	cfg := core.DefaultConfig()
	cfg.PeriodicInterval = 5 * time.Second
	ctx := core.NewContext(fs, cfg)
	w := &ineligibleWorld{e: e, fs: fs, ctx: ctx, des: &policy.Designator{}, mover: &policy.HeldMover{}}

	// Policies first, files after: production construction order.
	lru, lfu := policy.NewLRU(ctx), policy.NewLFU(ctx)
	lrfu := policy.NewLRFUDown(ctx, policy.DefaultLRFUHalfLife)
	exd := policy.NewEXDDown(ctx, policy.DefaultEXDAlpha)
	w.exdUp = policy.NewEXDUp(ctx, policy.DefaultEXDAlpha)
	ctx.Index().RequireUpgradeMRU()
	w.downs = append(w.downs, lru, lfu, lrfu, exd)
	w.mgr = core.NewManager(ctx, w.des, nil)
	w.mgr.SetMover(w.mover)

	for i := 0; i < 240; i++ {
		fs.Create(fmt.Sprintf("/inel/d%02d/f%03d", i%8, i), 4*storage.MB, func(f *dfs.File, err error) {
			if err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
			w.files = append(w.files, f)
		})
		e.Run()
	}
	// Half the population moves up, so the memory tier (EXD admission) and
	// the HDD tier (upgrade candidates) both have a real membership.
	for _, f := range w.files[:120] {
		if err := fs.MoveFileReplicas(f, storage.HDD, storage.Memory, nil); err != nil {
			t.Fatalf("upgrade: %v", err)
		}
		e.Run()
	}
	// Distinct touch instants and spread-out counts, in an order unrelated
	// to file ids.
	rng := rand.New(rand.NewSource(17))
	for _, i := range rng.Perm(len(w.files)) {
		for n := 1 + i%3; n > 0; n-- {
			e.RunFor(time.Duration(2+rng.Intn(20)) * time.Second)
			fs.RecordAccess(w.files[i])
		}
	}
	w.mgr.Start() // from here on only RunFor: the ticker never lets Run return
	t.Cleanup(w.mgr.Stop)
	return w
}

// check compares every indexed answer with its oracle and audits every
// index. It returns the number of nontrivial admission sums.
func (w *ineligibleWorld) check(t *testing.T, label string) int {
	t.Helper()
	for _, tier := range []storage.Media{storage.Memory, storage.HDD} {
		for _, p := range w.downs {
			got, want := p.SelectFile(tier), p.SelectFileLinear(tier)
			if got != want {
				t.Errorf("%s: %s.SelectFile(%v) = %s, linear oracle %s", label, p.Name(), tier, fileName(got), fileName(want))
			}
		}
		for _, k := range []int{1, 50, 0} {
			w.bufA = w.ctx.LRUFilesInto(w.bufA[:0], tier, k)
			w.bufB = policy.LRUFilesLinear(w.ctx, w.bufB[:0], tier, k)
			if !sameFiles(w.bufA, w.bufB) {
				t.Errorf("%s: LRUFiles(%v, %d): indexed %d files, linear %d", label, tier, k, len(w.bufA), len(w.bufB))
			}
		}
	}
	for _, k := range []int{1, 50, 0} {
		w.bufA = w.ctx.UpgradeCandidatesInto(w.bufA[:0], k)
		w.bufB = policy.UpgradeCandidatesLinear(w.ctx, w.bufB[:0], k)
		if !sameFiles(w.bufA, w.bufB) {
			t.Errorf("%s: UpgradeCandidates(%d): indexed %d files, linear %d", label, k, len(w.bufA), len(w.bufB))
		}
	}
	nontrivial := 0
	for _, need := range []int64{0, 4 * storage.MB, 40 * storage.MB, 150 * storage.MB, 230 * storage.MB, 300 * storage.MB, 470 * storage.MB, 2 * storage.GB} {
		got, want := w.exdUp.VictimWeightSum(need), w.exdUp.VictimWeightSumLinear(need)
		if got != want {
			t.Errorf("%s: VictimWeightSum(%d) = %v, linear oracle %v", label, need, got, want)
		}
		if got > 0 && got < 1e299 {
			nontrivial++
		}
	}
	if err := w.ctx.Index().Audit(); err != nil { // the weight heaps included
		t.Errorf("%s: %v", label, err)
	}
	return nontrivial
}

// ineligibleShare is the fraction of the tier's complete resident files the
// manager's record currently rules out.
func (w *ineligibleWorld) ineligibleShare(tier storage.Media) float64 {
	var members, out int
	for _, f := range w.fs.LiveFiles() {
		if f.HasReplicaOn(tier) {
			members++
			if !w.ctx.Selectable(f) {
				out++
			}
		}
	}
	return float64(out) / float64(members)
}

func TestDifferentialWithIneligibleShare(t *testing.T) {
	for _, pct := range []int{10, 30, 50} {
		t.Run(fmt.Sprintf("ineligible=%d%%", pct), func(t *testing.T) {
			w := newIneligibleWorld(t)
			rng := rand.New(rand.NewSource(int64(pct)))
			nontrivial := w.check(t, "all eligible")

			// Queue pct% of each tier: the least recently used files first
			// (they are what every selection would have returned), the rest
			// drawn at random across the tier.
			queued := map[*dfs.File]bool{} // a file resident on both tiers is queued once
			for _, tier := range []storage.Media{storage.Memory, storage.HDD} {
				members := policy.LRUFilesLinear(w.ctx, nil, tier, 0)
				n := len(members) * pct / 100
				picked := append([]*dfs.File(nil), members[:n/2]...)
				rest := members[n/2:]
				for _, i := range rng.Perm(len(rest))[:n-n/2] {
					picked = append(picked, rest[i])
				}
				rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
				for _, f := range picked {
					if !queued[f] {
						queued[f] = true
						w.des.Queue[tier] = append(w.des.Queue[tier], f)
					}
				}
			}
			total := len(w.des.Queue[storage.Memory]) + len(w.des.Queue[storage.HDD])
			w.e.RunFor(w.ctx.Cfg.PeriodicInterval) // the tick hands every queued file to the mover
			if len(w.mover.Held) != total {
				t.Fatalf("%d files busy after the tick, want %d", len(w.mover.Held), total)
			}
			for _, tier := range []storage.Media{storage.Memory, storage.HDD} {
				if got := w.ineligibleShare(tier); got < float64(pct)/100*0.95 {
					t.Fatalf("%v: %.2f of the tier ineligible, want about %.2f", tier, got, float64(pct)/100)
				}
			}
			nontrivial += w.check(t, "all busy")

			// Moves now fail a few at a time, ten virtual seconds apart, so
			// busy marks and cooldowns coexist and the cooldowns run out one
			// batch after another while later batches are still being set.
			// Accesses keep re-keying files, parked ones included. A fifth of
			// the moves complete cleanly instead.
			failure := errors.New("injected move failure")
			batch := (total + 9) / 10
			for step := 0; step < 22; step++ {
				if step%5 == 4 {
					w.mover.Settle(batch, nil)
				} else {
					w.mover.Settle(batch, failure)
				}
				for i := 0; i < 12; i++ {
					w.e.RunFor(time.Duration(300+rng.Intn(900)) * time.Millisecond)
					w.fs.RecordAccess(w.files[rng.Intn(len(w.files))])
				}
				nontrivial += w.check(t, fmt.Sprintf("step %d", step))
			}
			if len(w.mover.Held) != 0 {
				t.Fatalf("%d moves never settled", len(w.mover.Held))
			}
			busy, cooling := w.mgr.ParkedFiles()
			if busy != 0 || cooling != 0 {
				t.Fatalf("after the last cooldown ran out: %d busy, %d cooling down on record", busy, cooling)
			}
			if w.mgr.Cooldowns(core.CooldownMoveFailed) == 0 {
				t.Fatal("no move failure was booked as a cooldown")
			}
			if got := w.ineligibleShare(storage.Memory) + w.ineligibleShare(storage.HDD); got != 0 {
				t.Fatalf("ineligible share at the end = %v, want 0", got)
			}
			if nontrivial < 60 {
				t.Fatalf("only %d nontrivial admission sums; the memory tier is too tame to trust the equivalence", nontrivial)
			}
		})
	}
}
