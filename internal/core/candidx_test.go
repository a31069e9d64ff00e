package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// heapModel is the sorted-slice oracle of the FileHeap property test: the
// members' keys and parked bits, with every ordered answer recomputed from
// scratch by sorting the unparked ones.
type heapModel struct {
	less    func(a, b HeapKey) bool
	key     map[dfs.FileID]HeapKey
	parked  map[dfs.FileID]bool
	byID    map[dfs.FileID]*dfs.File
	scratch []HeapKey
}

// ordered returns the keys in heap order (unparked members, ascending).
func (m *heapModel) ordered() []HeapKey {
	m.scratch = m.scratch[:0]
	for id, k := range m.key {
		if !m.parked[id] {
			m.scratch = append(m.scratch, k)
		}
	}
	sort.Slice(m.scratch, func(i, j int) bool { return m.less(m.scratch[i], m.scratch[j]) })
	return m.scratch
}

func (m *heapModel) files(keys []HeapKey) []*dfs.File {
	out := make([]*dfs.File, len(keys))
	for i, k := range keys {
		out[i] = m.byID[k.ID]
	}
	return out
}

// TestFileHeapAgainstSortedOracle drives a standalone FileHeap with random
// Update / Remove / Park / Unpark / Rekey sequences — re-keys and removals of
// parked members included — and after every step compares membership, keys,
// parked bits and every selection method against the sorted-slice oracle.
func TestFileHeapAgainstSortedOracle(t *testing.T) {
	ev := newEnv(t, dfs.ModePinnedHDD)
	var files []*dfs.File
	for i := 0; i < 48; i++ {
		files = append(files, ev.create(t, fmt.Sprintf("/prop/f%02d", i), storage.MB))
	}
	orders := []struct {
		name string
		less func(a, b HeapKey) bool
		lazy bool // keys are (w, 0, id) lower bounds; SelectMinLazy is checked too
	}{
		{"ascending", HeapKey.Less, false},
		{"time-descending", TimeDescending, false},
		{"lazy-weights", HeapKey.Less, true},
	}
	for _, order := range orders {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", order.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				h := NewFileHeap(order.less, ev.fs.FileByID)
				m := &heapModel{
					less:   order.less,
					key:    map[dfs.FileID]HeapKey{},
					parked: map[dfs.FileID]bool{},
					byID:   map[dfs.FileID]*dfs.File{},
				}
				for _, f := range files {
					m.byID[f.ID()] = f
				}
				// slack[id] >= 0 makes the lazy run's exact weight: stored
				// keys stay lower bounds whatever the op sequence does.
				slack := map[dfs.FileID]float64{}
				for _, f := range files {
					slack[f.ID()] = float64(rng.Intn(4))
				}
				trueW := func(f *dfs.File) float64 { return m.key[f.ID()].W + slack[f.ID()] }
				// Few distinct weights and times, so ties reach the id component.
				randKey := func() (float64, time.Time) {
					w := float64(rng.Intn(6))
					if order.lazy {
						return w, time.Time{}
					}
					return w, sim.Epoch.Add(time.Duration(rng.Intn(8)) * time.Second)
				}
				counts := map[string]int{}
				for step := 0; step < 3000; step++ {
					f := files[rng.Intn(len(files))]
					id := f.ID()
					_, member := m.key[id]
					switch op := rng.Intn(10); {
					case op < 4:
						w, at := randKey()
						h.Update(f, w, at)
						m.key[id] = HeapKey{W: w, T: timeKey(at), ID: id}
						if m.parked[id] {
							counts["rekey-parked"]++
						}
					case op < 5:
						h.Remove(id)
						if m.parked[id] {
							counts["remove-parked"]++
						}
						delete(m.key, id)
						delete(m.parked, id)
					case op < 7:
						h.Park(id)
						if member {
							m.parked[id] = true
						}
					case op < 9:
						h.Unpark(id)
						if m.parked[id] {
							counts["unpark"]++
						}
						delete(m.parked, id)
					default:
						fresh := map[dfs.FileID]HeapKey{}
						h.Rekey(func(f *dfs.File) (float64, time.Time) {
							w, at := randKey()
							fresh[f.ID()] = HeapKey{W: w, T: timeKey(at), ID: f.ID()}
							return w, at
						})
						if len(fresh) != len(m.key) {
							t.Fatalf("step %d: Rekey visited %d members, model has %d", step, len(fresh), len(m.key))
						}
						m.key = fresh
					}

					// Membership, keys, parked bits.
					if h.Len() != len(m.key) {
						t.Fatalf("step %d: Len = %d, model %d", step, h.Len(), len(m.key))
					}
					seen := 0
					h.Each(func(f *dfs.File, k HeapKey) {
						seen++
						if want, ok := m.key[f.ID()]; !ok || want != k {
							t.Fatalf("step %d: Each yields %v for file %d, model %v (member %v)", step, k, f.ID(), want, ok)
						}
					})
					if seen != len(m.key) {
						t.Fatalf("step %d: Each visited %d, model %d", step, seen, len(m.key))
					}
					for _, f := range files {
						_, member := m.key[f.ID()]
						if h.Has(f.ID()) != member || h.IsParked(f.ID()) != m.parked[f.ID()] {
							t.Fatalf("step %d: file %d Has=%v IsParked=%v, model member=%v parked=%v",
								step, f.ID(), h.Has(f.ID()), h.IsParked(f.ID()), member, m.parked[f.ID()])
						}
						if k, ok := h.Key(f.ID()); ok != member || (ok && k != m.key[f.ID()]) {
							t.Fatalf("step %d: Key(%d) = %v, %v; model %v", step, f.ID(), k, ok, m.key[f.ID()])
						}
					}

					// Selections: each runs a pop-and-restore walk, so the
					// next step also proves the heap came back intact.
					want := m.files(m.ordered())
					var top *dfs.File
					if len(want) > 0 {
						top = want[0]
					}
					if got := h.SelectMin(); got != top {
						t.Fatalf("step %d: SelectMin = %v, oracle %v", step, got, top)
					}
					k := rng.Intn(len(files) + 2) // 0 means "all"
					wantK := want
					if k > 0 && k < len(want) {
						wantK = want[:k]
					}
					if got := h.TopK(k, nil); !slices.Equal(got, wantK) {
						t.Fatalf("step %d: TopK(%d) returned %d files, oracle %d", step, k, len(got), len(wantK))
					}
					cut := float64(rng.Intn(7))
					var wantAsc []*dfs.File
					for _, key := range m.ordered() {
						if key.W > cut {
							break
						}
						wantAsc = append(wantAsc, m.byID[key.ID])
					}
					var gotAsc []*dfs.File
					h.AscendWhile(func(k HeapKey) bool { return k.W <= cut }, func(f *dfs.File) { gotAsc = append(gotAsc, f) })
					if order.name != "time-descending" && !slices.Equal(gotAsc, wantAsc) {
						t.Fatalf("step %d: AscendWhile(W<=%v) visited %d files, oracle %d", step, cut, len(gotAsc), len(wantAsc))
					}
					if order.lazy {
						var best *dfs.File
						for _, f := range want {
							if best == nil || trueW(f) < trueW(best) || (trueW(f) == trueW(best) && f.ID() < best.ID()) {
								best = f
							}
						}
						if got := h.SelectMinLazy(trueW); got != best {
							t.Fatalf("step %d: SelectMinLazy = %v, oracle %v", step, got, best)
						}
					}
				}
				for _, what := range []string{"rekey-parked", "remove-parked", "unpark"} {
					if counts[what] < 20 {
						t.Errorf("only %d %s steps; the sequence is too tame to trust", counts[what], what)
					}
				}
			})
		}
	}
}

// flipWatcher runs a check the moment a file becomes resident on a tier,
// after the context's own listener has indexed the flip.
type flipWatcher struct {
	onResident func(f *dfs.File, m storage.Media)
}

func (flipWatcher) FileCreated(*dfs.File)         {}
func (flipWatcher) FileAccessed(*dfs.File, int64) {}
func (flipWatcher) FileDeleted(*dfs.File)         {}
func (flipWatcher) TierDataAdded(storage.Media)   {}
func (w flipWatcher) FileTierChanged(f *dfs.File, m storage.Media, resident bool) {
	if resident {
		w.onResident(f, m)
	}
}

// TestBusyFileEntersDestinationHeapParked follows one upgrade through the
// index: the busy file is parked wherever it is indexed, the destination flip
// (which fires before the mover reports Done) indexes it on the new tier
// already parked, and the clean completion returns it to selection order
// everywhere. The audit must hold at every one of those instants.
func TestBusyFileEntersDestinationHeapParked(t *testing.T) {
	ev := newEnv(t, dfs.ModePinnedHDD)
	ix := ev.ctx.Index()
	ix.RequireRecency()
	ix.RequireFrequency()
	ix.RequireUpgradeMRU()
	policyHeap := ix.NewHeap(nil) // stands in for a derived statistic's weight heap
	m := NewManager(ev.ctx, nil, &osaStub{ctx: ev.ctx})
	f := ev.create(t, "/f", 16*storage.MB)
	other := ev.create(t, "/other", 16*storage.MB)
	policyHeap.Update(f, 1, time.Time{})
	policyHeap.Update(other, 2, time.Time{})

	flips := 0
	ev.fs.AddListener(flipWatcher{onResident: func(g *dfs.File, tier storage.Media) {
		if g != f || tier != storage.Memory {
			return
		}
		flips++
		if !m.isBusy(f) {
			t.Error("destination flip fired after Done; the case is vacuous")
		}
		if !ix.recency[storage.Memory].IsParked(f.ID()) || !ix.freq[storage.Memory].IsParked(f.ID()) {
			t.Error("busy file entered the destination tier's heaps unparked")
		}
		if err := ix.Audit(); err != nil {
			t.Errorf("audit at the destination flip: %v", err)
		}
	}})

	m.tryUpgrade(f, "test")
	for _, h := range []*FileHeap{ix.recency[storage.HDD], ix.freq[storage.HDD], ix.mru, policyHeap} {
		if !h.IsParked(f.ID()) {
			t.Fatal("busy file still in heap order")
		}
	}
	if got := ix.SelectLRU(storage.HDD); got != other {
		t.Fatalf("SelectLRU with the older file busy = %v, want the other file", got)
	}
	if got := ev.ctx.UpgradeCandidates(0); len(got) != 1 || got[0] != other {
		t.Fatalf("UpgradeCandidates with one of two files busy = %v", got)
	}
	if got := policyHeap.SelectMin(); got != other {
		t.Fatalf("policy heap top with the lighter file busy = %v, want the other file", got)
	}
	if err := ix.Audit(); err != nil {
		t.Fatalf("audit while busy: %v", err)
	}
	ev.engine.Run()
	if flips != 1 {
		t.Fatalf("destination flips observed = %d, want 1", flips)
	}
	if m.Metrics().UpgradesScheduled != 1 {
		t.Fatalf("upgrade did not complete: %+v", m.Metrics())
	}
	for i, h := range ix.heaps {
		if h.IsParked(f.ID()) {
			t.Fatalf("heap %d still holds the file parked after a clean move", i)
		}
	}
	if !ix.recency[storage.Memory].Has(f.ID()) || ix.mru.Has(f.ID()) {
		t.Fatal("index membership did not follow the move")
	}
	if err := ix.Audit(); err != nil {
		t.Fatalf("audit after the move: %v", err)
	}
}

// TestAuditCatchesParkingDrift breaks the parked ⇔ on-record invariant both
// ways, and the cooldown ⇒ expiry-entry invariant, and requires the audit to
// notice each.
func TestAuditCatchesParkingDrift(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	ix := ev.ctx.Index()
	ix.RequireRecency()
	m := NewManager(ev.ctx, &lruStub{ctx: ev.ctx}, nil)
	f := ev.create(t, "/f", 16*storage.MB)
	if err := ix.Audit(); err != nil {
		t.Fatalf("clean audit: %v", err)
	}
	ix.recency[storage.Memory].Park(f.ID())
	if ix.Audit() == nil {
		t.Error("audit accepts a parked file that is neither busy nor cooling down")
	}
	ix.recency[storage.Memory].Unpark(f.ID())

	m.setCooldown(f, CooldownMoveFailed)
	if err := ix.Audit(); err != nil {
		t.Fatalf("audit with a cooldown on record: %v", err)
	}
	ix.recency[storage.Memory].Unpark(f.ID())
	if ix.Audit() == nil {
		t.Error("audit accepts a cooled-down file in heap order")
	}
	ix.recency[storage.Memory].Park(f.ID())

	saved := m.expiries
	m.expiries = nil
	if ix.Audit() == nil {
		t.Error("audit accepts a cooldown without an expiry entry")
	}
	m.expiries = saved
	if err := ix.Audit(); err != nil {
		t.Fatalf("audit after repair: %v", err)
	}
}

// failLater is a Mover that reports every request failed after the command
// latency, every third one as shed at admission.
type failLater struct {
	engine *sim.Engine
	n      int
}

func (mv *failLater) Enqueue(r MoveRequest) {
	mv.n++
	err := errors.New("injected move failure")
	if mv.n%3 == 0 {
		err = ErrMoveShed
	}
	mv.engine.Schedule(5*time.Second, func() { r.Done(err) })
}

// TestCooldownRecordDrainsAfterChurn is the leak check: files are deleted
// while their downgrades are still queued, so the mover's Done(err) fires
// after Manager.FileDeleted — which used to re-create a cooldown entry for a
// dead id that nothing ever asked about again. The run mixes that with
// cooldowns of live files, some deleted while cooling down, some expiring
// mid-run. After the churn plus failureCooldown of virtual time, the
// cooldown map and the expiry heap must both be empty.
func TestCooldownRecordDrainsAfterChurn(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	ev.ctx.Index().RequireRecency()
	m := NewManager(ev.ctx, &lruStub{ctx: ev.ctx}, nil)
	m.SetMover(&failLater{engine: ev.engine})
	doneAfterDelete := 0
	for round := 0; round < 12; round++ {
		var batch []*dfs.File
		for i := 0; i < 6; i++ {
			batch = append(batch, ev.create(t, fmt.Sprintf("/churn/r%02d/f%d", round, i), 16*storage.MB))
		}
		for i, f := range batch {
			if !f.HasReplicaOn(storage.Memory) || !ev.ctx.Selectable(f) {
				continue // not in memory, or the watermark loop already took it
			}
			m.scheduleDowngrade(f, storage.Memory, storage.SSD, "test")
			if i%2 == 0 {
				if err := ev.fs.Delete(f.Path()); err != nil {
					t.Fatalf("delete of a queued file: %v", err)
				}
				doneAfterDelete++
			}
		}
		ev.engine.RunFor(10 * time.Second) // past the mover's latency: every Done has fired
		if err := ev.ctx.Index().Audit(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Delete the survivors while they cool down; odd rounds keep one, so
		// live cooldowns stay on record without memory ever filling up.
		kept := round%2 == 0
		for _, f := range batch {
			if f.Deleted() {
				continue
			}
			if !kept {
				kept = true
				continue
			}
			if err := ev.fs.Delete(f.Path()); err != nil {
				t.Fatalf("delete of a cooled-down file: %v", err)
			}
		}
	}
	if doneAfterDelete < 10 || m.Metrics().DowngradeErrors < int64(doneAfterDelete) {
		t.Fatalf("churn too tame: %d deletes under a queued move, %d downgrade errors", doneAfterDelete, m.Metrics().DowngradeErrors)
	}
	if len(m.cooldown) == 0 || len(m.expiries) <= len(m.cooldown) {
		t.Fatalf("%d cooldowns and %d expiry entries right after the churn; the drain below would prove nothing",
			len(m.cooldown), len(m.expiries))
	}
	for id := range m.cooldown {
		if ev.fs.FileByID(id) == nil {
			t.Fatalf("cooldown on record for dead file %d", id)
		}
	}
	ev.engine.RunFor(failureCooldown + time.Second)
	ev.ctx.Index().SelectLRU(storage.Memory) // any selection releases what expired
	if len(m.cooldown) != 0 || len(m.expiries) != 0 {
		t.Fatalf("after failureCooldown: %d cooldowns and %d expiry entries still on record", len(m.cooldown), len(m.expiries))
	}
	if busy, cooling := m.ParkedFiles(); busy != 0 || cooling != 0 {
		t.Fatalf("parked gauges = %d busy, %d cooldown; want 0, 0", busy, cooling)
	}
	if m.Cooldowns(CooldownMoveFailed) == 0 || m.Cooldowns(CooldownShed) == 0 || m.Cooldowns(CooldownDeleteFailed) != 0 {
		t.Fatalf("cooldowns by reason: move_failed=%d shed=%d delete_failed=%d",
			m.Cooldowns(CooldownMoveFailed), m.Cooldowns(CooldownShed), m.Cooldowns(CooldownDeleteFailed))
	}
	if err := ev.ctx.Index().Audit(); err != nil {
		t.Fatal(err)
	}
}
