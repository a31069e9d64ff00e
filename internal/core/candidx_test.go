package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"octostore/internal/cluster"
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

// heapOrders are the orderings the model test and the fuzz target cover.
var heapOrders = []struct {
	name string
	less func(a, b HeapKey) bool
	lazy bool // keys are (w, 0, id) lower bounds; SelectMinLazy is checked too
}{
	{"ascending", HeapKey.Less, false},
	{"time-descending", TimeDescending, false},
	{"lazy-weights", HeapKey.Less, true},
}

// draws is where a heap exercise takes its choices from: a seeded rng in the
// model test, the input bytes in FuzzFileHeap.
type draws interface{ Intn(n int) int }

// byteDraws reads one choice per input byte, and zeros once it runs dry.
type byteDraws struct{ data []byte }

func (b *byteDraws) Intn(n int) int {
	if len(b.data) == 0 {
		return 0
	}
	v := int(b.data[0]) % n
	b.data = b.data[1:]
	return v
}

// heapExercise is a standalone FileHeap next to its sorted-slice oracle. Its
// file pool lives in a file system, so a recycle step can delete a file and
// create another on the slot it freed.
type heapExercise struct {
	order   int // into heapOrders
	ev      *env
	files   []*dfs.File
	retired []*dfs.File // files recycled out of the pool: members of nothing
	h       *FileHeap
	m       *heapModel
	slack   map[dfs.FileID]float64 // lazy order: exact weight = stored bound + slack
	counts  map[string]int
	topK    []*dfs.File
}

func newHeapExercise(t testing.TB, order int, src draws) *heapExercise {
	ev, files := heapExerciseFiles(t)
	x := &heapExercise{
		order: order,
		ev:    ev,
		files: files,
		h:     NewFileHeap(heapOrders[order].less, ev.fs.FileAt),
		m: &heapModel{
			less:   heapOrders[order].less,
			key:    map[dfs.FileID]HeapKey{},
			parked: map[dfs.FileID]bool{},
			byID:   map[dfs.FileID]*dfs.File{},
		},
		slack:  map[dfs.FileID]float64{},
		counts: map[string]int{},
	}
	for _, f := range files {
		x.m.byID[f.ID()] = f
		// slack >= 0: stored keys stay lower bounds whatever the ops do.
		x.slack[f.ID()] = float64(src.Intn(4))
	}
	return x
}

func (x *heapExercise) trueW(f *dfs.File) float64 { return x.m.key[f.ID()].W + x.slack[f.ID()] }

// recycle replaces pool file i the way the file system turns a slot over: the
// index drops the file when it is deleted, and the next file created takes
// its slot under a new id. Files recycled out stay on record as retired, so
// every step checks that the heap answers nothing for them.
func (x *heapExercise) recycle(t testing.TB, i int, src draws) {
	old := x.files[i]
	x.h.Remove(old)
	delete(x.m.key, old.ID())
	delete(x.m.parked, old.ID())
	if err := x.ev.fs.Delete(old.Path()); err != nil {
		t.Fatalf("recycle %s: %v", old.Path(), err)
	}
	f := x.ev.create(t, fmt.Sprintf("/prop/r%05d", len(x.retired)), storage.MB)
	if f.Slot() != old.Slot() || f.ID() == old.ID() {
		t.Fatalf("recycle: new file has slot %d id %d, the freed slot was %d under id %d", f.Slot(), f.ID(), old.Slot(), old.ID())
	}
	x.files[i] = f
	x.retired = append(x.retired, old)
	x.m.byID[f.ID()] = f
	x.slack[f.ID()] = float64(src.Intn(4))
	x.counts["recycle"]++
}

// step applies one drawn Update / Remove / Park / Unpark / Rekey / recycle —
// re-keys and removals of parked members included — and then compares
// membership, keys, parked bits and every selection method against the
// oracle, requiring each selection to leave items, parked and pos as it found
// them.
func (x *heapExercise) step(t testing.TB, step int, src draws) {
	h, m, lazy := x.h, x.m, heapOrders[x.order].lazy
	// Few distinct weights and times, so ties reach the id component.
	randKey := func() (float64, time.Time) {
		w := float64(src.Intn(6))
		if lazy {
			return w, time.Time{}
		}
		return w, sim.Epoch.Add(time.Duration(src.Intn(8)) * time.Second)
	}
	i := src.Intn(len(x.files))
	f := x.files[i]
	id := f.ID()
	_, member := m.key[id]
	switch op := src.Intn(11); {
	case op < 4:
		w, at := randKey()
		h.Update(f, w, at)
		m.key[id] = HeapKey{W: w, T: timeKey(at), ID: id}
		if m.parked[id] {
			x.counts["rekey-parked"]++
		}
	case op < 5:
		h.Remove(f)
		if m.parked[id] {
			x.counts["remove-parked"]++
		}
		delete(m.key, id)
		delete(m.parked, id)
	case op < 7:
		h.Park(f)
		if member {
			m.parked[id] = true
		}
	case op < 9:
		h.Unpark(f)
		if m.parked[id] {
			x.counts["unpark"]++
		}
		delete(m.parked, id)
	case op < 10:
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
	default:
		x.recycle(t, i, src)
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
	for _, f := range x.files {
		_, member := m.key[f.ID()]
		if h.Has(f) != member || h.IsParked(f) != m.parked[f.ID()] {
			t.Fatalf("step %d: file %d Has=%v IsParked=%v, model member=%v parked=%v",
				step, f.ID(), h.Has(f), h.IsParked(f), member, m.parked[f.ID()])
		}
		if k, ok := h.Key(f); ok != member || (ok && k != m.key[f.ID()]) {
			t.Fatalf("step %d: Key(%d) = %v, %v; model %v", step, f.ID(), k, ok, m.key[f.ID()])
		}
	}
	for _, f := range x.retired {
		if _, ok := h.Key(f); ok || h.Has(f) || h.IsParked(f) {
			t.Fatalf("step %d: retired file %d (slot %d) is still a member", step, f.ID(), f.Slot())
		}
	}
	for i, e := range h.items {
		if i > 0 && h.less(e.key(), h.items[(i-1)/2].key()) {
			t.Fatalf("step %d: items[%d] = %v sorts before its parent %v", step, i, e.key(), h.items[(i-1)/2].key())
		}
	}

	// Selections are read-only walks.
	items, parked, pos := slices.Clone(h.items), slices.Clone(h.parked), slices.Clone(h.pos)
	untouched := func(what string) {
		if !slices.Equal(h.items, items) || !slices.Equal(h.parked, parked) || !slices.Equal(h.pos, pos) {
			t.Fatalf("step %d: %s modified the heap", step, what)
		}
	}
	want := m.files(m.ordered())
	var top *dfs.File
	if len(want) > 0 {
		top = want[0]
	}
	if got := h.SelectMin(); got != top {
		t.Fatalf("step %d: SelectMin = %v, oracle %v", step, got, top)
	}
	untouched("SelectMin")
	k := src.Intn(len(x.files) + 2) // 0 means "all"
	wantK := want
	if k > 0 && k < len(want) {
		wantK = want[:k]
	}
	if x.topK = h.TopK(k, x.topK[:0]); !slices.Equal(x.topK, wantK) {
		t.Fatalf("step %d: TopK(%d) returned %d files, oracle %d", step, k, len(x.topK), len(wantK))
	}
	untouched("TopK")
	cut := float64(src.Intn(7))
	var wantAsc []*dfs.File
	for _, key := range m.ordered() {
		if key.W > cut {
			break
		}
		wantAsc = append(wantAsc, m.byID[key.ID])
	}
	var gotAsc []*dfs.File
	h.AscendWhile(func(k HeapKey) bool { return k.W <= cut }, func(f *dfs.File) { gotAsc = append(gotAsc, f) })
	if heapOrders[x.order].name != "time-descending" && !slices.Equal(gotAsc, wantAsc) {
		t.Fatalf("step %d: AscendWhile(W<=%v) visited %d files, oracle %d", step, cut, len(gotAsc), len(wantAsc))
	}
	untouched("AscendWhile")
	if lazy {
		var best *dfs.File
		for _, f := range want {
			if best == nil || x.trueW(f) < x.trueW(best) || (x.trueW(f) == x.trueW(best) && f.ID() < best.ID()) {
				best = f
			}
		}
		if got := h.SelectMinLazy(x.trueW); got != best {
			t.Fatalf("step %d: SelectMinLazy = %v, oracle %v", step, got, best)
		}
		untouched("SelectMinLazy")
	}
}

func heapExerciseFiles(t testing.TB) (*env, []*dfs.File) {
	ev := newEnv(t, dfs.ModePinnedHDD)
	var files []*dfs.File
	for i := 0; i < 48; i++ {
		files = append(files, ev.create(t, fmt.Sprintf("/prop/f%02d", i), storage.MB))
	}
	return ev, files
}

// TestFileHeapAgainstSortedOracle drives a standalone FileHeap with random
// op sequences under each ordering (see heapExercise.step), and requires the
// selections the policies run per decision to allocate nothing.
func TestFileHeapAgainstSortedOracle(t *testing.T) {
	for order := range heapOrders {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", heapOrders[order].name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				x := newHeapExercise(t, order, rng)
				for step := 0; step < 3000; step++ {
					x.step(t, step, rng)
				}
				for _, what := range []string{"rekey-parked", "remove-parked", "unpark", "recycle"} {
					if x.counts[what] < 20 {
						t.Errorf("only %d %s steps; the sequence is too tame to trust", x.counts[what], what)
					}
				}
				if len(x.h.items) < 8 {
					t.Fatalf("only %d members in heap order; the allocation check would prove nothing", len(x.h.items))
				}
				if n := testing.AllocsPerRun(20, func() { x.h.SelectMin() }); n != 0 {
					t.Errorf("SelectMin allocates %v times per call", n)
				}
				if n := testing.AllocsPerRun(20, func() { x.topK = x.h.TopK(0, x.topK[:0]) }); n != 0 {
					t.Errorf("TopK into a reused buffer allocates %v times per call", n)
				}
			})
		}
	}
}

// FuzzFileHeap decodes its input into the same op sequence the model test
// draws from an rng (one choice per byte) and holds the heap to the same
// oracle after every op, slot recycles included: the id-keyed oracle must
// agree while the heap indexes by slots that change hands. The seed corpus is
// a prefix of the model test's choices under each ordering; plain `go test`
// runs it.
func FuzzFileHeap(f *testing.F) {
	for order := range heapOrders {
		rng := rand.New(rand.NewSource(1))
		ops := make([]byte, 1024)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		f.Add(uint8(order), ops)
	}
	f.Fuzz(func(t *testing.T, order uint8, ops []byte) {
		src := &byteDraws{data: ops}
		x := newHeapExercise(t, int(order)%len(heapOrders), src)
		for step := 0; len(src.data) > 0; step++ {
			x.step(t, step, src)
		}
	})
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
	policyHeap := ix.NewHeap(nil, -1) // stands in for a derived statistic's weight heap
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
		if !ix.recency.tiers[storage.Memory].IsParked(f) || !ix.freq.tiers[storage.Memory].IsParked(f) {
			t.Error("busy file entered the destination tier's heaps unparked")
		}
		if err := ix.Audit(); err != nil {
			t.Errorf("audit at the destination flip: %v", err)
		}
	}})

	m.tryUpgrade(f, "test")
	for _, h := range []*FileHeap{ix.recency.tiers[storage.HDD], ix.freq.tiers[storage.HDD], ix.mru, policyHeap} {
		if !h.IsParked(f) {
			t.Fatal("busy file still in heap order")
		}
	}
	if got := ix.SelectLRU(storage.HDD); got != other {
		t.Fatalf("SelectLRU with the older file busy = %v, want the other file", got)
	}
	if got := ev.ctx.UpgradeCandidatesInto(nil, 0); len(got) != 1 || got[0] != other {
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
		if h.IsParked(f) {
			t.Fatalf("heap %d still holds the file parked after a clean move", i)
		}
	}
	if !ix.recency.tiers[storage.Memory].Has(f) || ix.mru.Has(f) {
		t.Fatal("index membership did not follow the move")
	}
	if err := ix.Audit(); err != nil {
		t.Fatalf("audit after the move: %v", err)
	}
}

// TestAuditCatchesParkingDrift breaks the parked ⇔ on-record invariant both
// ways and requires the audit to notice each. (There is no "cooldown without
// a release entry" case: the cooldown record is the release heap.)
func TestAuditCatchesParkingDrift(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	ix := ev.ctx.Index()
	ix.RequireRecency()
	m := NewManager(ev.ctx, &lruStub{ctx: ev.ctx}, nil)
	f := ev.create(t, "/f", 16*storage.MB)
	if err := ix.Audit(); err != nil {
		t.Fatalf("clean audit: %v", err)
	}
	ix.recency.tiers[storage.Memory].Park(f)
	if ix.Audit() == nil {
		t.Error("audit accepts a parked file that is neither busy nor cooling down")
	}
	ix.recency.tiers[storage.Memory].Unpark(f)

	m.setCooldown(f, CooldownMoveFailed)
	if err := ix.Audit(); err != nil {
		t.Fatalf("audit with a cooldown on record: %v", err)
	}
	ix.recency.tiers[storage.Memory].Unpark(f)
	if ix.Audit() == nil {
		t.Error("audit accepts a cooled-down file in heap order")
	}
	ix.recency.tiers[storage.Memory].Park(f)
	if err := ix.Audit(); err != nil {
		t.Fatalf("audit after repair: %v", err)
	}
}

// failLater is a Mover that always has room and reports every request failed
// after the command latency.
type failLater struct{ engine *sim.Engine }

func (mv *failLater) Enqueue(r MoveRequest) {
	mv.engine.Schedule(5*time.Second, func() { r.Done(errors.New("injected move failure")) })
}
func (mv *failLater) Room(storage.Media) bool       { return true }
func (mv *failLater) OnRoom(func(to storage.Media)) {}

// TestCooldownRecordDrainsAfterChurn is the leak check: files are deleted
// while their downgrades are still queued, so the mover's Done(err) fires
// after Manager.FileDeleted and must not put a dead id on record. The run
// mixes that with cooldowns of live files — some cooled twice before the
// first cooldown runs out, some deleted while cooling down, some expiring
// mid-run. The record holds one entry per cooling file throughout, every
// entry resolves, a delete shrinks it at once, and after the churn plus
// failureCooldown of virtual time it is empty.
func TestCooldownRecordDrainsAfterChurn(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	ev.ctx.Index().RequireRecency()
	m := NewManager(ev.ctx, &lruStub{ctx: ev.ctx}, nil)
	m.SetMover(&failLater{engine: ev.engine})
	checkRecord := func(when string) {
		t.Helper()
		for _, e := range m.cooling.items {
			if f := ev.fs.FileAt(e.slot(), e.id()); f == nil || f.Deleted() {
				t.Fatalf("%s: cooldown on record for dead file %d", when, e.id())
			}
		}
		if len(m.cooling.parked) != 0 {
			t.Fatalf("%s: %d entries parked in the cooldown record", when, len(m.cooling.parked))
		}
	}
	doneAfterDelete, recooled, deletedCooling := 0, 0, 0
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
		checkRecord(fmt.Sprintf("round %d", round))
		// Cool every cooling survivor a second time: the entry is superseded in
		// place, under the later time.
		for _, f := range batch {
			before, cooling := m.cooling.Key(f)
			if !cooling {
				continue
			}
			n := m.cooling.Len()
			m.setCooldown(f, CooldownMoveFailed)
			after, _ := m.cooling.Key(f)
			if m.cooling.Len() != n || after.T <= before.T {
				t.Fatalf("round %d: re-cooling file %d: %d -> %d entries, until %d -> %d",
					round, f.ID(), n, m.cooling.Len(), before.T, after.T)
			}
			recooled++
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
			n, cooling := m.cooling.Len(), m.cooling.Has(f)
			if err := ev.fs.Delete(f.Path()); err != nil {
				t.Fatalf("delete of a cooled-down file: %v", err)
			}
			if cooling {
				deletedCooling++
				if m.cooling.Len() != n-1 || m.cooling.Has(f) {
					t.Fatalf("round %d: deleting cooling file %d left %d of %d entries", round, f.ID(), m.cooling.Len(), n)
				}
			}
		}
		if _, c := m.ParkedFiles(); c != int64(m.cooling.Len()) {
			t.Fatalf("round %d: cooldown gauge %d, record holds %d", round, c, m.cooling.Len())
		}
	}
	if doneAfterDelete < 10 || m.Metrics().DowngradeErrors < int64(doneAfterDelete) {
		t.Fatalf("churn too tame: %d deletes under a queued move, %d downgrade errors", doneAfterDelete, m.Metrics().DowngradeErrors)
	}
	if m.cooling.Len() == 0 || recooled < 10 || deletedCooling < 10 {
		t.Fatalf("%d cooldowns right after the churn, %d re-cooled, %d deleted while cooling; the drain below would prove nothing",
			m.cooling.Len(), recooled, deletedCooling)
	}
	checkRecord("after the churn")
	ev.engine.RunFor(failureCooldown + time.Second)
	ev.ctx.Index().SelectLRU(storage.Memory) // any selection releases what expired
	if m.cooling.Len() != 0 {
		t.Fatalf("after failureCooldown: %d cooldowns still on record", m.cooling.Len())
	}
	if busy, cooling := m.ParkedFiles(); busy != 0 || cooling != 0 {
		t.Fatalf("parked gauges = %d busy, %d cooldown; want 0, 0", busy, cooling)
	}
	if m.Cooldowns(CooldownMoveFailed) == 0 || m.Cooldowns(CooldownDeleteFailed) != 0 {
		t.Fatalf("cooldowns by reason: move_failed=%d delete_failed=%d",
			m.Cooldowns(CooldownMoveFailed), m.Cooldowns(CooldownDeleteFailed))
	}
	if err := ev.ctx.Index().Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditCatchesStrayInWeightHeap swaps one member of a derived statistic's
// memory-tier weight heap for a file that lives only on HDD. The member count
// still matches the tier, so only an audit by file identity notices.
func TestAuditCatchesStrayInWeightHeap(t *testing.T) {
	ev := newEnv(t, dfs.ModeOctopus)
	w := ev.ctx.DecayedWeight(formula1{time.Hour}) // LRFU's decay
	w.RequireOrder()
	inMemory := ev.create(t, "/a", 16*storage.MB)
	onHDD := ev.create(t, "/b", 16*storage.MB)
	for _, tier := range []storage.Media{storage.Memory, storage.SSD} {
		if err := ev.fs.DeleteFileReplicas(onHDD, tier); err != nil {
			t.Fatalf("drop %v replicas: %v", tier, err)
		}
	}
	if !inMemory.HasReplicaOn(storage.Memory) || onHDD.HasReplicaOn(storage.Memory) || !onHDD.HasReplicaOn(storage.HDD) {
		t.Fatal("population is not the two-tier one the case needs")
	}
	if err := ev.ctx.Index().Audit(); err != nil {
		t.Fatalf("clean audit: %v", err)
	}
	h := w.order.tiers[storage.Memory]
	h.Remove(inMemory)
	h.Update(onHDD, 0, time.Time{})
	if ev.ctx.Index().Audit() == nil {
		t.Error("audit accepts a weight heap that lost a resident file and kept a stray one")
	}
}

// deleteAll is a downgrade policy that always runs on the bottom tier, never
// stops, and wants every file's replicas there deleted; examined counts the
// verdicts per file.
type deleteAll struct {
	NopCallbacks
	ctx      *Context
	examined map[dfs.FileID]int
}

func (p *deleteAll) Name() string                         { return "delete-all" }
func (p *deleteAll) StartDowngrade(m storage.Media) bool  { return m == storage.HDD }
func (p *deleteAll) StopDowngrade(storage.Media) bool     { return false }
func (p *deleteAll) SelectFile(m storage.Media) *dfs.File { return p.ctx.Index().SelectLRU(m) }
func (p *deleteAll) SelectTargetTier(f *dfs.File, _ storage.Media) (storage.Media, bool) {
	p.examined[f.ID()]++
	return 0, true
}

// TestLastCopyExaminedOncePerResidencyChange: a file whose only copy sits on
// the bottom tier cannot be downgraded from it, and the manager must find that
// out once — not once per selection, not once a minute. The refusal parks the
// file in that tier's heaps only (it stays an upgrade candidate), no cooldown
// is booked, and only a change of the file's residency makes it a candidate
// there again. The audit holds throughout, a cooldown on top included.
func TestLastCopyExaminedOncePerResidencyChange(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec()})
	fs := dfs.MustNew(c, dfs.Config{Mode: dfs.ModePinnedHDD, Replication: 1, BlockSize: 16 * storage.MB, Seed: 3})
	ev := &env{engine: e, fs: fs, ctx: NewContext(fs, DefaultConfig())}
	ix := ev.ctx.Index()
	ix.RequireRecency()
	ix.RequireFrequency()
	ix.RequireUpgradeMRU()
	down := &deleteAll{ctx: ev.ctx, examined: map[dfs.FileID]int{}}
	m := NewManager(ev.ctx, down, nil)
	audit := func(when string) {
		t.Helper()
		if err := ix.Audit(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}

	var files []*dfs.File
	for i := 0; i < 5; i++ {
		files = append(files, ev.create(t, pathN(i), 16*storage.MB)) // each create's TierDataAdded runs the loop
	}
	for i := 0; i < 4; i++ {
		m.runDowngrade(storage.HDD, "test")
	}
	for _, f := range files {
		if n := down.examined[f.ID()]; n != 1 {
			t.Fatalf("%s examined %d times over %d passes, want once", f.Path(), n, 4+len(files))
		}
	}
	if got := len(m.lastCopy); got != 5 || m.Metrics().DowngradeErrors != 5 {
		t.Fatalf("%d files on record as last copies, %d downgrade errors; want 5, 5", got, m.Metrics().DowngradeErrors)
	}
	for _, r := range CooldownReasons {
		if n := m.Cooldowns(r); n != 0 {
			t.Fatalf("%d %v cooldowns booked for last copies", n, r)
		}
	}
	if ix.SelectLRU(storage.HDD) != nil || len(ev.ctx.EligibleFiles(storage.HDD)) != 0 {
		t.Fatal("a last copy is still a downgrade candidate on its tier")
	}
	if got := len(ev.ctx.UpgradeCandidatesInto(nil, 0)); got != 5 {
		t.Fatalf("%d upgrade candidates, want all 5: the refusal is about one tier", got)
	}
	audit("all five refused")

	// A cooldown on top of the mark, run out: the file returns to the orders
	// the mark does not cover, and only to those.
	m.setCooldown(files[1], CooldownMoveFailed)
	audit("cooldown over a last-copy mark")
	e.RunFor(failureCooldown + time.Second)
	ix.SelectLRU(storage.HDD) // any selection releases what expired
	if !ix.recency.tiers[storage.HDD].IsParked(files[1]) || ix.mru.IsParked(files[1]) {
		t.Fatal("an expired cooldown must leave the last copy parked on its tier and nowhere else")
	}
	audit("cooldown expired")

	// Residency changes: up to memory and back down. Each flip lifts the mark;
	// back on HDD the file is examined exactly once more.
	move := func(from, to storage.Media) {
		t.Helper()
		if err := fs.MoveFileReplicas(files[0], from, to, nil); err != nil {
			t.Fatal(err)
		}
		e.Run()
	}
	move(storage.HDD, storage.Memory)
	if got := len(m.lastCopy); got != 4 {
		t.Fatalf("%d files on record after one left the tier, want 4", got)
	}
	audit("one file upgraded")
	move(storage.Memory, storage.HDD) // the commit's TierDataAdded(HDD) runs the loop
	m.runDowngrade(storage.HDD, "test")
	for i, f := range files {
		if want := map[bool]int{true: 2, false: 1}[i == 0]; down.examined[f.ID()] != want {
			t.Fatalf("%s examined %d times, want %d", f.Path(), down.examined[f.ID()], want)
		}
	}
	if got := len(m.lastCopy); got != 5 {
		t.Fatalf("%d files on record at the end, want 5", got)
	}
	audit("file back on the tier")

	if err := fs.Delete(files[2].Path()); err != nil {
		t.Fatal(err)
	}
	if got := len(m.lastCopy); got != 4 {
		t.Fatalf("%d files on record after a delete, want 4", got)
	}
	audit("a marked file deleted")
}
