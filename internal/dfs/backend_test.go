package dfs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"octostore/internal/backend"
	"octostore/internal/cluster"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// backendScript drives one fs through a deterministic mixed workload:
// creates, moves, reads, deletes. Used to compare runs with different
// backends attached.
func backendScript(t *testing.T, e *sim.Engine, fs *FileSystem) []*File {
	t.Helper()
	var files []*File
	for i := 0; i < 6; i++ {
		files = append(files, createFile(t, e, fs,
			fmt.Sprintf("/w/f%d", i), int64(8+4*i)*storage.MB))
	}
	if err := moveSync(t, fs, files[0], storage.Memory, storage.SSD); err != nil {
		t.Fatal(err)
	}
	if err := moveSync(t, fs, files[1], storage.Memory, storage.HDD); err != nil {
		t.Fatal(err)
	}
	for _, f := range files[:3] {
		b := f.Blocks()[0]
		fs.ReadBlock(b, nil, func(ReadResult, error) {})
	}
	e.Run()
	if err := fs.Delete(files[5]); err != nil {
		t.Fatal(err)
	}
	e.Run()
	return files
}

// backendFingerprint captures everything a policy decision could observe:
// virtual time, movement stats, tier usage, and each file's per-tier bytes.
func backendFingerprint(e *sim.Engine, fs *FileSystem, files []*File) string {
	out := fmt.Sprintf("now=%v stats=%+v", e.Now(), fs.Stats())
	for _, m := range storage.AllMedia {
		used, cap := fs.Cluster().TierUsage(m)
		out += fmt.Sprintf(" %s=%d/%d", m, used, cap)
	}
	for i, f := range files {
		if f.Deleted() {
			out += fmt.Sprintf(" f%d=deleted", i)
			continue
		}
		out += fmt.Sprintf(" f%d=%d/%d/%d", i,
			f.BytesOn(storage.Memory), f.BytesOn(storage.SSD), f.BytesOn(storage.HDD))
	}
	return out
}

// TestSimBackendAttachedIsBitForBit is the tentpole's core contract: a
// backend is a synchronous physical mirror at the block-transfer seams — it
// schedules no events and draws no randomness — so attaching one (here the
// no-op Sim) must leave every control-plane decision identical to running
// with no backend at all.
func TestSimBackendAttachedIsBitForBit(t *testing.T) {
	e1, fs1 := testFS(t, ModeOctopus)
	files1 := backendScript(t, e1, fs1)

	e2, fs2 := testFS(t, ModeOctopus)
	fs2.SetBackend(backend.Sim{})
	files2 := backendScript(t, e2, fs2)

	got1 := backendFingerprint(e1, fs1, files1)
	got2 := backendFingerprint(e2, fs2, files2)
	if got1 != got2 {
		t.Fatalf("Sim-attached run diverged from nil-backend run:\n nil: %s\n sim: %s", got1, got2)
	}
}

// TestLocalBackendMirrorsReplicaLifecycle attaches a real-file backend to
// the dfs and checks the physical ground truth at every quiesce point: the
// bytes on disk per tier equal the ledger's used bytes, through create,
// move, and delete.
func TestLocalBackendMirrorsReplicaLifecycle(t *testing.T) {
	e, fs := testFS(t, ModeOctopus)
	l, err := backend.OpenLocal(backend.LocalConfig{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fs.SetBackend(l)

	checkDisk := func(step string) {
		t.Helper()
		used, err := l.DiskUsage()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range storage.AllMedia {
			ledger, _ := fs.Cluster().TierUsage(m)
			if used[m] != ledger {
				t.Fatalf("%s: %s tier disk=%d ledger=%d", step, m, used[m], ledger)
			}
		}
	}

	f := createFile(t, e, fs, "/f", 16*storage.MB)
	checkDisk("after create")

	if err := moveSync(t, fs, f, storage.Memory, storage.SSD); err != nil {
		t.Fatal(err)
	}
	checkDisk("after move")

	// The read path streams the replica file; a correct read is invisible to
	// accounting but must be counted by the backend.
	fs.ReadBlock(f.Blocks()[0], nil, func(ReadResult, error) {})
	e.Run()
	var reads int64
	for _, m := range storage.AllMedia {
		reads += l.Stats().PerTier[m].Read.Count
	}
	if reads == 0 {
		t.Fatal("read path never touched the physical backend")
	}

	if err := fs.Delete(f); err != nil {
		t.Fatal(err)
	}
	e.Run()
	checkDisk("after delete")
	var errs int64
	st := l.Stats()
	for _, m := range storage.AllMedia {
		for _, op := range backend.Ops {
			errs += st.PerTier[m].Op(op).Errors
		}
	}
	if errs != 0 {
		t.Fatalf("backend recorded %d I/O errors over a clean lifecycle", errs)
	}
}

// fakeHorizons is a scripted id-keyed horizon view for placement tests.
type fakeHorizons map[string]time.Time

func (f fakeHorizons) Horizon(id string, _ storage.Direction) time.Time { return f[id] }

// testHorizon is the horizon a placement reads through an id-keyed view,
// nil for no view.
func testHorizon(h idHorizons) horizonFunc {
	if h == nil {
		return nil
	}
	return idHorizon(h)
}

func placementCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	return cluster.MustNew(sim.NewEngine(), cluster.Config{
		Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec(),
	})
}

// TestPlacementBacklogZeroHorizonsBitForBit: a plane that reports no write
// backlog anywhere must produce exactly the placement a plane-less run
// does, at any Backlog weight — the penalty term only engages on a
// positive horizon.
func TestPlacementBacklogZeroHorizonsBitForBit(t *testing.T) {
	c := placementCluster(t)
	place := func(backlog idHorizons) []string {
		p := &octopusPlacement{
			cluster: c, rng: rand.New(rand.NewSource(11)),
			weights: DefaultPlacementWeights(), horizon: testHorizon(backlog),
		}
		var out []string
		for i := 0; i < 8; i++ {
			targets, err := p.PlaceBlock(16*storage.MB, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, tg := range targets {
				out = append(out, tg.Device.ID())
			}
		}
		return out
	}
	plain := place(nil)
	zeroed := place(fakeHorizons{})
	if fmt.Sprint(plain) != fmt.Sprint(zeroed) {
		t.Fatalf("zero-horizon plane changed placement:\n nil:  %v\n zero: %v", plain, zeroed)
	}
}

// TestPlacementBacklogSteersOffSaturatedTier: when the plane reports every
// memory device's write channel booked out for seconds, new blocks' first
// replicas must land elsewhere; an idle plane keeps the memory-first
// placement.
func TestPlacementBacklogSteersOffSaturatedTier(t *testing.T) {
	c := placementCluster(t)
	firstMedia := func(backlog idHorizons) storage.Media {
		p := &octopusPlacement{
			cluster: c, rng: rand.New(rand.NewSource(5)),
			weights: DefaultPlacementWeights(), horizon: testHorizon(backlog),
		}
		targets, err := p.PlaceBlock(16*storage.MB, 3)
		if err != nil {
			t.Fatal(err)
		}
		return targets[0].Device.Media()
	}
	if m := firstMedia(nil); m != storage.Memory {
		t.Fatalf("idle placement leads with %s, want MEM", m)
	}
	// Saturate every memory device: horizon 10 virtual seconds out.
	sat := fakeHorizons{}
	deadline := c.Engine().Now().Add(10 * time.Second)
	for _, n := range c.Nodes() {
		for _, d := range n.Devices(storage.Memory) {
			sat[d.ID()] = deadline
		}
	}
	if m := firstMedia(sat); m == storage.Memory {
		t.Fatal("placement still leads with a saturated memory device")
	}
}

// TestAttachUnderAFileLeavesNothing attaches a file where a file sits in
// place of a directory on its path. The attach must fail before it reserves
// or writes anything: the backend sees no block write, and disk and ledger
// agree afterwards.
func TestAttachUnderAFileLeavesNothing(t *testing.T) {
	eA, fsA := testFS(t, ModeOctopus)
	eB, fsB := testFS(t, ModeOctopus)
	l, err := backend.OpenLocal(backend.LocalConfig{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fsB.SetBackend(l)
	src := createFile(t, eA, fsA, "/src/f", 40*storage.MB)
	createFile(t, eB, fsB, "/a/f", 16*storage.MB)
	rec, err := fsA.SnapshotFile(src)
	if err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	rec.Path = "/a/f/x"
	if _, err := fsB.AttachFile(rec); !errors.Is(err, ErrNotDirectory) {
		t.Fatalf("attach under a file: %v, want ErrNotDirectory", err)
	}
	after := l.Stats()
	for _, m := range storage.AllMedia {
		if w, w0 := after.PerTier[m].Write.Count, before.PerTier[m].Write.Count; w != w0 {
			t.Fatalf("%s tier: the failed attach wrote %d blocks", m, w-w0)
		}
	}
	used, err := l.DiskUsage()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range storage.AllMedia {
		if ledger, _ := fsB.Cluster().TierUsage(m); used[m] != ledger {
			t.Fatalf("%s tier: disk=%d ledger=%d after the failed attach", m, used[m], ledger)
		}
	}
	if err := fsB.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
}
