package dfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"octostore/internal/cluster"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// liveReplicaBytes sums block sizes over all live replicas in the system.
func liveReplicaBytes(fs *FileSystem) int64 {
	var total int64
	for _, f := range fs.Files() {
		for _, b := range f.Blocks() {
			for _, r := range b.Replicas() {
				if r.State() != ReplicaDeleting {
					total += b.Size()
				}
			}
		}
	}
	return total
}

// deviceUsedBytes sums reservations across all devices.
func deviceUsedBytes(fs *FileSystem) int64 {
	var total int64
	for _, n := range fs.Cluster().Nodes() {
		for _, d := range n.AllDevices() {
			total += d.Used()
		}
	}
	return total
}

// TestPropertyCapacityConservation drives a random sequence of creates,
// deletes, tier moves, copies and replica deletions, and checks after each
// quiescent point that device reservations exactly equal the bytes of live
// replicas — no leaks, no double releases.
func TestPropertyCapacityConservation(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		e := sim.NewEngine()
		c := cluster.MustNew(e, cluster.Config{
			Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec(),
		})
		fs := MustNew(c, Config{Mode: ModeOctopus, BlockSize: 8 * storage.MB, Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		var paths []string
		nextID := 0
		for _, op := range ops {
			switch op % 5 {
			case 0: // create
				path := pathN("/p", nextID)
				nextID++
				fs.Create(path, int64(1+rng.Intn(24))*storage.MB, func(f *File, err error) {
					if err == nil {
						paths = append(paths, path)
					}
				})
			case 1: // delete
				if len(paths) > 0 {
					i := rng.Intn(len(paths))
					if f, err := fs.Open(paths[i]); err == nil && fs.Delete(f) == nil {
						paths = append(paths[:i], paths[i+1:]...)
					}
				}
			case 2: // move down
				if len(paths) > 0 {
					if f, err := fs.Open(paths[rng.Intn(len(paths))]); err == nil {
						_ = fs.MoveFileReplicas(f, storage.Memory, storage.SSD, nil)
					}
				}
			case 3: // copy up
				if len(paths) > 0 {
					if f, err := fs.Open(paths[rng.Intn(len(paths))]); err == nil {
						_ = fs.CopyFileReplicas(f, storage.Memory, nil)
					}
				}
			case 4: // delete one tier's replicas
				if len(paths) > 0 {
					if f, err := fs.Open(paths[rng.Intn(len(paths))]); err == nil {
						_ = fs.DeleteFileReplicas(f, storage.SSD)
					}
				}
			}
			e.Run() // quiesce
			if liveReplicaBytes(fs) != deviceUsedBytes(fs) {
				t.Logf("divergence after op %d: replicas=%d devices=%d",
					op, liveReplicaBytes(fs), deviceUsedBytes(fs))
				return false
			}
			if err := fs.CheckInvariants(); err != nil {
				t.Logf("invariants after op %d: %v", op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyInvariantsUnderChurnAndNodeLoss extends the random-ops
// property with mid-flight invariant checks (no quiescing between ops) and
// node membership churn: every event boundary must satisfy the O(devices)
// accounting check, and quiescent points the deep check.
func TestPropertyInvariantsUnderChurnAndNodeLoss(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		e := sim.NewEngine()
		c := cluster.MustNew(e, cluster.Config{
			Workers: 4, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec(),
		})
		fs := MustNew(c, Config{Mode: ModeOctopus, BlockSize: 8 * storage.MB, Seed: seed})
		var bad error
		e.SetEventHook(func() {
			if bad == nil {
				bad = fs.CheckAccounting()
			}
		})
		rng := rand.New(rand.NewSource(seed))
		var paths []string
		nextID := 0
		for _, op := range ops {
			switch op % 7 {
			case 0, 1: // create
				path := pathN("/p", nextID)
				nextID++
				fs.Create(path, int64(1+rng.Intn(24))*storage.MB, func(f *File, err error) {
					if err == nil {
						paths = append(paths, path)
					}
				})
			case 2: // delete
				if len(paths) > 0 {
					i := rng.Intn(len(paths))
					if f, err := fs.Open(paths[i]); err == nil && fs.Delete(f) == nil {
						paths = append(paths[:i], paths[i+1:]...)
					}
				}
			case 3: // move down
				if len(paths) > 0 {
					if f, err := fs.Open(paths[rng.Intn(len(paths))]); err == nil {
						_ = fs.MoveFileReplicas(f, storage.Memory, storage.SSD, nil)
					}
				}
			case 4: // copy up
				if len(paths) > 0 {
					if f, err := fs.Open(paths[rng.Intn(len(paths))]); err == nil {
						_ = fs.CopyFileReplicas(f, storage.Memory, nil)
					}
				}
			case 5: // node churn: drop a node (keeping at least two), add one back
				nodes := fs.Cluster().Nodes()
				if len(nodes) > 2 {
					fs.FailNode(nodes[rng.Intn(len(nodes))])
				} else {
					fs.AddNode(storage.SmallWorkerSpec(), 2)
				}
			case 6: // run a few events without quiescing, then keep going
				for i := 0; i < 5 && e.Step(); i++ {
				}
			}
			if bad != nil {
				t.Logf("accounting violated mid-flight: %v", bad)
				return false
			}
		}
		e.Run()
		if bad != nil {
			t.Logf("accounting violated: %v", bad)
			return false
		}
		if err := fs.CheckInvariants(); err != nil {
			t.Logf("deep invariants: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyReplicationNeverExceedsNodes checks that placement never puts
// two replicas of one block on the same node at create time.
func TestPropertyDistinctNodePlacement(t *testing.T) {
	f := func(seed int64, sizes []uint8) bool {
		e := sim.NewEngine()
		c := cluster.MustNew(e, cluster.Config{
			Workers: 4, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec(),
		})
		fs := MustNew(c, Config{Mode: ModeOctopus, BlockSize: 8 * storage.MB, Seed: seed})
		for i, s := range sizes {
			if i > 20 {
				break
			}
			fs.Create(pathN("/d", i), int64(s%32)*storage.MB, nil)
			e.Run()
		}
		for _, f := range fs.Files() {
			for _, b := range f.Blocks() {
				nodes := map[int]int{}
				for _, r := range b.Replicas() {
					nodes[r.Node().ID()]++
					if nodes[r.Node().ID()] > 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementDiversityAblation validates the tier-diversity objective the
// design calls out: with the diversity weight zeroed, a block's replicas
// pile onto the memory tier; with the default weights they spread across
// all three tiers.
func TestPlacementDiversityAblation(t *testing.T) {
	build := func(weights PlacementWeights) *File {
		e := sim.NewEngine()
		c := cluster.MustNew(e, cluster.Config{
			Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec(),
		})
		fs := MustNew(c, Config{Mode: ModeOctopus, BlockSize: 8 * storage.MB, Seed: 5})
		fs.placement = &octopusPlacement{cluster: c, rng: fs.rng, weights: weights}
		var file *File
		fs.Create("/f", 8*storage.MB, func(f *File, err error) {
			if err != nil {
				t.Fatal(err)
			}
			file = f
		})
		e.Run()
		return file
	}

	noDiversity := DefaultPlacementWeights()
	noDiversity.Diversity = 0
	f1 := build(noDiversity)
	mem := 0
	for _, r := range f1.Blocks()[0].Replicas() {
		if r.Media() == storage.Memory {
			mem++
		}
	}
	if mem < 2 {
		t.Fatalf("without diversity: %d memory replicas, expected clustering", mem)
	}

	f2 := build(DefaultPlacementWeights())
	media := map[storage.Media]int{}
	for _, r := range f2.Blocks()[0].Replicas() {
		media[r.Media()]++
	}
	if len(media) != 3 {
		t.Fatalf("with diversity: tier spread = %v, want all three tiers", media)
	}
}

// TestReadDuringHeavyChurn reads blocks while moves are in flight across
// the whole file set — no read may fail and accounting must stay exact.
func TestReadDuringHeavyChurn(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{
		Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec(),
	})
	fs := MustNew(c, Config{Mode: ModeOctopus, BlockSize: 8 * storage.MB, Seed: 11})
	var files []*File
	for i := 0; i < 8; i++ {
		fs.Create(pathN("/churn", i), 16*storage.MB, func(f *File, err error) {
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			files = append(files, f)
		})
	}
	e.Run()
	reads := 0
	for _, f := range files {
		_ = fs.MoveFileReplicas(f, storage.Memory, storage.HDD, nil)
		for _, b := range f.Blocks() {
			fs.ReadBlock(b, nil, func(_ ReadResult, err error) {
				if err != nil {
					t.Errorf("read during churn: %v", err)
				}
				reads++
			})
		}
	}
	e.Run()
	if reads != 16 {
		t.Fatalf("reads completed = %d, want 16", reads)
	}
	if liveReplicaBytes(fs) != deviceUsedBytes(fs) {
		t.Fatal("capacity accounting diverged under churn")
	}
}
