package dfs

import (
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

func planeWorld(t *testing.T, plane storage.DataPlane) (*sim.Engine, *FileSystem) {
	t.Helper()
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{
		Workers:      2,
		SlotsPerNode: 4,
		Spec:         storage.SmallWorkerSpec(),
		Plane:        plane,
	})
	fs, err := New(c, Config{Mode: ModePinnedHDD, Seed: 1, BlockSize: 8 * storage.MB})
	if err != nil {
		t.Fatal(err)
	}
	return e, fs
}

// TestPlaneAdoptionWithoutPlaneNoExtraEvents pins the no-plane contract at
// the dfs level: a nil plane adds no events to any transfer path, so
// replays stay bit-identical to the pre-data-plane engine.
func TestPlaneAdoptionWithoutPlaneNoExtraEvents(t *testing.T) {
	countEvents := func(plane storage.DataPlane) uint64 {
		e, fs := planeWorld(t, plane)
		if fs.DataPlane() != plane {
			t.Fatal("file system did not adopt the cluster's plane")
		}
		var f *File
		fs.Create("/p/f0", 16*storage.MB, func(file *File, err error) {
			if err != nil {
				t.Fatal(err)
			}
			f = file
		})
		e.Run()
		if err := fs.MoveFileReplicas(f, storage.HDD, storage.Memory, nil); err != nil {
			t.Fatal(err)
		}
		e.Run()
		return e.Fired()
	}
	if none, nop := countEvents(nil), countEvents(storage.NopPlane{}); none != nop {
		t.Fatalf("NopPlane fired %d events, plane-less %d — no-op plane must add none", nop, none)
	}
}

// TestMovePaysSharedChannelBacklog covers the movement leg: a move whose
// destination channel is pre-loaded (by another view of the device, here
// simulated by a direct plane charge) commits later than one against an
// idle channel.
func TestMovePaysSharedChannelBacklog(t *testing.T) {
	commitDelay := func(preload bool) time.Duration {
		plane := storage.NewContendedPlane(storage.PlaneConfig{MaxQueue: time.Hour})
		e, fs := planeWorld(t, plane)
		var f *File
		fs.Create("/p/f0", 16*storage.MB, func(file *File, err error) { f = file })
		e.Run()
		if preload {
			// Another shard's view booked every memory write channel for
			// ~1s, so whichever device the move targets is backed up.
			for _, n := range fs.Cluster().Nodes() {
				for _, d := range n.Devices(storage.Memory) {
					plane.Serve(storage.IORequest{
						Device: d, Dir: storage.Write,
						Class: storage.ClassMove, Bytes: int64(3000e6), At: e.Now(),
					})
				}
			}
		}
		start := e.Now()
		var done time.Time
		if err := fs.MoveFileReplicas(f, storage.HDD, storage.Memory, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			done = e.Now()
		}); err != nil {
			t.Fatal(err)
		}
		e.Run()
		if done.IsZero() {
			t.Fatal("move never committed")
		}
		return done.Sub(start)
	}
	idle, contended := commitDelay(false), commitDelay(true)
	if contended <= idle {
		t.Fatalf("contended move committed in %v, not later than idle %v", contended, idle)
	}
}
