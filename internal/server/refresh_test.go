package server

// Internal-package test for the churn device-refresh hook: node loss can
// remove a tier's representative replica (block 0's) while the file stays
// fully resident on the tier via other nodes — no residency flip fires, so
// without the membership hook the handle would keep charging the dead
// node's data-plane channel.

import (
	"strings"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

func TestChurnRefreshesHandleDevices(t *testing.T) {
	e := sim.NewEngine()
	spec := storage.PaperMediaSpec(256*storage.MB, 1*storage.GB, 8*storage.GB, 1)
	// The refresh only matters (and only runs) with a plane attached:
	// plane-less servers never read the device pointers.
	c := cluster.MustNew(e, cluster.Config{
		Workers: 2, SlotsPerNode: 4, Spec: spec,
		Plane: storage.NewContendedPlane(storage.PlaneConfig{}),
	})
	fs := dfs.MustNew(c, dfs.Config{Mode: dfs.ModePinnedHDD, Seed: 2, Replication: 2})
	sh := newShard(0, fs, nil, Config{}, newNSShards(nsStripes))

	var f *dfs.File
	fs.Create("/r/f0", 16*storage.MB, func(file *dfs.File, err error) {
		if err != nil {
			t.Fatal(err)
		}
		f = file
	})
	e.Run()
	sh.startAt(time.Now(), e.Now())
	defer sh.stop()

	h, ok := sh.ns.get("/r/f0")
	if !ok {
		t.Fatal("file not indexed")
	}
	victim := f.Blocks()[0].ReplicaOn(storage.HDD).Node()
	if got := h.device(storage.HDD); got == nil || !strings.HasPrefix(got.ID(), victim.Name()) {
		t.Fatalf("representative device %v not on block 0's node %s", got, victim.Name())
	}

	sh.inLoop(func(fs *dfs.FileSystem) { fs.FailNode(victim) })

	if !f.HasReplicaOn(storage.HDD) {
		t.Fatal("file lost HDD residency; the no-flip stale case was not constructed")
	}
	got := h.device(storage.HDD)
	if got == nil {
		t.Fatal("handle lost its representative device")
	}
	if strings.HasPrefix(got.ID(), victim.Name()) {
		t.Fatalf("handle still charges failed node's device %s", got.ID())
	}
}
