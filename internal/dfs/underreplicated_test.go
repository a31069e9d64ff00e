package dfs_test

import (
	"fmt"
	"slices"
	"testing"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// scanUnderReplicated is UnderReplicatedFiles as it was before the file
// system kept a count: every live complete file with a block that has some
// readable replica but fewer than the file's target, in live-index order.
func scanUnderReplicated(fs *dfs.FileSystem) []*dfs.File {
	var out []*dfs.File
	for _, f := range fs.LiveFiles() {
		if !fs.Complete(f) {
			continue
		}
		for _, b := range f.Blocks() {
			if n := b.ReadableReplicas(); n > 0 && n < f.Replication() {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// scanBlocks counts the blocks scanUnderReplicated looks for.
func scanBlocks(fs *dfs.FileSystem) int {
	n := 0
	for _, f := range fs.LiveFiles() {
		if !fs.Complete(f) {
			continue
		}
		for _, b := range f.Blocks() {
			if r := b.ReadableReplicas(); r > 0 && r < f.Replication() {
				n++
			}
		}
	}
	return n
}

// TestUnderReplicationCountFollowsFailureAndRepair: the count of
// under-replicated blocks is 0 on a healthy file system, so the monitor's
// check returns without a walk; a node failure raises it to what a full scan
// finds, UnderReplicatedFiles then returns exactly the scan's files in its
// order, CheckReplication starts one repair per file, and a few rounds of
// repairs bring the count back to 0. A replica deleted on purpose raises it and lowering
// the target settles it, and deleting an under-replicated file drops its
// blocks.
func TestUnderReplicationCountFollowsFailureAndRepair(t *testing.T) {
	e := sim.NewEngine()
	spec := storage.PaperMediaSpec(2*storage.GB, 8*storage.GB, 32*storage.GB, 1)
	c := cluster.MustNew(e, cluster.Config{Workers: 5, SlotsPerNode: 4, Spec: spec})
	fs := dfs.MustNew(c, dfs.Config{Mode: dfs.ModeOctopus, BlockSize: 8 * storage.MB, Seed: 7})
	check := func(when string) {
		t.Helper()
		if err := fs.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if got, want := fs.UnderReplicatedBlocks(), scanBlocks(fs); got != want {
			t.Fatalf("%s: %d under-replicated blocks counted, scan finds %d", when, got, want)
		}
		if got, want := fs.UnderReplicatedFiles(), scanUnderReplicated(fs); !slices.Equal(got, want) {
			t.Fatalf("%s: UnderReplicatedFiles gives %d files, the scan %d", when, len(got), len(want))
		}
	}
	for i := 0; i < 40; i++ {
		fs.Create(fmt.Sprintf("/d/f%d", i), int64(1+i%3)*6*storage.MB, func(_ *dfs.File, err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	e.Run()
	check("healthy")
	if fs.UnderReplicatedBlocks() != 0 || fs.UnderReplicatedFiles() != nil {
		t.Fatalf("a healthy file system counts %d under-replicated blocks", fs.UnderReplicatedBlocks())
	}

	fs.FailNode(c.Nodes()[0])
	check("after the node failure")
	lost := scanUnderReplicated(fs)
	if len(lost) == 0 {
		t.Fatal("the node failure left no block under-replicated")
	}
	mo := core.NewMonitor(fs, 4, 0)
	if started := mo.CheckReplication(); started != len(lost) {
		t.Fatalf("CheckReplication started %d repairs, the scan finds %d files", started, len(lost))
	}
	check("with the repairs in flight")
	e.Run()
	check("after the first repairs")
	// A repair copies one tier; a file whose blocks lost different tiers
	// needs one per tick, as the manager would run them.
	for round := 2; fs.UnderReplicatedBlocks() > 0; round++ {
		if round > 4 {
			t.Fatalf("%d blocks still under-replicated after %d repair rounds", fs.UnderReplicatedBlocks(), round-1)
		}
		want := len(scanUnderReplicated(fs))
		if started := mo.CheckReplication(); started != want {
			t.Fatalf("round %d: CheckReplication started %d repairs, the scan finds %d files", round, started, want)
		}
		e.Run()
		check(fmt.Sprint("after repair round ", round))
	}
	for _, f := range lost {
		for _, b := range f.Blocks() {
			if b.ReadableReplicas() < f.Replication() {
				t.Fatalf("%s: block %d has %d readable replicas after its repair", f.Path(), b.ID(), b.ReadableReplicas())
			}
		}
	}

	f, err := fs.Open("/d/f2")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.DeleteFileReplicas(f, storage.HDD); err != nil {
		t.Fatal(err)
	}
	check("after a replica deletion")
	if n := fs.UnderReplicatedBlocks(); n != len(f.Blocks()) {
		t.Fatalf("%d blocks under-replicated, want the deleted-from file's %d", n, len(f.Blocks()))
	}
	fs.LowerReplication(f)
	check("after lowering the target")
	if n := fs.UnderReplicatedBlocks(); n != 0 {
		t.Fatalf("%d blocks under-replicated once the target follows the deletion", n)
	}
	g, err := fs.Open("/d/f5")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.DeleteFileReplicas(g, storage.HDD); err != nil {
		t.Fatal(err)
	}
	check("after a second replica deletion")
	if err := fs.Delete(g); err != nil {
		t.Fatal(err)
	}
	check("after deleting the file")
	if n := fs.UnderReplicatedBlocks(); n != 0 {
		t.Fatalf("%d blocks under-replicated after the file went", n)
	}
}
