package dfs

import (
	"errors"
	"testing"

	"octostore/internal/cluster"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// TestMoveDuringCreateRejected covers the create/move race: a file whose
// initial write pipeline is still running must refuse tier movement with
// ErrBusy on every movement path (move, copy, delete-replicas).
func TestMoveDuringCreateRejected(t *testing.T) {
	e, fs := testFS(t, ModeOctopus)
	fs.Create("/inflight", 16*storage.MB, nil)
	// The file is visible in the namespace immediately, but its blocks are
	// still being written.
	f, err := fs.ns.GetFile("/inflight")
	if err != nil {
		t.Fatal(err)
	}
	if fs.Complete(f) {
		t.Fatal("precondition: create should still be in flight")
	}
	if err := fs.MoveFileReplicas(f, storage.Memory, storage.SSD, nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("move during create error = %v, want ErrBusy", err)
	}
	if err := fs.CopyFileReplicas(f, storage.SSD, nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("copy during create error = %v, want ErrBusy", err)
	}
	if err := fs.DeleteFileReplicas(f, storage.Memory); !errors.Is(err, ErrBusy) {
		t.Fatalf("delete replicas during create error = %v, want ErrBusy", err)
	}
	e.Run()
	if err := fs.CheckInvariants(); err != nil {
		t.Fatalf("invariants after rejected ops: %v", err)
	}
}

// TestDoubleMoveSameTierRejected covers the double-move race: while a
// Memory→SSD move is in flight, a second identical request must fail with
// ErrBusy and leave the in-flight move to commit exactly once.
func TestDoubleMoveSameTierRejected(t *testing.T) {
	e, fs := testFS(t, ModeOctopus)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	commits := 0
	if err := fs.MoveFileReplicas(f, storage.Memory, storage.SSD, func(err error) {
		if err != nil {
			t.Errorf("first move failed: %v", err)
		}
		commits++
	}); err != nil {
		t.Fatal(err)
	}
	if err := fs.MoveFileReplicas(f, storage.Memory, storage.SSD, nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("double move error = %v, want ErrBusy", err)
	}
	e.Run()
	if commits != 1 {
		t.Fatalf("first move committed %d times, want 1", commits)
	}
	// Exactly one SSD copy arrived (the pre-existing one plus the move).
	if got := f.BytesOn(storage.SSD); got != 2*16*storage.MB {
		t.Fatalf("SSD bytes = %d, want exactly two replicas' worth", got)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteReplicasAllOrNothing covers ErrLastCopy stepwise: deleting
// down to one replica succeeds, the next delete is refused, and the refused
// call must not have removed anything.
func TestDeleteReplicasAllOrNothing(t *testing.T) {
	e, fs := testFS(t, ModeHDFS) // replication 3, all on HDD
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	for i := 0; i < 2; i++ {
		if err := fs.DeleteFileReplicas(f, storage.HDD); err != nil {
			t.Fatalf("delete round %d: %v", i, err)
		}
	}
	before := f.BytesOn(storage.HDD)
	if before != 16*storage.MB {
		t.Fatalf("precondition: %d bytes on HDD, want one replica", before)
	}
	if err := fs.DeleteFileReplicas(f, storage.HDD); !errors.Is(err, ErrLastCopy) {
		t.Fatalf("last-copy delete error = %v, want ErrLastCopy", err)
	}
	if got := f.BytesOn(storage.HDD); got != before {
		t.Fatalf("refused delete still removed bytes: %d -> %d", before, got)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteReplicasPartialTierRejected builds a file whose memory presence
// is partial (HDFS-cache on a memory tier too small for both blocks): the
// delete-replicas path must fail with ErrNoReplica and must not remove the
// block replica that does exist (no partial teardown).
func TestDeleteReplicasPartialTierRejected(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{
		Workers: 1, SlotsPerNode: 2,
		Spec: storage.PaperMediaSpec(64*storage.MB, 256*storage.MB, 1*storage.GB, 1),
	})
	fs := MustNew(c, Config{Mode: ModeHDFSCache, BlockSize: 40 * storage.MB, Replication: 1, Seed: 3})
	f := createFile(t, e, fs, "/partial", 80*storage.MB) // two 40 MB blocks
	e.Run()                                              // let the async cache fill settle
	// 64 MB of memory holds the first block's cache replica but not the
	// second's.
	if got := f.BytesOn(storage.Memory); got != 40*storage.MB {
		t.Fatalf("memory bytes = %d, want one cached block", got)
	}
	if f.HasReplicaOn(storage.Memory) {
		t.Fatal("partial tier presence must not count as full residency")
	}
	if err := fs.DeleteFileReplicas(f, storage.Memory); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("partial-tier delete error = %v, want ErrNoReplica", err)
	}
	if got := f.BytesOn(storage.Memory); got != 40*storage.MB {
		t.Fatalf("refused delete removed the existing cache replica: %d bytes left", got)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMoveCommitsUnderNodeLossDst pins the deterministic churn semantics:
// when the destination node of an in-flight move fails, the replica stays
// at its source, stays readable, and accounting balances.
func TestMoveCommitsUnderNodeLossDst(t *testing.T) {
	e, fs := testFS(t, ModePinnedHDD)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	if err := fs.MoveFileReplicas(f, storage.HDD, storage.Memory, nil); err != nil {
		t.Fatal(err)
	}
	// Find the in-flight destination node and fail it before the commit.
	var dst *cluster.Node
	for m := range fs.moves {
		dst = m.dst.Node
	}
	if dst == nil {
		t.Fatal("no move in flight")
	}
	fs.FailNode(dst)
	e.Run()
	if !f.HasReplicaOn(storage.HDD) {
		t.Fatal("replica did not stay at its source after destination loss")
	}
	if f.HasReplicaOn(storage.Memory) {
		t.Fatal("replica committed to a dead node")
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMoveCommitsUnderNodeLossSrc is the mirror case: the source node of an
// in-flight move fails; the replica is lost (it lived on the dead node) and
// the destination reservation must be released, not leaked.
func TestMoveCommitsUnderNodeLossSrc(t *testing.T) {
	e, fs := testFS(t, ModePinnedHDD)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	if err := fs.MoveFileReplicas(f, storage.HDD, storage.Memory, nil); err != nil {
		t.Fatal(err)
	}
	var src *cluster.Node
	for m := range fs.moves {
		src = m.src.Node()
	}
	if src == nil {
		t.Fatal("no move in flight")
	}
	fs.FailNode(src)
	e.Run()
	memUsed, _ := fs.Cluster().TierUsage(storage.Memory)
	if memUsed != 0 {
		t.Fatalf("destination reservation leaked: %d bytes on memory", memUsed)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
