package dfs

import (
	"errors"
	"testing"

	"octostore/internal/storage"
)

// moveSync runs a MoveFileReplicas to completion on the engine.
func moveSync(t *testing.T, fs *FileSystem, f *File, from, to storage.Media) error {
	t.Helper()
	var moveErr error
	completed := false
	if err := fs.MoveFileReplicas(f, from, to, func(err error) {
		moveErr = err
		completed = true
	}); err != nil {
		return err
	}
	fs.Engine().Run()
	if !completed {
		t.Fatal("move never completed")
	}
	return moveErr
}

func TestMoveFileReplicasDowngrade(t *testing.T) {
	e, fs := testFS(t, ModeOctopus)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	if !f.HasReplicaOn(storage.Memory) {
		t.Fatal("precondition: no memory replica")
	}
	memBefore, _ := fs.Cluster().TierUsage(storage.Memory)
	if err := moveSync(t, fs, f, storage.Memory, storage.SSD); err != nil {
		t.Fatal(err)
	}
	if f.HasReplicaOn(storage.Memory) {
		t.Fatal("memory replica remains after downgrade")
	}
	if got := f.BytesOn(storage.SSD); got != 2*16*storage.MB {
		t.Fatalf("SSD bytes = %d, want 2 blocks' worth (original + moved)", got)
	}
	memAfter, _ := fs.Cluster().TierUsage(storage.Memory)
	if memAfter != memBefore-16*storage.MB {
		t.Fatalf("memory usage %d -> %d, want release of 16MB", memBefore, memAfter)
	}
	if fs.Stats().BytesDowngradedTo[storage.SSD] != 16*storage.MB {
		t.Fatalf("downgrade stats = %d", fs.Stats().BytesDowngradedTo[storage.SSD])
	}
}

func TestMoveFileReplicasUpgrade(t *testing.T) {
	e, fs := testFS(t, ModePinnedHDD)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	if err := moveSync(t, fs, f, storage.HDD, storage.Memory); err != nil {
		t.Fatal(err)
	}
	if !f.HasReplicaOn(storage.Memory) {
		t.Fatal("no memory replica after upgrade")
	}
	if fs.Stats().BytesUpgradedTo[storage.Memory] != 16*storage.MB {
		t.Fatalf("upgrade stats = %d", fs.Stats().BytesUpgradedTo[storage.Memory])
	}
}

func TestMoveMissingSourceTier(t *testing.T) {
	e, fs := testFS(t, ModeHDFS)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	err := fs.MoveFileReplicas(f, storage.Memory, storage.SSD, nil)
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("move without source error = %v", err)
	}
}

func TestMoveToSameTierRejected(t *testing.T) {
	e, fs := testFS(t, ModeHDFS)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	if err := fs.MoveFileReplicas(f, storage.HDD, storage.HDD, nil); err == nil {
		t.Fatal("move to same tier should fail")
	}
}

func TestMoveWhileBusyRejected(t *testing.T) {
	e, fs := testFS(t, ModeOctopus)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	if err := fs.MoveFileReplicas(f, storage.Memory, storage.SSD, nil); err != nil {
		t.Fatal(err)
	}
	// Second move before the first commits must be rejected.
	if err := fs.MoveFileReplicas(f, storage.SSD, storage.HDD, nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("concurrent move error = %v", err)
	}
	e.Run()
}

func TestMoveRollbackOnNoCapacity(t *testing.T) {
	e, fs := testFS(t, ModePinnedHDD)
	// Fill memory completely so upgrades cannot fit.
	for _, n := range fs.Cluster().Nodes() {
		for _, d := range n.Devices(storage.Memory) {
			if err := d.Reserve(d.Free()); err != nil {
				t.Fatal(err)
			}
		}
	}
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	err := fs.MoveFileReplicas(f, storage.HDD, storage.Memory, nil)
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("move error = %v", err)
	}
	// HDD usage must be unchanged (no partial reservations leaked on SSD).
	ssdUsed, _ := fs.Cluster().TierUsage(storage.SSD)
	if ssdUsed != 0 {
		t.Fatalf("SSD usage leaked: %d", ssdUsed)
	}
}

func TestMoveKeepsFileReadableDuringTransfer(t *testing.T) {
	e, fs := testFS(t, ModeOctopus)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	if err := fs.MoveFileReplicas(f, storage.Memory, storage.SSD, nil); err != nil {
		t.Fatal(err)
	}
	var res ReadResult
	var readErr error
	fs.ReadBlock(f.Blocks()[0], nil, func(r ReadResult, err error) { res, readErr = r, err })
	e.Run()
	if readErr != nil {
		t.Fatalf("read during move: %v", readErr)
	}
	_ = res
}

func TestCopyFileReplicas(t *testing.T) {
	e, fs := testFS(t, ModePinnedHDD)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	var copyErr error
	completed := false
	if err := fs.CopyFileReplicas(f, storage.Memory, func(err error) {
		copyErr = err
		completed = true
	}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !completed || copyErr != nil {
		t.Fatalf("copy completed=%v err=%v", completed, copyErr)
	}
	if !f.HasReplicaOn(storage.Memory) {
		t.Fatal("no memory replica after copy")
	}
	if !f.HasReplicaOn(storage.HDD) {
		t.Fatal("HDD replicas lost by copy")
	}
	b := f.Blocks()[0]
	if got := len(b.Replicas()); got != 4 {
		t.Fatalf("replicas = %d, want 4", got)
	}
}

func TestCopyNoopWhenAlreadyPresent(t *testing.T) {
	e, fs := testFS(t, ModeOctopus)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	completed := false
	if err := fs.CopyFileReplicas(f, storage.Memory, func(err error) {
		if err != nil {
			t.Errorf("noop copy err: %v", err)
		}
		completed = true
	}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !completed {
		t.Fatal("noop copy never signalled completion")
	}
	if got := len(f.Blocks()[0].Replicas()); got != 3 {
		t.Fatalf("replicas = %d after noop copy", got)
	}
}

func TestDeleteFileReplicas(t *testing.T) {
	e, fs := testFS(t, ModeOctopus)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	memBefore, _ := fs.Cluster().TierUsage(storage.Memory)
	if err := fs.DeleteFileReplicas(f, storage.Memory); err != nil {
		t.Fatal(err)
	}
	if f.HasReplicaOn(storage.Memory) {
		t.Fatal("memory replica remains")
	}
	memAfter, _ := fs.Cluster().TierUsage(storage.Memory)
	if memAfter >= memBefore {
		t.Fatal("memory not released")
	}
	_ = e
}

func TestDeleteLastReplicaRefused(t *testing.T) {
	e := newSingleReplicaFS(t)
	fs, f := e.fs, e.file
	if err := fs.DeleteFileReplicas(f, storage.HDD); !errors.Is(err, ErrLastCopy) {
		t.Fatalf("delete last replica error = %v", err)
	}
}

type singleReplicaEnv struct {
	fs   *FileSystem
	file *File
}

func newSingleReplicaFS(t *testing.T) *singleReplicaEnv {
	t.Helper()
	e, _ := testFS(t, ModeHDFS)
	_ = e
	eng, fs := testFS(t, ModeHDFS)
	fs.cfg.Replication = 1
	f := createFile(t, eng, fs, "/single", 16*storage.MB)
	return &singleReplicaEnv{fs: fs, file: f}
}

func TestUnderReplicatedFiles(t *testing.T) {
	e, fs := testFS(t, ModeOctopus)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	if got := fs.UnderReplicatedFiles(); len(got) != 0 {
		t.Fatalf("healthy file reported under-replicated: %v", got)
	}
	if err := fs.DeleteFileReplicas(f, storage.Memory); err != nil {
		t.Fatal(err)
	}
	got := fs.UnderReplicatedFiles()
	if len(got) != 1 || got[0] != f {
		t.Fatalf("UnderReplicatedFiles = %v", got)
	}
}

func TestMoveAdvancesSimulatedTime(t *testing.T) {
	e, fs := testFS(t, ModeOctopus)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	before := e.Now()
	if err := moveSync(t, fs, f, storage.Memory, storage.HDD); err != nil {
		t.Fatal(err)
	}
	if !e.Now().After(before) {
		t.Fatal("move cost no simulated time")
	}
}

func TestMoveDeletedFileRejected(t *testing.T) {
	e, fs := testFS(t, ModeOctopus)
	f := createFile(t, e, fs, "/f", 16*storage.MB)
	if err := fs.Delete(f); err != nil {
		t.Fatal(err)
	}
	if err := fs.MoveFileReplicas(f, storage.Memory, storage.SSD, nil); err == nil {
		t.Fatal("move on deleted file should fail")
	}
	_ = e
}
