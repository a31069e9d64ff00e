package dfs

import (
	"errors"
	"testing"

	"octostore/internal/storage"
)

// The detach/attach pair is the shard rebalancer's migration primitive:
// these tests pin its contract on plain file systems — layout preserved
// bit for bit, accounting conserved on both sides, client stats untouched,
// and clean failure with zero side effects.

func TestDetachAttachMovesFileBetweenSystems(t *testing.T) {
	eA, fsA := testFS(t, ModeOctopus)
	_, fsB := testFS(t, ModeOctopus)

	createFile(t, eA, fsA, "/hot/d0/f0", 40*storage.MB)
	createFile(t, eA, fsA, "/hot/d0/f1", 24*storage.MB)
	wantRes := fsA.TierResidency()
	wantLive := fsA.LiveReplicaBytes()
	createdA, deletedA := fsA.Stats().FilesCreated, fsA.Stats().FilesDeleted

	var moved int64
	for _, p := range []string{"/hot/d0/f0", "/hot/d0/f1"} {
		rec, err := fsA.SnapshotFile(p)
		if err == nil {
			err = fsA.DetachFile(p)
		}
		if err != nil {
			t.Fatalf("detach %s: %v", p, err)
		}
		moved += rec.Bytes()
		if err := fsB.AttachFile(rec); err != nil {
			t.Fatalf("attach %s: %v", p, err)
		}
	}

	if fsA.LiveReplicaBytes() != 0 {
		t.Fatalf("source still holds %d live bytes", fsA.LiveReplicaBytes())
	}
	if got := fsB.LiveReplicaBytes(); got != wantLive || got != moved {
		t.Fatalf("destination live bytes = %d, want %d (record says %d)", got, wantLive, moved)
	}
	gotRes := fsB.TierResidency()
	if len(gotRes) != len(wantRes) {
		t.Fatalf("destination has %d files, want %d", len(gotRes), len(wantRes))
	}
	for p, want := range wantRes {
		if gotRes[p] != want {
			t.Fatalf("residency of %s = %v, want %v", p, gotRes[p], want)
		}
	}
	// Migration relocates metadata; neither side counts client activity.
	if fsA.Stats().FilesCreated != createdA || fsA.Stats().FilesDeleted != deletedA {
		t.Fatalf("detach bumped client stats: %+v", fsA.Stats())
	}
	if fsB.Stats().FilesCreated != 0 || fsB.Stats().FilesDeleted != 0 {
		t.Fatalf("attach bumped client stats: %+v", fsB.Stats())
	}
	for _, fs := range []*FileSystem{fsA, fsB} {
		if err := fs.CheckAccounting(); err != nil {
			t.Fatal(err)
		}
		if err := fs.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// The source can delete-and-recreate the path; the destination serves it.
	if _, err := fsB.Open("/hot/d0/f0"); err != nil {
		t.Fatalf("destination cannot open migrated file: %v", err)
	}
	if _, err := fsA.Open("/hot/d0/f0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("source still resolves migrated file: %v", err)
	}
}

func TestSnapshotLeavesFileUntouched(t *testing.T) {
	e, fs := testFS(t, ModeHDFS)
	createFile(t, e, fs, "/a/f", 16*storage.MB)
	live := fs.LiveReplicaBytes()
	rec, err := fs.SnapshotFile("/a/f")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Bytes() != 3*16*storage.MB {
		t.Fatalf("record bytes = %d, want 3 HDFS replicas", rec.Bytes())
	}
	if fs.LiveReplicaBytes() != live {
		t.Fatal("snapshot changed live bytes")
	}
	if _, err := fs.Open("/a/f"); err != nil {
		t.Fatalf("snapshot disturbed the file: %v", err)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachFailsCleanly(t *testing.T) {
	eA, fsA := testFS(t, ModeHDFS)
	eB, fsB := testFS(t, ModeHDFS)
	createFile(t, eA, fsA, "/a/f", 16*storage.MB)
	createFile(t, eB, fsB, "/a/f", 16*storage.MB)

	rec, err := fsA.SnapshotFile("/a/f")
	if err == nil {
		err = fsA.DetachFile("/a/f")
	}
	if err != nil {
		t.Fatal(err)
	}
	// Path taken: a client recreated it on the destination mid-migration.
	if err := fsB.AttachFile(rec); !errors.Is(err, ErrExists) {
		t.Fatalf("attach over existing path: %v, want ErrExists", err)
	}
	// No capacity: the record wants more than the whole cluster holds.
	huge := rec
	huge.Path = "/a/huge"
	huge.Blocks = []BlockLayout{{Size: 1 << 50, Media: []storage.Media{storage.HDD}, Cache: []bool{false}}}
	live := fsB.LiveReplicaBytes()
	if err := fsB.AttachFile(huge); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("oversized attach: %v, want ErrNoCapacity", err)
	}
	if fsB.LiveReplicaBytes() != live {
		t.Fatal("failed attach leaked live bytes")
	}
	if err := fsB.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	if err := fsB.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The detached record is still good: re-attach on the source restores it.
	if err := fsA.AttachFile(rec); err != nil {
		t.Fatalf("re-attach on source: %v", err)
	}
	if err := fsA.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDetachRefusesFileMidCreate(t *testing.T) {
	_, fs := testFS(t, ModeHDFS)
	fs.Create("/a/slow", 16*storage.MB, func(*File, error) {})
	// The engine has not run: the write pipeline is still in flight.
	if err := fs.DetachFile("/a/slow"); !errors.Is(err, ErrFileIncomplete) {
		t.Fatalf("detach mid-create: %v, want ErrFileIncomplete", err)
	}
	if _, err := fs.SnapshotFile("/a/slow"); !errors.Is(err, ErrFileIncomplete) {
		t.Fatalf("snapshot mid-create: %v, want ErrFileIncomplete", err)
	}
}

// One replica of a file is f.Size() bytes: Create cuts the blocks so their
// sizes sum to it, and a detach/attach round trip carries both across. The
// policies, the context and the movement executor size moves by Size().
func TestBlockSizesSumToFileSize(t *testing.T) {
	eA, fsA := testFS(t, ModeOctopus)
	_, fsB := testFS(t, ModeOctopus)
	sizes := map[string]int64{
		"/s/empty":   0,
		"/s/partial": 5 * storage.MB,
		"/s/exact":   32 * storage.MB, // two full 16 MB blocks
		"/s/ragged":  40*storage.MB + 1,
	}
	check := func(fs *FileSystem, label string) {
		for p, size := range sizes {
			f, err := fs.Namespace().GetFile(p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var sum int64
			for _, b := range f.Blocks() {
				sum += b.Size()
			}
			if sum != size || f.Size() != size {
				t.Errorf("%s %s: blocks sum to %d, Size() = %d, want %d", label, p, sum, f.Size(), size)
			}
		}
	}
	for p, size := range sizes {
		createFile(t, eA, fsA, p, size)
	}
	check(fsA, "created")
	for p := range sizes {
		rec, err := fsA.SnapshotFile(p)
		if err == nil {
			err = fsA.DetachFile(p)
		}
		if err != nil {
			t.Fatalf("detach %s: %v", p, err)
		}
		if err := fsB.AttachFile(rec); err != nil {
			t.Fatalf("attach %s: %v", p, err)
		}
	}
	check(fsB, "attached")
}
