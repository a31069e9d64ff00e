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

	f0 := createFile(t, eA, fsA, "/hot/d0/f0", 40*storage.MB)
	f1 := createFile(t, eA, fsA, "/hot/d0/f1", 24*storage.MB)
	wantRes := fsA.TierResidency()
	wantLive := fsA.LiveReplicaBytes()
	createdA, deletedA := fsA.Stats().FilesCreated, fsA.Stats().FilesDeleted

	var moved int64
	for _, f := range []*File{f0, f1} {
		rec, err := fsA.SnapshotFile(f)
		if err == nil {
			err = fsA.DetachFile(f)
		}
		if err != nil {
			t.Fatalf("detach %s: %v", f.Path(), err)
		}
		moved += rec.Bytes()
		got, err := fsB.AttachFile(rec)
		if err != nil {
			t.Fatalf("attach %s: %v", f.Path(), err)
		}
		if named, err := fsB.Namespace().GetFile(rec.Path); err != nil || named != got {
			t.Fatalf("attach %s returned %p, the namespace holds %p (%v)", f.Path(), got, named, err)
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
	f := createFile(t, e, fs, "/a/f", 16*storage.MB)
	live := fs.LiveReplicaBytes()
	rec, err := fs.SnapshotFile(f)
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
	f := createFile(t, eA, fsA, "/a/f", 16*storage.MB)
	createFile(t, eB, fsB, "/a/f", 16*storage.MB)

	rec, err := fsA.SnapshotFile(f)
	if err == nil {
		err = fsA.DetachFile(f)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Path taken: a client recreated it on the destination mid-migration.
	if _, err := fsB.AttachFile(rec); !errors.Is(err, ErrExists) {
		t.Fatalf("attach over existing path: %v, want ErrExists", err)
	}
	// No capacity: the record wants more than the whole cluster holds.
	huge := rec
	huge.Path = "/a/huge"
	huge.Blocks = []BlockLayout{{Size: 1 << 50, Media: []storage.Media{storage.HDD}, Cache: []bool{false}}}
	live := fsB.LiveReplicaBytes()
	if _, err := fsB.AttachFile(huge); !errors.Is(err, ErrNoCapacity) {
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
	if _, err := fsA.AttachFile(rec); err != nil {
		t.Fatalf("re-attach on source: %v", err)
	}
	if err := fsA.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDetachRefusesFileMidCreate(t *testing.T) {
	_, fs := testFS(t, ModeHDFS)
	f, err := fs.CreateFile("/a/slow", 16*storage.MB, func(*File, error) {})
	if err != nil {
		t.Fatal(err)
	}
	// The engine has not run: the write pipeline is still in flight.
	if err := fs.DetachFile(f); !errors.Is(err, ErrFileIncomplete) {
		t.Fatalf("detach mid-create: %v, want ErrFileIncomplete", err)
	}
	if _, err := fs.SnapshotFile(f); !errors.Is(err, ErrFileIncomplete) {
		t.Fatalf("snapshot mid-create: %v, want ErrFileIncomplete", err)
	}
	if err := fs.Delete(f); !errors.Is(err, ErrFileIncomplete) {
		t.Fatalf("delete mid-create: %v, want ErrFileIncomplete", err)
	}
}

// TestFileOpsRefuseDeletedAndForeignFiles: Delete, DetachFile and
// SnapshotFile take the file, so a caller can hand them one already deleted
// or one of another file system — there at a path this one also holds. Each
// refuses it with ErrNotFound and changes nothing on either side.
func TestFileOpsRefuseDeletedAndForeignFiles(t *testing.T) {
	e, fs := testFS(t, ModeOctopus)
	eB, fsB := testFS(t, ModeOctopus)
	gone := createFile(t, e, fs, "/a/gone", 16*storage.MB)
	if err := fs.Delete(gone); err != nil {
		t.Fatal(err)
	}
	createFile(t, e, fs, "/a/kept", 16*storage.MB)
	foreign := createFile(t, eB, fsB, "/a/kept", 16*storage.MB)
	calls := &recordingListener{}
	fs.AddListener(calls)
	fsB.AddListener(calls)
	type side struct {
		files int
		stats Stats
		live  int64
	}
	state := func(fs *FileSystem) side { return side{fs.Namespace().FileCount(), *fs.Stats(), fs.LiveReplicaBytes()} }
	before, beforeB := state(fs), state(fsB)
	for _, f := range []*File{gone, foreign} {
		for name, op := range map[string]func() error{
			"Delete":     func() error { return fs.Delete(f) },
			"DetachFile": func() error { return fs.DetachFile(f) },
			"SnapshotFile": func() error {
				_, err := fs.SnapshotFile(f)
				return err
			},
		} {
			if err := op(); !errors.Is(err, ErrNotFound) {
				t.Errorf("%s of %s (deleted %v): %v, want ErrNotFound", name, f.Path(), f.Deleted(), err)
			}
		}
	}
	if after, afterB := state(fs), state(fsB); after != before || afterB != beforeB {
		t.Fatalf("refused ops changed state: %+v -> %+v, other side %+v -> %+v", before, after, beforeB, afterB)
	}
	if *calls != (recordingListener{}) {
		t.Fatalf("refused ops notified listeners: %+v", *calls)
	}
	for _, fs := range []*FileSystem{fs, fsB} {
		if _, err := fs.Open("/a/kept"); err != nil {
			t.Fatal(err)
		}
		if err := fs.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
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
	var files []*File
	for p, size := range sizes {
		files = append(files, createFile(t, eA, fsA, p, size))
	}
	check(fsA, "created")
	for _, f := range files {
		rec, err := fsA.SnapshotFile(f)
		if err == nil {
			err = fsA.DetachFile(f)
		}
		if err != nil {
			t.Fatalf("detach %s: %v", f.Path(), err)
		}
		if _, err := fsB.AttachFile(rec); err != nil {
			t.Fatalf("attach %s: %v", f.Path(), err)
		}
	}
	check(fsB, "attached")
}
