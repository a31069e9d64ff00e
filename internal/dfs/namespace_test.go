package dfs

import (
	"errors"
	"slices"
	"testing"
)

func TestCleanPath(t *testing.T) {
	for _, tc := range []struct {
		in, want string
	}{
		{"/a/b/c", "/a/b/c"},
		{"/a//b/./c", "/a/b/c"},
		{"/", "/"},
	} {
		got, err := CleanPath(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("CleanPath(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"relative/path", "/a/../b", ""} {
		if _, err := CleanPath(bad); err == nil {
			t.Fatalf("CleanPath(%q) should fail", bad)
		}
	}
}

// TestCleanPathCorners pins the normalisation corner cases: repeated and
// trailing slashes collapse, "." components vanish, and "..", bare
// relatives, and dot-paths are rejected outright.
func TestCleanPathCorners(t *testing.T) {
	for _, tc := range []struct {
		in, want string
	}{
		{"//", "/"},
		{"///", "/"},
		{"/a/", "/a"},
		{"/a//", "/a"},
		{"//a///b//", "/a/b"},
		{"/./", "/"},
		{"/a/./", "/a"},
		{"/a/b/c/", "/a/b/c"},
	} {
		got, err := CleanPath(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("CleanPath(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"..", ".", "a", "a/b", "/..", "/../", "/a/..", "/a/../", "/a/b/../c", "./a"} {
		if got, err := CleanPath(bad); err == nil {
			t.Fatalf("CleanPath(%q) = %q, want rejection", bad, got)
		}
	}
	// Resolution must agree with CleanPath on rejection.
	ns := NewNamespace()
	for _, bad := range []string{"", "a", "/a/../b"} {
		if _, err := ns.GetFile(bad); !errors.Is(err, ErrInvalidPath) {
			t.Fatalf("GetFile(%q) = %v, want ErrInvalidPath", bad, err)
		}
	}
	// ...and on normalisation: messy spellings of an existing path resolve.
	if err := ns.insertFile("/x/y/z", &File{path: "/x/y/z"}); err != nil {
		t.Fatal(err)
	}
	for _, messy := range []string{"/x/y/z", "//x//y//z", "/x/./y/z/", "/x/y/z//"} {
		if f, err := ns.GetFile(messy); err != nil || f == nil {
			t.Fatalf("GetFile(%q) = %v, %v; want the file", messy, f, err)
		}
	}
}

func TestInsertAndGetFile(t *testing.T) {
	ns := NewNamespace()
	f := &File{path: "/data/input/f1"}
	if err := ns.insertFile("/data/input/f1", f); err != nil {
		t.Fatal(err)
	}
	got, err := ns.GetFile("/data/input/f1")
	if err != nil || got != f {
		t.Fatalf("GetFile = %v, %v", got, err)
	}
	if ns.FileCount() != 1 {
		t.Fatalf("FileCount = %d", ns.FileCount())
	}
	for _, dir := range []string{"/data", "/data/input"} {
		if _, err := ns.GetFile(dir); !errors.Is(err, ErrIsDirectory) {
			t.Fatalf("parent %s not auto-created as a directory: %v", dir, err)
		}
	}
}

func TestInsertDuplicate(t *testing.T) {
	ns := NewNamespace()
	if err := ns.insertFile("/f", &File{}); err != nil {
		t.Fatal(err)
	}
	if err := ns.insertFile("/f", &File{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate insert error = %v", err)
	}
}

func TestGetFileErrors(t *testing.T) {
	ns := NewNamespace()
	if _, err := ns.GetFile("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing file error = %v", err)
	}
	if err := ns.insertFile("/dir/f", &File{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.GetFile("/dir"); !errors.Is(err, ErrIsDirectory) {
		t.Fatalf("dir as file error = %v", err)
	}
	if err := ns.insertFile("/dir", &File{}); !errors.Is(err, ErrExists) {
		t.Fatalf("file over dir error = %v", err)
	}
}

func TestFileAsDirectoryComponent(t *testing.T) {
	ns := NewNamespace()
	if err := ns.insertFile("/a", &File{}); err != nil {
		t.Fatal(err)
	}
	if err := ns.insertFile("/a/b", &File{}); !errors.Is(err, ErrNotDirectory) {
		t.Fatalf("file-as-dir error = %v", err)
	}
}

func TestRemoveFile(t *testing.T) {
	ns := NewNamespace()
	f := &File{}
	if err := ns.insertFile("/x/y", f); err != nil {
		t.Fatal(err)
	}
	got, err := ns.GetFile("/x/y")
	if err != nil || got != f {
		t.Fatalf("GetFile = %v, %v", got, err)
	}
	ns.unlink(got)
	if ns.Exists("/x/y") {
		t.Fatal("file still exists after remove")
	}
	if !ns.Exists("/x") {
		t.Fatal("parent directory removed with file")
	}
	if ns.FileCount() != 0 {
		t.Fatalf("FileCount = %d", ns.FileCount())
	}
}

// TestUnlinkLeavesNoPointerBehind: unlinking a directory's last-sorted
// file clears the slot it vacated, so the directory's backing array does
// not keep the removed file alive.
func TestUnlinkLeavesNoPointerBehind(t *testing.T) {
	ns := NewNamespace()
	first, last := &File{}, &File{}
	for p, f := range map[string]*File{"/d/a": first, "/d/b": last} {
		if err := ns.insertFile(p, f); err != nil {
			t.Fatal(err)
		}
	}
	ns.unlink(last)
	dir, _, _ := ns.walk("/d", false)
	if all := dir.files[:cap(dir.files)]; slices.Contains(all, last) {
		t.Fatalf("the directory's backing array still holds the unlinked file: %v", all)
	}
	if got, err := ns.GetFile("/d/a"); got != first || err != nil {
		t.Fatalf("GetFile(/d/a) = %v, %v after unlinking /d/b", got, err)
	}
}

// TestWalkUnder visits a directory's subtree in sorted order whatever the
// path's spelling, and treats a file, a missing directory or an invalid
// path as an empty subtree.
func TestWalkUnder(t *testing.T) {
	ns := NewNamespace()
	for _, p := range []string{"/d/c", "/d/a", "/d/sub/x", "/d/b", "/e"} {
		if err := ns.insertFile(p, &File{path: p}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		dir  string
		want []string
	}{
		{"/d", []string{"/d/a", "/d/b", "/d/c", "/d/sub/x"}},
		{"//d/./", []string{"/d/a", "/d/b", "/d/c", "/d/sub/x"}},
		{"/d/sub", []string{"/d/sub/x"}},
		{"/d/a", nil},
		{"/nope", nil},
		{"/d/../e", nil},
	} {
		var got []string
		ns.WalkUnder(tc.dir, func(f *File) { got = append(got, f.path) })
		if !slices.Equal(got, tc.want) {
			t.Errorf("WalkUnder(%q) visited %v, want %v", tc.dir, got, tc.want)
		}
	}
}

func TestWalkSortedOrder(t *testing.T) {
	ns := NewNamespace()
	paths := []string{"/b/2", "/a/1", "/c", "/a/0"}
	for _, p := range paths {
		if err := ns.insertFile(p, &File{path: p}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	ns.Walk(func(f *File) { got = append(got, f.path) })
	want := []string{"/a/0", "/a/1", "/b/2", "/c"}
	if len(got) != len(want) {
		t.Fatalf("Walk visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Walk order = %v, want %v", got, want)
		}
	}
}
