package dfs

import (
	"errors"
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
	// lookup must agree with CleanPath on rejection.
	ns := NewNamespace()
	for _, bad := range []string{"", "a", "/a/../b"} {
		if _, _, err := ns.lookup(bad); err == nil {
			t.Fatalf("lookup(%q) should fail", bad)
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
	if !ns.IsDir("/data") || !ns.IsDir("/data/input") {
		t.Fatal("parents not auto-created as directories")
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
	if err := ns.MkdirAll("/dir"); err != nil {
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
	got, err := ns.removeFile("/x/y")
	if err != nil || got != f {
		t.Fatalf("removeFile = %v, %v", got, err)
	}
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

func TestList(t *testing.T) {
	ns := NewNamespace()
	for _, p := range []string{"/d/c", "/d/a", "/d/b"} {
		if err := ns.insertFile(p, &File{path: p}); err != nil {
			t.Fatal(err)
		}
	}
	names, err := ns.List("/d")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List = %v, want %v", names, want)
		}
	}
	if _, err := ns.List("/d/a"); !errors.Is(err, ErrNotDirectory) {
		t.Fatalf("list file error = %v", err)
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
