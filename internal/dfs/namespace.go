package dfs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Namespace errors.
var (
	ErrNotFound       = errors.New("dfs: no such file or directory")
	ErrExists         = errors.New("dfs: path already exists")
	ErrNotDirectory   = errors.New("dfs: not a directory")
	ErrInvalidPath    = errors.New("dfs: invalid path")
	ErrIsDirectory    = errors.New("dfs: is a directory")
	ErrFileIncomplete = errors.New("dfs: file write not yet complete")
)

// entry is one directory in the namespace tree. Files are not entries:
// a directory holds its files directly as a path-sorted *File slice, so a
// file's entire namespace footprint is one pointer in its parent — its
// name is the last component of File.path (shared backing, no copy), and
// there is no per-file tree node to allocate. Every file of a directory
// shares the directory's path as its prefix, so path order is name order
// and a lookup compares the prefix of the path it resolves, never cutting a
// name out. Directories are rare relative to files (one per few hundred
// files in typical layouts), so their slices and names are noise at scale.
type entry struct {
	name    string
	subdirs []*entry // sorted by name
	files   []*File  // sorted by path
}

// fileBase returns the file's name: the last component of its path.
func fileBase(f *File) string {
	return f.path[strings.LastIndexByte(f.path, '/')+1:]
}

// findDir returns the child directory with the given name, or nil.
func (e *entry) findDir(name string) *entry {
	k := sort.Search(len(e.subdirs), func(i int) bool { return e.subdirs[i].name >= name })
	if k < len(e.subdirs) && e.subdirs[k].name == name {
		return e.subdirs[k]
	}
	return nil
}

// searchFile returns where a file with the given path sits, or would.
func (e *entry) searchFile(path string) int {
	return sort.Search(len(e.files), func(i int) bool { return e.files[i].path >= path })
}

// findFile returns the contained file with the given path, or nil.
func (e *entry) findFile(path string) *File {
	if k := e.searchFile(path); k < len(e.files) && e.files[k].path == path {
		return e.files[k]
	}
	return nil
}

// insertDir links a child directory, keeping subdirs sorted.
func (e *entry) insertDir(sub *entry) {
	k := sort.Search(len(e.subdirs), func(i int) bool { return e.subdirs[i].name >= sub.name })
	e.subdirs = slices.Insert(e.subdirs, k, sub)
}

// insertFile links a file, keeping files sorted.
func (e *entry) insertFile(f *File) {
	e.files = slices.Insert(e.files, e.searchFile(f.path), f)
}

// removeFile unlinks f. slices.Delete clears the vacated tail slot, so the
// backing array does not pin a removed file.
func (e *entry) removeFile(f *File) {
	if k := e.searchFile(f.path); k < len(e.files) && e.files[k] == f {
		e.files = slices.Delete(e.files, k, k+1)
	}
}

// Namespace is the FS Directory component of the Master: a conventional
// hierarchical file organisation (Section 3.3).
type Namespace struct {
	root  *entry
	files int
}

// NewNamespace returns an empty namespace containing only "/".
func NewNamespace() *Namespace {
	return &Namespace{root: &entry{}}
}

// FileCount returns the number of files (not directories) in the namespace.
func (ns *Namespace) FileCount() int { return ns.files }

// isCanonical reports whether the path is already in canonical form:
// absolute, no empty, "." or ".." components, and no trailing slash (root
// excepted). Canonical paths pass through CleanPath unchanged.
func isCanonical(path string) bool {
	if path == "/" {
		return true
	}
	if !strings.HasPrefix(path, "/") {
		return false
	}
	for rest := path[1:]; ; {
		name, tail, more := strings.Cut(rest, "/")
		if name == "" || name == "." || name == ".." {
			return false
		}
		if !more {
			return true
		}
		rest = tail
	}
}

// CleanPath normalises a path ("/a//b/./c" -> "/a/b/c"). It fails on
// relative paths and paths containing "..". Already-canonical paths are
// returned as-is without allocating.
func CleanPath(path string) (string, error) {
	if isCanonical(path) {
		return path, nil
	}
	if !strings.HasPrefix(path, "/") {
		return "", fmt.Errorf("%w: %q is not absolute", ErrInvalidPath, path)
	}
	var b strings.Builder
	for _, p := range strings.Split(path, "/") {
		switch p {
		case "", ".":
		case "..":
			return "", fmt.Errorf("%w: %q contains '..'", ErrInvalidPath, path)
		default:
			b.WriteByte('/')
			b.WriteString(p)
		}
	}
	if b.Len() == 0 {
		return "/", nil
	}
	return b.String(), nil
}

// stop is how a walk ended: on the whole path, or at the component it could
// not pass. A walk builds no error; the methods that take a path turn a stop
// into one, spelled with the caller's path, only when they fail.
type stop uint8

const (
	found   stop = iota
	missing      // a component does not exist
	notDir       // a component before the last is a file
)

// err is the error a failed walk of path reports.
func (s stop) err(path string) error {
	if s == notDir {
		return fmt.Errorf("%w: %q", ErrNotDirectory, path)
	}
	return fmt.Errorf("%w: %q", ErrNotFound, path)
}

// walk resolves a canonical path component by component, in place: it
// allocates nothing unless it creates a directory. A path naming a directory
// returns that directory; one naming a file returns the directory holding
// it and the file; one whose last component is missing returns the
// directory that would hold it. With create, a missing component before the
// last becomes a new directory instead of stopping the walk.
func (ns *Namespace) walk(path string, create bool) (*entry, *File, stop) {
	dir := ns.root
	for rest := path[1:]; rest != ""; {
		name, tail, more := strings.Cut(rest, "/")
		prefix := path[:len(path)-len(rest)+len(name)] // the path up to name
		rest = tail
		if sub := dir.findDir(name); sub != nil {
			dir = sub
			continue
		}
		if f := dir.findFile(prefix); f != nil {
			if more {
				return nil, nil, notDir
			}
			return dir, f, found
		}
		if !more {
			return dir, nil, missing
		}
		if !create {
			return nil, nil, missing
		}
		sub := &entry{name: name}
		dir.insertDir(sub)
		dir = sub
	}
	return dir, nil, found
}

// insertFile links f at a canonical path, creating missing parent
// directories, and sets f.path to it, so the file's name (the last
// component) shares the path's backing: no separate name storage per file.
func (ns *Namespace) insertFile(path string, f *File) error {
	if path == "/" {
		return fmt.Errorf("%w: cannot create file at root", ErrInvalidPath)
	}
	dir, _, s := ns.walk(path, true)
	switch s {
	case found:
		return fmt.Errorf("%w: %q", ErrExists, path)
	case notDir:
		return s.err(path)
	}
	f.path = path
	dir.insertFile(f)
	ns.files++
	return nil
}

// GetFile resolves a path to a file.
func (ns *Namespace) GetFile(path string) (*File, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return nil, err
	}
	_, f, s := ns.walk(clean, false)
	if s != found {
		return nil, s.err(path)
	}
	if f == nil {
		return nil, fmt.Errorf("%w: %q", ErrIsDirectory, path)
	}
	return f, nil
}

// Exists reports whether a path resolves to a file or directory.
func (ns *Namespace) Exists(path string) bool {
	clean, err := CleanPath(path)
	if err != nil {
		return false
	}
	_, _, s := ns.walk(clean, false)
	return s == found
}

// unlink removes a linked file from the directory holding it, walking its
// path. The caller is responsible for replica teardown.
func (ns *Namespace) unlink(f *File) {
	dir, _, _ := ns.walk(f.path, false)
	dir.removeFile(f)
	ns.files--
}

// Walk visits every file in the namespace in sorted path order.
func (ns *Namespace) Walk(fn func(f *File)) {
	walkEntry(ns.root, fn)
}

// WalkUnder visits every file in the subtree rooted at dir in sorted path
// order. A dir that does not resolve to a directory (missing, or a file) is
// an empty subtree — the shard rebalancer sweeps prefixes that may not have
// materialized on every shard.
func (ns *Namespace) WalkUnder(dir string, fn func(f *File)) {
	clean, err := CleanPath(dir)
	if err != nil {
		return
	}
	if e, f, s := ns.walk(clean, false); s == found && f == nil {
		walkEntry(e, fn)
	}
}

func walkEntry(e *entry, fn func(f *File)) {
	di, fi := 0, 0
	for di < len(e.subdirs) || fi < len(e.files) {
		if fi >= len(e.files) ||
			(di < len(e.subdirs) && e.subdirs[di].name < fileBase(e.files[fi])) {
			walkEntry(e.subdirs[di], fn)
			di++
		} else {
			fn(e.files[fi])
			fi++
		}
	}
}
