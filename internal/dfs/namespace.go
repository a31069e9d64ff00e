package dfs

import (
	"errors"
	"fmt"
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
// a directory holds its files directly as a name-sorted *File slice, so a
// file's entire namespace footprint is one pointer in its parent — its
// name is the last component of File.path (shared backing, no copy), and
// there is no per-file tree node to allocate. Directories are rare
// relative to files (one per few hundred files in typical layouts), so
// their slices and names are noise at scale.
type entry struct {
	name    string
	subdirs []*entry // sorted by name
	files   []*File  // sorted by fileBase
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

// findFile returns the contained file with the given name, or nil.
func (e *entry) findFile(name string) *File {
	k := sort.Search(len(e.files), func(i int) bool { return fileBase(e.files[i]) >= name })
	if k < len(e.files) && fileBase(e.files[k]) == name {
		return e.files[k]
	}
	return nil
}

// insertDir links a child directory, keeping subdirs sorted.
func (e *entry) insertDir(sub *entry) {
	k := sort.Search(len(e.subdirs), func(i int) bool { return e.subdirs[i].name >= sub.name })
	e.subdirs = append(e.subdirs, nil)
	copy(e.subdirs[k+1:], e.subdirs[k:])
	e.subdirs[k] = sub
}

// insertFile links a file, keeping files sorted. The file's path must
// already end in its name.
func (e *entry) insertFile(f *File) {
	name := fileBase(f)
	k := sort.Search(len(e.files), func(i int) bool { return fileBase(e.files[i]) >= name })
	e.files = append(e.files, nil)
	copy(e.files[k+1:], e.files[k:])
	e.files[k] = f
}

// removeFile unlinks the named file.
func (e *entry) removeFile(name string) {
	k := sort.Search(len(e.files), func(i int) bool { return fileBase(e.files[i]) >= name })
	if k < len(e.files) && fileBase(e.files[k]) == name {
		e.files = append(e.files[:k], e.files[k+1:]...)
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

// splitPath validates and splits an absolute path into components.
func splitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("%w: %q is not absolute", ErrInvalidPath, path)
	}
	var parts []string
	for _, p := range strings.Split(path, "/") {
		switch p {
		case "", ".":
			continue
		case "..":
			return nil, fmt.Errorf("%w: %q contains '..'", ErrInvalidPath, path)
		default:
			parts = append(parts, p)
		}
	}
	return parts, nil
}

// IsCanonicalPath reports whether the path is already in canonical form:
// absolute, no empty, "." or ".." components, and no trailing slash (root
// excepted). Canonical paths pass through CleanPath unchanged, so callers
// on hot paths use this as a zero-allocation fast check.
func IsCanonicalPath(path string) bool {
	if len(path) == 0 || path[0] != '/' {
		return false
	}
	if path == "/" {
		return true
	}
	if path[len(path)-1] == '/' {
		return false
	}
	for i := 1; i < len(path); {
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		comp := path[i:j]
		if comp == "" || comp == "." || comp == ".." {
			return false
		}
		i = j + 1
	}
	return true
}

// CleanPath normalises a path ("/a//b/./c" -> "/a/b/c"). It fails on
// relative paths and paths containing "..". Already-canonical paths are
// returned as-is without allocating.
func CleanPath(path string) (string, error) {
	if IsCanonicalPath(path) {
		return path, nil
	}
	parts, err := splitPath(path)
	if err != nil {
		return "", err
	}
	return "/" + strings.Join(parts, "/"), nil
}

// lookup resolves a path. For a directory it returns (dir, nil); for a
// file it returns (containing directory, file). It is the hottest
// namespace path (every Open/Exists/GetFile goes through it), so it scans
// components in place instead of splitting the path: substring searches do
// not allocate, making resolution zero-allocation for valid paths.
func (ns *Namespace) lookup(path string) (*entry, *File, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, nil, fmt.Errorf("%w: %q is not absolute", ErrInvalidPath, path)
	}
	cur := ns.root
	for i := 1; i < len(path); {
		for i < len(path) && path[i] == '/' {
			i++
		}
		if i >= len(path) {
			break
		}
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		comp := path[i:j]
		i = j
		switch comp {
		case ".":
			continue
		case "..":
			return nil, nil, fmt.Errorf("%w: %q contains '..'", ErrInvalidPath, path)
		}
		if sub := cur.findDir(comp); sub != nil {
			cur = sub
			continue
		}
		if f := cur.findFile(comp); f != nil {
			// A file resolves only as the final component; anything past
			// it (other than slashes and ".") descends through a non-dir.
			for i < len(path) {
				for i < len(path) && path[i] == '/' {
					i++
				}
				j = i
				for j < len(path) && path[j] != '/' {
					j++
				}
				switch path[i:j] {
				case "", ".":
					i = j
					continue
				case "..":
					return nil, nil, fmt.Errorf("%w: %q contains '..'", ErrInvalidPath, path)
				default:
					return nil, nil, fmt.Errorf("%w: %q", ErrNotDirectory, path)
				}
			}
			return cur, f, nil
		}
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	return cur, nil, nil
}

// MkdirAll creates the directory and any missing parents, like HDFS mkdirs.
func (ns *Namespace) MkdirAll(path string) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	cur := ns.root
	for _, p := range parts {
		if sub := cur.findDir(p); sub != nil {
			cur = sub
			continue
		}
		if cur.findFile(p) != nil {
			return fmt.Errorf("%w: %q", ErrNotDirectory, path)
		}
		sub := &entry{name: p}
		cur.insertDir(sub)
		cur = sub
	}
	return nil
}

// insertFile registers a file at path, creating parent directories. The
// file's cached path is set to the canonical path, so its name (the last
// component) shares the path string's backing — no separate name storage
// per file. The whole insert is a single in-place walk: canonical paths
// allocate nothing beyond directory growth.
func (ns *Namespace) insertFile(path string, f *File) error {
	if !IsCanonicalPath(path) {
		clean, err := CleanPath(path)
		if err != nil {
			return err
		}
		path = clean
	}
	if path == "/" {
		return fmt.Errorf("%w: cannot create file at root", ErrInvalidPath)
	}
	f.path = path
	cur := ns.root
	for i := 1; ; {
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		comp := path[i:j]
		if j >= len(path) { // final component: the file's name
			if cur.findDir(comp) != nil || cur.findFile(comp) != nil {
				return fmt.Errorf("%w: %q", ErrExists, path)
			}
			cur.insertFile(f)
			ns.files++
			return nil
		}
		if sub := cur.findDir(comp); sub != nil {
			cur = sub
		} else if cur.findFile(comp) != nil {
			return fmt.Errorf("%w: %q", ErrNotDirectory, path)
		} else {
			sub = &entry{name: comp}
			cur.insertDir(sub)
			cur = sub
		}
		i = j + 1
	}
}

// GetFile resolves a path to a file.
func (ns *Namespace) GetFile(path string) (*File, error) {
	_, f, err := ns.lookup(path)
	if err != nil {
		return nil, err
	}
	if f == nil {
		return nil, fmt.Errorf("%w: %q", ErrIsDirectory, path)
	}
	return f, nil
}

// Exists reports whether a path resolves to a file or directory.
func (ns *Namespace) Exists(path string) bool {
	_, _, err := ns.lookup(path)
	return err == nil
}

// IsDir reports whether path exists and is a directory.
func (ns *Namespace) IsDir(path string) bool {
	_, f, err := ns.lookup(path)
	return err == nil && f == nil
}

// removeFile unlinks a file entry. The caller is responsible for replica
// teardown.
func (ns *Namespace) removeFile(path string) (*File, error) {
	dir, f, err := ns.lookup(path)
	if err != nil {
		return nil, err
	}
	if f == nil {
		return nil, fmt.Errorf("%w: %q", ErrIsDirectory, path)
	}
	dir.removeFile(fileBase(f))
	ns.files--
	return f, nil
}

// List returns the sorted child names of a directory.
func (ns *Namespace) List(path string) ([]string, error) {
	e, f, err := ns.lookup(path)
	if err != nil {
		return nil, err
	}
	if f != nil {
		return nil, fmt.Errorf("%w: %q", ErrNotDirectory, path)
	}
	names := make([]string, 0, len(e.subdirs)+len(e.files))
	di, fi := 0, 0
	for di < len(e.subdirs) || fi < len(e.files) {
		if fi >= len(e.files) ||
			(di < len(e.subdirs) && e.subdirs[di].name < fileBase(e.files[fi])) {
			names = append(names, e.subdirs[di].name)
			di++
		} else {
			names = append(names, fileBase(e.files[fi]))
			fi++
		}
	}
	return names, nil
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
	e, f, err := ns.lookup(dir)
	if err != nil || f != nil {
		return
	}
	walkEntry(e, fn)
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
