package dfs

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// fuzzNames are the components FuzzNamespace builds paths from: few, so
// random operations meet the files earlier ones made. "a-b" sorts after
// "a" as a component but before "a/…" as bytes, and "..." is a name, not a
// dot component.
var fuzzNames = [4]string{"a", "b", "a-b", "..."}

// fuzzPath is one decoded path: its canonical form, how the operation spells
// it, and whether that spelling is a path at all (absolute, no "..").
type fuzzPath struct {
	canonical, spelled string
	valid              bool
}

// decodeFuzzPath builds a path of depth components from two bytes: the
// component names (two bits each, the top two placing a "..") and the
// spelling, whose bits add a "."
// before and a "//" after components, a trailing "/", a ".." and a missing
// leading "/" (the last two rarer, so most operations reach the tree).
func decodeFuzzPath(depth int, names, spell byte) fuzzPath {
	parts := make([]string, depth)
	var segs []string
	for i := range parts {
		parts[i] = fuzzNames[names>>(2*i)&3]
		if spell&8 != 0 {
			segs = append(segs, ".")
		}
		segs = append(segs, parts[i])
		if spell&4 != 0 {
			segs = append(segs, "")
		}
	}
	dotdot := spell&0xe0 == 0xe0
	if dotdot {
		at := int(names>>6) % (len(segs) + 1)
		segs = slices.Insert(segs, at, "..")
	}
	p := fuzzPath{canonical: "/" + strings.Join(parts, "/"), spelled: strings.Join(segs, "/")}
	if spell&3 != 3 {
		p.spelled = "/" + p.spelled
	}
	if spell&16 != 0 {
		p.spelled += "/" // makes the root absolute even without the leading "/"
	}
	p.valid = !dotdot && strings.HasPrefix(p.spelled, "/")
	return p
}

// nsOracle is the namespace as two sets: the files, and every directory
// ever made (the root and each ancestor of an inserted file; a directory
// stays when its last file goes, as in the tree).
type nsOracle struct {
	files map[string]*File
	dirs  map[string]bool
}

// fileAbove reports whether a proper ancestor of the canonical path is a
// file.
func (o *nsOracle) fileAbove(path string) bool {
	for i := 1; i < len(path); i++ {
		if path[i] == '/' && o.files[path[:i]] != nil {
			return true
		}
	}
	return false
}

// resolve is what GetFile gives for a path, and so what a remove (GetFile,
// then unlink of the file it found) finds.
func (o *nsOracle) resolve(p fuzzPath) (*File, error) {
	switch {
	case !p.valid:
		return nil, ErrInvalidPath
	case o.fileAbove(p.canonical):
		return nil, ErrNotDirectory
	case o.files[p.canonical] != nil:
		return o.files[p.canonical], nil
	case o.dirs[p.canonical]:
		return nil, ErrIsDirectory
	}
	return nil, ErrNotFound
}

// insert is what inserting a file at the path gives, applied to the sets.
func (o *nsOracle) insert(p fuzzPath, f *File) error {
	switch {
	case !p.valid || p.canonical == "/":
		return ErrInvalidPath
	case o.fileAbove(p.canonical):
		return ErrNotDirectory
	case o.files[p.canonical] != nil || o.dirs[p.canonical]:
		return ErrExists
	}
	o.files[p.canonical] = f
	for i := 1; i < len(p.canonical); i++ {
		if p.canonical[i] == '/' {
			o.dirs[p.canonical[:i]] = true
		}
	}
	return nil
}

// under lists the files below the directory at the path in the order Walk
// visits them: component by component, so /a/b comes before /a-b.
func (o *nsOracle) under(p fuzzPath) []string {
	var out []string
	if !p.valid || !o.dirs[p.canonical] {
		return out
	}
	prefix := strings.TrimSuffix(p.canonical, "/") + "/"
	for path := range o.files {
		if strings.HasPrefix(path, prefix) {
			out = append(out, path)
		}
	}
	slices.SortFunc(out, func(a, b string) int {
		return slices.Compare(strings.Split(a, "/"), strings.Split(b, "/"))
	})
	return out
}

func sameErr(got, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}

// runNamespaceOps decodes three bytes per operation — kind and depth, then
// the path's names and spelling — and runs each against a Namespace and
// the oracle: insert (cleaned at the door, as CreateFile and AttachFile
// do), remove (GetFile, then unlink of the file it found), GetFile, Exists
// and WalkUnder. Every spelling must also
// clean to its canonical path or be rejected as invalid.
func runNamespaceOps(t *testing.T, data []byte) {
	ns := NewNamespace()
	o := &nsOracle{files: map[string]*File{}, dirs: map[string]bool{"/": true}}
	for i := 0; i+2 < len(data); i += 3 {
		kind, depth := data[i]%5, int(data[i]/5%4)
		p := decodeFuzzPath(depth, data[i+1], data[i+2])
		op := i / 3
		clean, err := CleanPath(p.spelled)
		switch {
		case !p.valid && !errors.Is(err, ErrInvalidPath):
			t.Fatalf("op %d: CleanPath(%q) = %q, %v; want ErrInvalidPath", op, p.spelled, clean, err)
		case p.valid && (err != nil || clean != p.canonical):
			t.Fatalf("op %d: CleanPath(%q) = %q, %v; want %q", op, p.spelled, clean, err, p.canonical)
		}
		switch kind {
		case 0:
			f := &File{id: FileID(op)}
			if err == nil {
				err = ns.insertFile(clean, f)
			}
			if want := o.insert(p, f); !sameErr(err, want) {
				t.Fatalf("op %d: insert %q: %v, want %v", op, p.spelled, err, want)
			}
			if err == nil && f.path != p.canonical {
				t.Fatalf("op %d: inserted file's path %q, want %q", op, f.path, p.canonical)
			}
		case 1, 2:
			want, wantErr := o.resolve(p)
			var got *File
			got, err = ns.GetFile(p.spelled)
			if kind == 1 && err == nil {
				ns.unlink(got)
			}
			if kind == 1 && wantErr == nil {
				delete(o.files, p.canonical)
			}
			if got != want || !sameErr(err, wantErr) {
				t.Fatalf("op %d: kind %d on %q: %v, %v; want %v, %v", op, kind, p.spelled, got, err, want, wantErr)
			}
		case 3:
			want := p.valid && (o.files[p.canonical] != nil || o.dirs[p.canonical])
			if got := ns.Exists(p.spelled); got != want {
				t.Fatalf("op %d: Exists(%q) = %v, want %v", op, p.spelled, got, want)
			}
		case 4:
			var got []string
			ns.WalkUnder(p.spelled, func(f *File) { got = append(got, f.path) })
			if want := o.under(p); !slices.Equal(got, want) {
				t.Fatalf("op %d: WalkUnder(%q) visited %v, want %v", op, p.spelled, got, want)
			}
		}
		if ns.FileCount() != len(o.files) {
			t.Fatalf("op %d: FileCount %d, oracle %d", op, ns.FileCount(), len(o.files))
		}
	}
	var got []string
	ns.Walk(func(f *File) { got = append(got, f.path) })
	if want := o.under(fuzzPath{canonical: "/", valid: true}); !slices.Equal(got, want) {
		t.Fatalf("Walk visited %v, want %v", got, want)
	}
}

// namespaceSeed spells ops as (kind, depth, names, spelling) quadruples.
func namespaceSeed(ops ...[4]byte) []byte {
	var data []byte
	for _, op := range ops {
		data = append(data, op[0]+5*op[1], op[2], op[3])
	}
	return data
}

func FuzzNamespace(f *testing.F) {
	// /a/b and /a-b inserted, then walked from the root and from /a:
	// component order puts /a/b first although '-' sorts before '/'.
	// Names: a=0 b=1 a-b=2 ...=3, packed two bits per component.
	f.Add(namespaceSeed(
		[4]byte{0, 2, 0 | 1<<2, 0},           // insert /a/b
		[4]byte{0, 1, 2, 0},                  // insert /a-b
		[4]byte{4, 0, 0, 0},                  // WalkUnder /
		[4]byte{4, 1, 0, 4 | 8 | 16},         // WalkUnder /./a//
		[4]byte{0, 1, 0, 0},                  // insert /a: a directory
		[4]byte{0, 3, 0 | 1<<2, 0},           // insert /a/b/a: through a file
		[4]byte{2, 1, 0, 0},                  // GetFile /a: a directory
		[4]byte{1, 2, 0 | 1<<2, 16},          // remove /a/b/
		[4]byte{3, 1, 0, 0},                  // Exists /a: the emptied directory stays
		[4]byte{3, 2, 0 | 1<<2, 3},           // Exists a/b: relative
		[4]byte{2, 2, 0 | 1<<2 | 1<<6, 0xe0}, // GetFile /a/../b
		[4]byte{0, 2, 3 | 3<<2, 8},           // insert /./..././...: "..." is a name
	))
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 3*128)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	// A directory's last-sorted file removed, then one inserted that sorts
	// before it into the slot the removal vacated.
	f.Add(namespaceSeed(
		[4]byte{0, 2, 0 | 0<<2, 0}, // insert /a/a
		[4]byte{0, 2, 0 | 1<<2, 0}, // insert /a/b
		[4]byte{1, 2, 0 | 1<<2, 0}, // remove /a/b
		[4]byte{0, 2, 0 | 2<<2, 0}, // insert /a/a-b
		[4]byte{2, 2, 0 | 1<<2, 0}, // GetFile /a/b: gone
		[4]byte{2, 2, 0 | 2<<2, 0}, // GetFile /a/a-b
		[4]byte{4, 1, 0, 0},        // WalkUnder /a
	))
	f.Fuzz(runNamespaceOps)
}
