package server

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"octostore/internal/sim"
	"octostore/internal/storage"
)

// TestListFiltersItsStripe holds a listing to the files directly under its
// directory. A listing scans the one namespace stripe the directory hashes
// to, and other paths share that stripe: the files of another directory
// that hashes there, and the files of a subdirectory that does.
func TestListFiltersItsStripe(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{})
	stripe := func(dir string) uint32 { return fnv32(dir) & srv.ns.mask }

	// Two directories on one stripe, and a subdirectory of the first on it.
	dirA := "/list/a"
	dirB := ""
	for i := 0; dirB == ""; i++ {
		if d := fmt.Sprintf("/list/b%d", i); stripe(d) == stripe(dirA) {
			dirB = d
		}
	}
	sub := ""
	for i := 0; sub == ""; i++ {
		if d := fmt.Sprintf("%s/s%d", dirA, i); stripe(d) == stripe(dirA) {
			sub = d
		}
	}

	at := sim.Epoch
	create := func(path string) {
		t.Helper()
		at = at.Add(time.Second)
		mustCreate(t, srv, path, storage.MB, at)
	}
	// Created out of order, so only the sort puts the listing in order.
	namesA := []string{"f5", "f2", "f7", "f0", "f3", "f6", "f1", "f4"}
	for _, n := range namesA {
		create(dirA + "/" + n)
	}
	for _, n := range []string{"g1", "g0"} {
		create(dirB + "/" + n)
	}
	create(sub + "/deep")

	// dirA lists neither dirB's files nor its grandchild sub/deep.
	want := slices.Clone(namesA)
	slices.Sort(want)
	if got := srv.List(dirA); !slices.Equal(got, want) {
		t.Fatalf("List(%s) = %v, want %v", dirA, got, want)
	}
	if got := srv.List(dirB); !slices.Equal(got, []string{"g0", "g1"}) {
		t.Fatalf("List(%s) = %v, want [g0 g1]", dirB, got)
	}
	if got := srv.List(sub); !slices.Equal(got, []string{"deep"}) {
		t.Fatalf("List(%s) = %v, want [deep]", sub, got)
	}

	if err := <-srv.DeleteAt(dirA+"/f3", at.Add(time.Second)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	want = slices.DeleteFunc(want, func(n string) bool { return n == "f3" })
	if got := srv.List(dirA); !slices.Equal(got, want) {
		t.Fatalf("List(%s) after a delete = %v, want %v", dirA, got, want)
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}
