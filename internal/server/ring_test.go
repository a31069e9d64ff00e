package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"octostore/internal/dfs"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// TestEventRingFIFO keeps the name of the ring's ordering test; what it
// pins now is the order of a drain. A single producer's stamped accesses
// over several files, all noted while the loop is held, are applied in
// (stamp, file id) order whatever order they were issued in, one
// notification per file carrying its count, with the engine run to each
// stamp before the notification.
func TestEventRingFIFO(t *testing.T) {
	srv, _ := newAccessTestServer(t, 1)
	sh := srv.shards[0]
	at := func(s int) time.Time { return sim.Epoch.Add(time.Duration(s) * time.Second) }
	paths := []string{"/o/a", "/o/b", "/o/c", "/o/d"}
	ids := make([]dfs.FileID, len(paths))
	for i, p := range paths {
		mustCreate(t, srv, p, storage.MB, at(1))
		h, _ := sh.ns.get(p)
		ids[i] = h.id
	}
	type seen struct {
		id  dfs.FileID
		n   int64
		now time.Time
	}
	var got []seen
	srv.Exec(func(_ int, fs *dfs.FileSystem) {
		fs.AddListener(accessRecorder(func(f *dfs.File, n int64) {
			got = append(got, seen{f.ID(), n, fs.Engine().Now()})
		}))
	})

	release := holdLoop(sh)
	for _, a := range []struct{ file, stamp int }{
		{3, 40}, {0, 30}, {2, 20}, {1, 20}, {0, 10}, {3, 25}, {0, 15},
	} {
		if _, err := srv.AccessAt(paths[a.file], at(a.stamp)); err != nil {
			t.Fatal(err)
		}
	}
	release()
	srv.Flush()

	// b and c tie on the stamp and go by id; a's three accesses collapse onto
	// its latest stamp, d's two onto 40.
	want := []seen{{ids[1], 1, at(20)}, {ids[2], 1, at(20)}, {ids[0], 3, at(30)}, {ids[3], 2, at(40)}}
	if len(got) != len(want) {
		t.Fatalf("notifications = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].id != want[i].id || got[i].n != want[i].n || !got[i].now.Equal(want[i].now) {
			t.Fatalf("notification %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	st := srv.Stats()
	if st.Accesses != 7 || st.EventsDrained != 7 || st.DrainEntries != 4 || st.DrainBatches != 1 {
		t.Fatalf("stats = %+v, want 7 accesses applied as 4 entries in 1 drain", st)
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestEventRingConcurrentProducers keeps the name of the ring's storm test:
// eight producers run a zipf storm through the serving path while the loops
// drain concurrently, and afterwards every file's statistics hold exactly
// what was issued for that file — the count and the latest stamp — not just
// the right total (run under -race in CI).
func TestEventRingConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		files     = 2048
		perProd   = 250_000 // storm accesses per producer: 2 M in all
		step      = time.Millisecond
	)
	storm := perProd
	if testing.Short() {
		storm = perProd / 10
	}
	srv, mgrs := newAccessTestServer(t, 2)
	paths := make([]string, files)
	var created []<-chan error
	for i := range paths {
		paths[i] = fmt.Sprintf("/storm/d%02d/f%04d", i%32, i)
		created = append(created, srv.CreateAt(paths[i], 64*storage.KB, sim.Epoch.Add(time.Second)))
	}
	srv.Flush()
	for _, ch := range created {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}

	// Producer p's i-th access is stamped base + i*step, so stamps rise along
	// every producer and interleave across them. The engine only moves
	// forward: a file drained after another file's later stamp is booked at
	// that later instant. So that "the file's latest issued stamp" is also
	// where its last access must land, every producer closes with one sweep
	// over its share of the files at the storm's final stamp.
	base := sim.Epoch.Add(time.Minute)
	final := base.Add(time.Duration(storm) * step)
	type tally struct {
		n    int64
		last time.Time
	}
	issued := make([][]tally, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		issued[p] = make([]tally, files)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			zipf := rand.NewZipf(rng, 1.1, 1, files-1)
			touch := func(i int, at time.Time) {
				if _, err := srv.AccessAt(paths[i], at); err != nil {
					t.Error(err)
				}
				issued[p][i].n++
				if at.After(issued[p][i].last) {
					issued[p][i].last = at
				}
			}
			for i := 0; i < storm; i++ {
				touch(int(zipf.Uint64()), base.Add(time.Duration(i)*step))
			}
			for i := p; i < files; i += producers {
				touch(i, final)
			}
		}(p)
	}
	wg.Wait()
	srv.Flush()

	want := make(map[string]tally, files)
	var total int64
	for i, path := range paths {
		var sum tally
		for p := range issued {
			sum.n += issued[p][i].n
			if issued[p][i].last.After(sum.last) {
				sum.last = issued[p][i].last
			}
		}
		want[path] = sum
		total += sum.n
	}
	checked := 0
	srv.Exec(func(shard int, fs *dfs.FileSystem) {
		ctx := mgrs[shard].Context()
		for _, f := range fs.LiveFiles() {
			w := want[f.Path()]
			if got := ctx.AccessCount(f); got != w.n {
				t.Errorf("%s: AccessCount = %d, issued %d", f.Path(), got, w.n)
			}
			if got := ctx.LastTouch(f); !got.Equal(w.last) {
				t.Errorf("%s: LastTouch = %v, latest issued stamp %v", f.Path(), got, w.last)
			}
			checked++
		}
	})
	if checked != files {
		t.Fatalf("checked %d files, want %d", checked, files)
	}
	st := srv.Stats()
	if st.Accesses != total || st.EventsDrained != total || st.AccessesDiscarded != 0 || st.EventsDropped != 0 {
		t.Fatalf("issued %d accesses; stats %+v", total, st)
	}
	if st.DrainEntries >= total {
		t.Fatalf("%d accesses were applied as %d notifications: nothing coalesced", total, st.DrainEntries)
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}

func TestNSShardsBasics(t *testing.T) {
	s := newNSShards(16)
	cases := []struct{ path, dir, name string }{
		{"/a/b/c", "/a/b", "c"},
		{"/top", "/", "top"},
		{"/x/y", "/x", "y"},
	}
	for _, c := range cases {
		dir, name := parentOf(c.path)
		if dir != c.dir || name != c.name {
			t.Fatalf("parentOf(%q) = (%q, %q), want (%q, %q)", c.path, dir, name, c.dir, c.name)
		}
	}
	h1 := &handle{id: 1, path: "/a/b/c", size: 10}
	h2 := &handle{id: 2, path: "/a/b/d", size: 20}
	s.put(h1)
	s.put(h2)
	if got, ok := s.get("/a/b/c"); !ok || got != h1 {
		t.Fatal("get after put failed")
	}
	if got := s.list("/a/b"); len(got) != 2 || got[0] != "c" || got[1] != "d" {
		t.Fatalf("list = %v", got)
	}
	s.remove(h1)
	if _, ok := s.get("/a/b/c"); ok {
		t.Fatal("get after remove succeeded")
	}
	if got := s.list("/a/b"); len(got) != 1 || got[0] != "d" {
		t.Fatalf("list after remove = %v", got)
	}
	// A put for an indexed path replaces the entry (a migration's copy
	// landing), and unindexing the replaced handle leaves the new one.
	h3 := &handle{id: 3, path: "/a/b/d", size: 30}
	s.put(h3)
	if got, ok := s.get("/a/b/d"); !ok || got != h3 {
		t.Fatal("put did not replace the entry")
	}
	s.remove(h2)
	if got, ok := s.get("/a/b/d"); !ok || got != h3 {
		t.Fatal("removing the replaced handle unindexed its successor")
	}
	if got := s.list("/a/b"); len(got) != 1 || got[0] != "d" {
		t.Fatalf("list after replace = %v", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not zero")
	}
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < 500*time.Nanosecond || p50 > 2*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1µs", p50)
	}
	if p99 < 500*time.Microsecond || p99 > 2*time.Millisecond {
		t.Fatalf("p99 = %v, want ~1ms", p99)
	}
	if p99 <= p50 {
		t.Fatalf("p99 %v <= p50 %v", p99, p50)
	}
}
