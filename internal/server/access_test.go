package server

// In-package tests of the access path: the per-file accumulator and dirty
// list on their own, the drain-granularity contract of the package doc, and
// the accounting of accesses left on a deleted or migrated-away handle.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/ml"
	"octostore/internal/policy"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// newAccessTestServer starts a replay-mode (TimeScale 0) server under
// LRU/OSA with tiers roomy enough that nothing is ever downgraded, and
// returns each shard's manager.
func newAccessTestServer(t testing.TB, shards int) (*ShardedServer, []*core.Manager) {
	t.Helper()
	mgrs := make([]*core.Manager, shards)
	srv, err := NewSharded(ShardedConfig{
		Shards: shards,
		Cluster: cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: storage.NodeSpec{
			{Media: storage.Memory, Capacity: 4 * storage.GB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
			{Media: storage.SSD, Capacity: 16 * storage.GB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
			{Media: storage.HDD, Capacity: 64 * storage.GB, ReadBW: 160e6, WriteBW: 140e6, Count: 2},
		}},
		DFS: dfs.Config{Mode: dfs.ModeOctopus, Seed: 5, ClientRate: 2000e6},
		Build: func(i int, fs *dfs.FileSystem) (*core.Manager, error) {
			var err error
			mgrs[i], err = policy.NewManager(fs, "lru", "osa", ml.DefaultLearnerConfig())
			return mgrs[i], err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, mgrs
}

// holdLoop parks the shard loop inside a command until the returned release
// is called, so a test can note accesses with no drain in between.
func holdLoop(sh *shard) (release func()) {
	entered, gate := make(chan struct{}), make(chan struct{})
	sh.cmds <- command{run: func() {
		close(entered)
		<-gate
	}}
	<-entered
	return func() { close(gate) }
}

// accessRecorder is a dfs.Listener that hears only access notifications.
type accessRecorder func(f *dfs.File, n int64)

func (r accessRecorder) FileAccessed(f *dfs.File, n int64)            { r(f, n) }
func (accessRecorder) FileCreated(*dfs.File)                          {}
func (accessRecorder) FileDeleted(*dfs.File)                          {}
func (accessRecorder) FileTierChanged(*dfs.File, storage.Media, bool) {}
func (accessRecorder) TierDataAdded(storage.Media)                    {}

// TestDirtyListModel runs random interleavings of note / collect / re-note
// over a few handles against a plain model: every collect returns exactly
// the handles noted since the last one, each once, with the count and the
// latest stamp noted; a handle is on the list exactly while it has pending
// accesses.
func TestDirtyListModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l dirtyList
		handles := make([]*handle, 5)
		for i := range handles {
			handles[i] = &handle{id: dfs.FileID(i)}
		}
		pending := make([]int64, len(handles))
		latest := make([]int64, len(handles))
		var noted, collected int64
		check := func() {
			seen := make(map[*handle]bool)
			for _, p := range l.collect(nil) {
				i := int(p.h.id)
				if seen[p.h] {
					t.Fatalf("seed %d: handle %d collected twice in one take", seed, i)
				}
				seen[p.h] = true
				if p.n != pending[i] || p.stamp != latest[i] {
					t.Fatalf("seed %d: handle %d collected as n=%d stamp=%d, model says n=%d stamp=%d",
						seed, i, p.n, p.stamp, pending[i], latest[i])
				}
				collected += p.n
				pending[i] = 0
			}
			for i, n := range pending {
				if n != 0 {
					t.Fatalf("seed %d: handle %d has %d pending accesses and was not on the list", seed, i, n)
				}
			}
			if !l.empty() {
				t.Fatalf("seed %d: list not empty after a collect", seed)
			}
		}
		for op := 0; op < 2000; op++ {
			if rng.Intn(10) == 0 {
				check()
				continue
			}
			i := rng.Intn(len(handles))
			var at time.Time // one note in four is unstamped
			if rng.Intn(4) != 0 {
				ns := rng.Int63n(1_000_000) + 1
				at = sim.AtNanos(ns)
				if ns > latest[i] {
					latest[i] = ns
				}
			}
			if pushed := l.note(handles[i], at); pushed != (pending[i] == 0) {
				t.Fatalf("seed %d: note on handle %d with %d pending reported pushed=%v", seed, i, pending[i], pushed)
			}
			pending[i]++
			noted++
		}
		check()
		if collected != noted {
			t.Fatalf("seed %d: collected %d accesses, noted %d", seed, collected, noted)
		}
	}
}

// TestDirtyListConcurrent is the same property with the interleaving left to
// the scheduler: producers note while a consumer collects, and per handle
// the counts collected add up to the counts noted, with no handle twice in
// one take (run under -race in CI).
func TestDirtyListConcurrent(t *testing.T) {
	const (
		producers = 8
		perProd   = 100_000
	)
	var l dirtyList
	handles := make([]*handle, 16)
	for i := range handles {
		handles[i] = &handle{id: dfs.FileID(i)}
	}
	got := make([]int64, len(handles))
	take := func() {
		seen := make(map[*handle]bool)
		for _, p := range l.collect(nil) {
			if seen[p.h] {
				t.Errorf("handle %d collected twice in one take", p.h.id)
			}
			seen[p.h] = true
			if p.n <= 0 {
				t.Errorf("handle %d on the list with %d pending", p.h.id, p.n)
			}
			got[p.h.id] += p.n
		}
	}
	var stop atomic.Bool
	consumer := make(chan struct{})
	go func() {
		defer close(consumer)
		for !stop.Load() {
			take()
		}
	}()
	want := make([][]int64, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		want[p] = make([]int64, len(handles))
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < perProd; i++ {
				h := rng.Intn(len(handles))
				l.note(handles[h], sim.AtNanos(int64(i)))
				want[p][h]++
			}
		}(p)
	}
	wg.Wait()
	stop.Store(true)
	<-consumer
	take()
	for h := range handles {
		var noted int64
		for p := range want {
			noted += want[p][h]
		}
		if got[h] != noted {
			t.Errorf("handle %d: collected %d accesses, noted %d", h, got[h], noted)
		}
		if n := handles[h].pending.Load(); n != 0 {
			t.Errorf("handle %d: %d accesses still pending after the last take", h, n)
		}
	}
	if !l.empty() {
		t.Error("list not empty after the last take")
	}
}

// TestAccessesAtDrainGranularity pins the package doc's contract paragraph.
// Two accesses of one file at t1 < t2 always end as count 2, last touch t2;
// what depends on whether a drain fell between them is only the k-last
// window: with one, it holds both instants — and with a fence between them
// the record is the sequential simulator's, bit for bit — without one, t1
// is collapsed onto t2.
func TestAccessesAtDrainGranularity(t *testing.T) {
	t1, t2 := sim.Epoch.Add(time.Hour), sim.Epoch.Add(2*time.Hour)
	const path = "/g/f"

	// The sequential oracle: the same file system, no serving layer.
	engine := sim.NewEngine()
	fs := dfs.MustNew(cluster.MustNew(engine, cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: storage.SmallWorkerSpec()}),
		dfs.Config{Mode: dfs.ModeOctopus, Seed: 5})
	ctx := core.NewContext(fs, core.DefaultConfig())
	var oracleFile *dfs.File
	fs.Create(path, storage.MB, func(f *dfs.File, err error) {
		if err != nil {
			t.Fatal(err)
		}
		oracleFile = f
	})
	engine.RunUntil(t1)
	fs.RecordAccess(oracleFile)
	engine.RunUntil(t2)
	fs.RecordAccess(oracleFile)
	oracle := ctx.Record(oracleFile).AccessesBefore(t2, 0)

	cases := []struct {
		name    string
		between func(srv *ShardedServer) // what happens between the two accesses
		held    bool                     // the loop is parked while both are noted
		window  []time.Time
	}{
		{name: "fenced", between: func(srv *ShardedServer) { srv.Flush() }, window: oracle},
		{name: "drained between", between: func(srv *ShardedServer) {
			for srv.Stats().EventsDrained < 1 {
				time.Sleep(50 * time.Microsecond)
			}
		}, window: []time.Time{t1, t2}},
		{name: "one drain", between: func(*ShardedServer) {}, held: true, window: []time.Time{t2, t2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, mgrs := newAccessTestServer(t, 1)
			mustCreate(t, srv, path, storage.MB, sim.Epoch.Add(time.Second))
			release := func() {}
			if tc.held {
				release = holdLoop(srv.shards[0])
			}
			if _, err := srv.AccessAt(path, t1); err != nil {
				t.Fatal(err)
			}
			tc.between(srv)
			if _, err := srv.AccessAt(path, t2); err != nil {
				t.Fatal(err)
			}
			release()
			srv.Flush()
			srv.Exec(func(_ int, fs *dfs.FileSystem) {
				f, err := fs.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				ctx := mgrs[0].Context()
				if n := ctx.AccessCount(f); n != 2 {
					t.Errorf("AccessCount = %d, want 2", n)
				}
				if last := ctx.LastTouch(f); !last.Equal(t2) {
					t.Errorf("LastTouch = %v, want %v", last, t2)
				}
				got := ctx.Record(f).AccessesBefore(t2, 0)
				if len(got) != len(tc.window) {
					t.Fatalf("window = %v, want %v", got, tc.window)
				}
				for i := range got {
					if !got[i].Equal(tc.window[i]) {
						t.Fatalf("window = %v, want %v", got, tc.window)
					}
				}
			})
			if v := srv.Verify(); len(v) > 0 {
				t.Fatalf("invariants: %v", v)
			}
		})
	}
}

// TestPendingAccessesOnGoneHandleAreDiscarded: a client that resolved its
// handle before the file was deleted, or migrated to another shard, notes
// its access on a handle nothing will ever apply. Those accesses used to
// vanish from the books; they are counted, by reason, and Verify's identity
// Accesses == EventsDrained + AccessesDiscarded holds.
func TestPendingAccessesOnGoneHandleAreDiscarded(t *testing.T) {
	srv := newEpochTestServer(t, RebalanceConfig{Enabled: true})
	at := func(s int) time.Time { return sim.Epoch.Add(time.Duration(s) * time.Second) }
	const dir = "/gone/d"
	doomed, moving := dir+"/deleted", dir+"/migrated"
	mustCreate(t, srv, doomed, storage.MB, at(1))
	mustCreate(t, srv, moving, storage.MB, at(1))
	owner := srv.shards[RouteShard(dir, srv.NumShards())]
	dst := srv.shards[(owner.idx+1)%srv.NumShards()]

	// One applied access each, so both counters move.
	for _, p := range []string{doomed, moving} {
		if _, err := srv.AccessAt(p, at(2)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Flush()

	stale := func(path string) *handle {
		h, ok := owner.ns.get(path)
		if !ok {
			t.Fatalf("%s not on its owner shard", path)
		}
		return h
	}
	hDoomed, hMoving := stale(doomed), stale(moving)
	if err := <-srv.DeleteAt(doomed, at(3)); err != nil {
		t.Fatal(err)
	}
	if out := srv.reb.migrateFile(owner, dst, moving); out != migrateMoved {
		t.Fatalf("migrateFile = %v, want migrateMoved", out)
	}
	for i := 0; i < 3; i++ {
		owner.access(hDoomed, Op{Kind: OpAccess, Path: doomed, At: at(4)}, nil, time.Time{})
	}
	for i := 0; i < 2; i++ {
		owner.access(hMoving, Op{Kind: OpAccess, Path: moving, At: at(4)}, nil, time.Time{})
	}
	srv.Flush()

	if got := owner.counters.discarded[discardDeleted].Load(); got != 3 {
		t.Errorf("discarded as deleted = %d, want 3", got)
	}
	if got := owner.counters.discarded[discardMigrated].Load(); got != 2 {
		t.Errorf("discarded as migrated = %d, want 2", got)
	}
	st := srv.Stats()
	if st.Accesses != 7 || st.EventsDrained != 2 || st.AccessesDiscarded != 5 {
		t.Errorf("stats = %+v, want 7 accesses = 2 applied + 5 discarded", st)
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}
}
