package server_test

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/obs"
	"octostore/internal/policy"
	"octostore/internal/server"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// lruByScan is LRU's selection by full scan: the tier's eligible file with
// the least recent touch, ties toward the lowest file id.
func lruByScan(ctx *core.Context, tier storage.Media) *dfs.File {
	var best *dfs.File
	var bestT time.Time
	for _, f := range ctx.EligibleFilesInto(nil, tier) {
		t := ctx.LastTouch(f)
		if best == nil || t.Before(bestT) || (t.Equal(bestT) && f.ID() < best.ID()) {
			best, bestT = f, t
		}
	}
	return best
}

// scrape fetches /metrics and sums, per reason label, the samples of one
// family across shards.
func scrape(t *testing.T, addr, family string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		labels, value, _ := strings.Cut(line[len(family):], " ")
		_, reason, _ := strings.Cut(labels, `reason="`)
		reason, _, _ = strings.Cut(reason, `"`)
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("unparsable sample %q", line)
		}
		out[reason] += v
	}
	return out
}

// TestBackpressureParksTheLoopNotTheFiles is the manager's half of the
// backpressure contract. A tight memory tier overflows behind a two-deep
// executor queue: the downgrade loop must stop at the queue bound with nothing
// shed and no cooldown booked, exactly the admitted files parked and the next
// candidate still on top of the heap, and a completion alone — no new data on
// the tier — must set it going again. The scrape at the end checks that what
// the loop did is on /metrics under the reasons that are left.
func TestBackpressureParksTheLoopNotTheFiles(t *testing.T) {
	hub := obs.NewHub(obs.HubConfig{})
	addr, stop, err := hub.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer stop()

	var mgr *core.Manager
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards: 1,
		Cluster: cluster.Config{Workers: 2, SlotsPerNode: 4, Spec: storage.NodeSpec{
			{Media: storage.Memory, Capacity: 128 * storage.MB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
			{Media: storage.SSD, Capacity: 4 * storage.GB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
			{Media: storage.HDD, Capacity: 32 * storage.GB, ReadBW: 160e6, WriteBW: 140e6, Count: 2},
		}},
		DFS: dfs.Config{Mode: dfs.ModeOctopus, Seed: 9, ClientRate: 2000e6},
		Build: func(_ int, fs *dfs.FileSystem) (*core.Manager, error) {
			ctx := core.NewContext(fs, core.DefaultConfig())
			mgr = core.NewManager(ctx, policy.NewLRU(ctx), policy.NewOSA(ctx))
			return mgr, nil
		},
		Inner: server.Config{ // replay mode
			Obs:      hub,
			Executor: server.ExecutorConfig{WorkersPerTier: 1, QueueDepth: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()

	// 400 one-MB files inside four virtual seconds: memory (256 MB) crosses
	// its watermark long before the first move's five-second command latency
	// runs out, so when the last create is applied nothing has completed.
	at := sim.Epoch
	var created []<-chan error
	for i := 0; i < 400; i++ {
		at = at.Add(10 * time.Millisecond)
		created = append(created, srv.CreateAt(fmt.Sprintf("/park/d%02d/f%03d", i%8, i), storage.MB, at))
	}
	moves := func() (scheduled, settled, shed int64) {
		for _, tier := range srv.ExecutorStats().PerTier {
			scheduled += tier.Scheduled
			settled += tier.Completed + tier.Failed
			shed += tier.Shed
		}
		return
	}
	srv.Exec(func(_ int, fs *dfs.FileSystem) { // on the shard loop: t.Error only
		scheduled, settled, shed := moves()
		if scheduled != 3 || settled != 0 || shed != 0 {
			t.Errorf("%d moves admitted, %d settled, %d shed; want the worker's one plus the queue's two, none settled or shed", scheduled, settled, shed)
			return
		}
		for _, r := range core.CooldownReasons {
			if n := mgr.Cooldowns(r); n != 0 {
				t.Errorf("%d %s cooldowns booked by a full queue", n, r)
			}
		}
		if busy, cooling := mgr.ParkedFiles(); busy != scheduled || cooling != 0 {
			t.Errorf("parked: %d busy, %d cooling; want exactly the %d admitted files", busy, cooling, scheduled)
		}
		ctx := mgr.Context()
		if !ctx.AboveHighWatermark(storage.Memory) {
			t.Error("memory is not over its watermark; the loop had no reason to run")
			return
		}
		top := ctx.Index().SelectLRU(storage.Memory)
		if want := lruByScan(ctx, storage.Memory); top == nil || top != want || !ctx.Selectable(top) {
			t.Errorf("heap top %v, linear scan says %v; the refused candidate must stay the next one", top, want)
			return
		}
		if err := ctx.Index().Audit(); err != nil {
			t.Error(err)
		}

		// Step to the first completion. Creates are all applied, so no data
		// arrives on memory: only the executor's room wake can resume the loop.
		added := 0
		fs.AddListener(tierWatcher{onAdded: func(m storage.Media) {
			if m == storage.Memory {
				added++
			}
		}})
		for settled == 0 && fs.Engine().Step() {
			_, settled, _ = moves()
		}
		for i := 0; i < 4; i++ { // the wake is an event of its own, right behind
			fs.Engine().Step()
		}
		if after, _, _ := moves(); after <= scheduled || added != 0 {
			t.Errorf("after one completion: %d moves admitted (was %d), %d TierDataAdded(MEM); the loop did not resume on the room wake", after, scheduled, added)
		}
		if top.HasReplicaOn(storage.Memory) && ctx.Selectable(top) {
			t.Errorf("the resumed loop passed over the candidate it had stopped at")
		}
	})
	if t.Failed() {
		return
	}
	srv.Flush()
	for i, ch := range created {
		if err := <-ch; err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	if mgr.Context().AboveHighWatermark(storage.Memory) {
		t.Error("Flush returned with memory still over its watermark: the parked loop was not driven to the end")
	}

	stats := srv.ExecutorStats()
	if _, _, shed := moves(); shed != 0 {
		t.Errorf("%d moves shed", shed)
	}
	cooldowns := scrape(t, addr, "octo_manager_cooldowns_total")
	if len(cooldowns) != len(core.CooldownReasons) {
		t.Errorf("octo_manager_cooldowns_total exposes %v, want exactly the reasons %v", cooldowns, core.CooldownReasons)
	}
	for _, r := range core.CooldownReasons {
		if got, ok := cooldowns[r.String()]; !ok || int64(got) != mgr.Cooldowns(r) {
			t.Errorf("octo_manager_cooldowns_total{reason=%q} = %v (exposed %v), manager says %d", r, got, ok, mgr.Cooldowns(r))
		}
	}
	failed := scrape(t, addr, "octo_moves_failed_total")
	for _, r := range dfs.MoveReasons {
		var want int64
		for _, tier := range stats.PerTier {
			want += tier.FailedBy[r]
		}
		if got, ok := failed[r.String()]; !ok || int64(got) != want {
			t.Errorf("octo_moves_failed_total{reason=%q} = %v (exposed %v), executor says %d", r, got, ok, want)
		}
	}
	parked := scrape(t, addr, "octo_manager_parked_files")
	busy, cooling := mgr.ParkedFiles()
	for reason, want := range map[string]int64{"busy": busy, "cooldown": cooling} {
		if got, ok := parked[reason]; !ok || int64(got) != want {
			t.Errorf("octo_manager_parked_files{reason=%q} = %v (exposed %v), manager says %d", reason, got, ok, want)
		}
	}
}

// tierWatcher is a dfs.Listener that hears only TierDataAdded.
type tierWatcher struct{ onAdded func(storage.Media) }

func (tierWatcher) FileCreated(*dfs.File)                          {}
func (tierWatcher) FileAccessed(*dfs.File, int64)                  {}
func (tierWatcher) FileDeleted(*dfs.File)                          {}
func (tierWatcher) FileTierChanged(*dfs.File, storage.Media, bool) {}
func (w tierWatcher) TierDataAdded(m storage.Media)                { w.onAdded(m) }

// TestAccessAccountingScraped: the drain's counters are exposed per shard —
// accesses applied, the per-file notifications they were applied as, and the
// discards by reason — and the ring's gauges are gone with the ring.
func TestAccessAccountingScraped(t *testing.T) {
	hub := obs.NewHub(obs.HubConfig{})
	addr, stop, err := hub.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer stop()
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards:  2,
		Cluster: cluster.Config{Workers: 2, SlotsPerNode: 4, Spec: servedWorkerSpec()},
		DFS:     dfs.Config{Mode: dfs.ModeOctopus, Seed: 9, ClientRate: 2000e6},
		Inner:   server.Config{Obs: hub}, // replay mode
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()

	at := sim.Epoch.Add(time.Second)
	paths := []string{"/m/a/f", "/m/b/f", "/m/c/f"}
	for _, p := range paths {
		ch := srv.CreateAt(p, storage.MB, at)
		srv.Flush()
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 40
	for i := 0; i < rounds; i++ {
		for _, p := range paths {
			if _, err := srv.AccessAt(p, at.Add(time.Duration(i)*time.Second)); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Flush()
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("invariants: %v", v)
	}

	want := float64(rounds * len(paths))
	if got := scrape(t, addr, "octo_accesses_total")[""]; got != want {
		t.Errorf("octo_accesses_total = %v, want %v", got, want)
	}
	if got := scrape(t, addr, "octo_events_drained_total")[""]; got != want {
		t.Errorf("octo_events_drained_total = %v, want %v", got, want)
	}
	if got := scrape(t, addr, "octo_access_files_applied_total")[""]; got < float64(len(paths)) || got > want {
		t.Errorf("octo_access_files_applied_total = %v, want between %d and %v", got, len(paths), want)
	}
	discarded := scrape(t, addr, "octo_accesses_discarded_total")
	for _, reason := range []string{"deleted", "migrated"} {
		if got, ok := discarded[reason]; !ok || got != 0 {
			t.Errorf("octo_accesses_discarded_total{reason=%q} = %v (exposed %v), want 0", reason, got, ok)
		}
	}
	for _, gone := range []string{"octo_ring_occupancy", "octo_ring_dropped_total"} {
		if got := scrape(t, addr, gone); len(got) != 0 {
			t.Errorf("%s is still exposed: %v", gone, got)
		}
	}
}
