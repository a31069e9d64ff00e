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

// TestParkingMetricsScrapedAfterShedding overflows a tight memory tier behind
// a one-deep executor queue, so the downgrade loop sheds most of what it
// selects, then scrapes /metrics: the per-reason cooldown counters and the
// parked-file gauges must be exposed per shard and agree with the managers'
// own counts and the executors' shed counters.
func TestParkingMetricsScrapedAfterShedding(t *testing.T) {
	hub := obs.NewHub(obs.HubConfig{})
	addr, stop, err := hub.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer stop()

	const shards = 2
	mgrs := make([]*core.Manager, shards)
	srv, err := server.NewSharded(server.ShardedConfig{
		Shards: shards,
		Cluster: cluster.Config{Workers: 2, SlotsPerNode: 4, Spec: storage.NodeSpec{
			{Media: storage.Memory, Capacity: 128 * storage.MB, ReadBW: 4000e6, WriteBW: 3000e6, Count: 1},
			{Media: storage.SSD, Capacity: 4 * storage.GB, ReadBW: 500e6, WriteBW: 400e6, Count: 1},
			{Media: storage.HDD, Capacity: 32 * storage.GB, ReadBW: 160e6, WriteBW: 140e6, Count: 2},
		}},
		DFS: dfs.Config{Mode: dfs.ModeOctopus, Seed: 9, ClientRate: 2000e6},
		Build: func(i int, fs *dfs.FileSystem) (*core.Manager, error) {
			ctx := core.NewContext(fs, core.DefaultConfig())
			mgrs[i] = core.NewManager(ctx, policy.NewLRU(ctx), policy.NewOSA(ctx))
			return mgrs[i], nil
		},
		Inner: server.Config{ // replay mode
			Obs:      hub,
			Executor: server.ExecutorConfig{WorkersPerTier: 1, QueueDepth: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()

	at := sim.Epoch
	var created []<-chan error
	for i := 0; i < 400; i++ {
		at = at.Add(50 * time.Millisecond)
		created = append(created, srv.CreateAt(fmt.Sprintf("/shed/d%02d/f%03d", i%8, i), storage.MB, at))
	}
	srv.Flush()
	for i, ch := range created {
		if err := <-ch; err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if v := srv.Verify(); len(v) > 0 {
		t.Fatalf("violations after the shedding run: %v", v)
	}

	var shed int64
	for _, tier := range srv.ExecutorStats().PerTier {
		shed += tier.Shed
	}
	if shed == 0 {
		t.Fatal("the run shed nothing; the scrape below would prove nothing")
	}
	var want [3]int64
	var busy, cooling int64
	srv.Exec(func(i int, _ *dfs.FileSystem) {
		for _, r := range core.CooldownReasons {
			want[r] += mgrs[i].Cooldowns(r)
		}
		b, c := mgrs[i].ParkedFiles()
		busy, cooling = busy+b, cooling+c
	})
	if want[core.CooldownShed] != shed {
		t.Fatalf("managers booked %d shed cooldowns, executors shed %d moves", want[core.CooldownShed], shed)
	}

	cooldowns := scrape(t, addr, "octo_manager_cooldowns_total")
	for _, r := range core.CooldownReasons {
		got, ok := cooldowns[r.String()]
		if !ok || int64(got) != want[r] {
			t.Errorf("octo_manager_cooldowns_total{reason=%q} = %v (exposed %v), managers say %d", r, got, ok, want[r])
		}
	}
	parked := scrape(t, addr, "octo_manager_parked_files")
	if got, ok := parked["busy"]; !ok || int64(got) != busy {
		t.Errorf(`octo_manager_parked_files{reason="busy"} = %v (exposed %v), managers say %d`, got, ok, busy)
	}
	if got, ok := parked["cooldown"]; !ok || int64(got) != cooling || cooling == 0 {
		t.Errorf(`octo_manager_parked_files{reason="cooldown"} = %v (exposed %v), managers say %d (want > 0 right after the run)`, got, ok, cooling)
	}
}

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
