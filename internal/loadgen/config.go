// Package loadgen is the load harness for the concurrent serving layer: it
// stands up a managed tiered DFS behind server.ShardedServer, stages a file
// population through it, drives a seeded mix of zipf-skewed accesses, stats,
// creates and deletes under a closed or an open (Poisson) arrival process
// while the movement executor shuffles replicas underneath, then fences the
// server, runs the full invariant suite and returns one Report.
//
// cmd/octoload is the flag front end over Run; cmd/benchgate gates pairs of
// Reports. Both sides share the Report type, so producer and gate cannot
// drift apart.
package loadgen

import (
	"errors"
	"fmt"
	"time"

	"octostore/internal/obs"
	"octostore/internal/server"
	"octostore/internal/storage"
)

// Config scopes one load run. Every field is one octoload flag (Obs is the
// hub behind -obs-listen / -trace); the flag help in cmd/octoload documents
// each.
type Config struct {
	Clients    int
	Dur        time.Duration
	Files      int
	Workload   string // fb, cmu, fixed
	FileSizeMB int64
	Scenario   string
	Zipf       float64
	ReadFrac   float64
	StatFrac   float64
	Workers    int
	MemCapMB   int64
	SSDCapMB   int64
	HDDCapMB   int64
	Down, Up   string
	TimeScale  float64
	Seed       int64

	Arrival    string // closed, open
	Rate       float64
	Window     time.Duration
	Drain      time.Duration
	MemProfile string

	Shards    int
	HotDir    float64
	Rebalance bool
	MoveQueue int
	BudgetMB  [3]int64
	Dataplane string // none, contended

	Tenants int
	ReadSLO time.Duration

	Obs *obs.Hub

	Backend     string // sim, real
	BackendRoot string
}

// Fixed serving parameters: one value each is in use, so they are constants
// here and echoed in the report's config block.
const (
	moveWorkers = 2     // movement executor slots per destination tier
	backendSync = false // fsync every real-backend write
)

func (c *Config) validate() error {
	switch {
	case c.ReadFrac+c.StatFrac > 1:
		return errors.New("readfrac + statfrac exceed 1")
	case c.Zipf <= 1:
		return errors.New("zipf must be > 1 (rand.NewZipf requirement)")
	case c.Files < 2:
		return errors.New("files must be at least 2")
	case c.Clients < 1:
		return errors.New("clients must be at least 1")
	case c.Shards < 1:
		return errors.New("shards must be at least 1")
	case c.FileSizeMB < 1:
		return errors.New("filesize must be at least 1")
	case c.Window <= 0:
		return errors.New("window must be positive")
	case c.Workload != "fb" && c.Workload != "cmu" && c.Workload != "fixed":
		return fmt.Errorf("unknown workload %q (want fb, cmu or fixed)", c.Workload)
	case c.Dataplane != "none" && c.Dataplane != "contended":
		return errors.New("dataplane must be none or contended")
	case c.Backend != "sim" && c.Backend != "real":
		return errors.New("backend must be sim or real")
	case c.Tenants < 0:
		return errors.New("tenants must be non-negative")
	case c.Tenants >= 2 && c.Dataplane != "contended":
		// Tenant weights only mean something on the shared plane; a tagged
		// run without it would silently measure nothing.
		return errors.New("tenants requires dataplane contended")
	case c.ReadSLO > 0 && c.Tenants < 2:
		return errors.New("read-slo requires tenants >= 2")
	case c.Arrival != "closed" && c.Arrival != "open":
		return errors.New("arrival must be closed or open")
	case c.Arrival == "open" && c.Rate <= 0:
		return errors.New("arrival open requires rate > 0")
	case c.Arrival == "open" && c.TimeScale <= 0:
		// Open-loop ops carry virtual stamps derived from the service clock;
		// replay mode (timescale 0) has no live clock to stamp from.
		return errors.New("arrival open requires timescale > 0")
	case c.Scenario != "" && c.Shards != 1:
		// Scenario perturbations mutate one replay's engine and fs.
		return errors.New("scenario requires shards 1")
	case c.HotDir < 0 || c.HotDir >= 1:
		return errors.New("hotdir must be in [0, 1)")
	case c.HotDir > 0 && c.Scenario != "":
		return errors.New("hotdir composes with the generated population, not a scenario")
	case c.Rebalance && c.Shards < 2:
		return errors.New("rebalance requires shards >= 2")
	}
	return nil
}

// tenantTable derives the tenant configuration: tenant i+1 gets weight N-i,
// so tenant 1 is the protected heavyweight (it alone carries the read SLO)
// and the last tenant the best-effort flood.
func (c *Config) tenantTable() []server.TenantConfig {
	if c.Tenants < 2 {
		return nil
	}
	tenants := make([]server.TenantConfig, c.Tenants)
	for i := range tenants {
		tenants[i] = server.TenantConfig{ID: storage.TenantID(i + 1), Weight: float64(c.Tenants - i)}
	}
	tenants[0].ReadSLO = c.ReadSLO
	return tenants
}

// echo is the report's config block: the same keys on every run.
func (c *Config) echo() map[string]any {
	return map[string]any{
		"clients": c.Clients, "dur": c.Dur.String(), "files": c.Files,
		"workload": c.Workload, "scenario": c.Scenario, "zipf": c.Zipf,
		"readfrac": c.ReadFrac, "statfrac": c.StatFrac, "workers": c.Workers,
		"down": c.Down, "up": c.Up, "timescale": c.TimeScale, "seed": c.Seed,
		"arrival": c.Arrival, "rate": c.Rate, "window": c.Window.String(),
		"shards": c.Shards, "hotdir": c.HotDir, "rebalance": c.Rebalance,
		"move_workers": moveWorkers, "move_queue": c.MoveQueue,
		"dataplane": c.Dataplane, "tenants": c.Tenants, "read_slo": c.ReadSLO.String(),
		"backend": c.Backend, "backend_sync": backendSync,
	}
}
