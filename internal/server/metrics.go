package server

import (
	"sync/atomic"

	"octostore/internal/obs"
)

// Histogram is the observability plane's lock-free log2-bucketed latency
// histogram. The implementation lives in internal/obs so the serving layer,
// the time-series collector, and the metrics registry share one type; the
// alias keeps the serving API (and every existing call site) unchanged.
type Histogram = obs.Histogram

// serveCounters is one shard's atomic counter set; every field is updated
// from client goroutines or the shard loop without locks and may be
// snapshotted at any time (ShardedServer.Stats / ShardStats).
type serveCounters struct {
	accesses     atomic.Int64
	accessMisses atomic.Int64 // path not found / not yet complete
	noReplica    atomic.Int64 // found, but no fully resident tier (churn window)
	servedByTier [3]atomic.Int64
	bytesServed  atomic.Int64
	creates      atomic.Int64
	createErrors atomic.Int64
	deletes      atomic.Int64
	deleteErrors atomic.Int64
	stats        atomic.Int64
	lists        atomic.Int64
	batches      atomic.Int64 // ring drain batches applied by the core loop
	drained      atomic.Int64 // access events replayed into the policy layer
}

// ServeStats is a point-in-time snapshot of the serving counters.
type ServeStats struct {
	Accesses      int64
	AccessMisses  int64
	NoReplica     int64
	ServedByTier  [3]int64
	BytesServed   int64
	Creates       int64
	CreateErrors  int64
	Deletes       int64
	DeleteErrors  int64
	Stats         int64
	Lists         int64
	DrainBatches  int64
	EventsDrained int64
	EventsDropped int64
}

// add accumulates another snapshot (per-shard aggregation).
func (s *ServeStats) add(o ServeStats) {
	s.Accesses += o.Accesses
	s.AccessMisses += o.AccessMisses
	s.NoReplica += o.NoReplica
	for i := range s.ServedByTier {
		s.ServedByTier[i] += o.ServedByTier[i]
	}
	s.BytesServed += o.BytesServed
	s.Creates += o.Creates
	s.CreateErrors += o.CreateErrors
	s.Deletes += o.Deletes
	s.DeleteErrors += o.DeleteErrors
	s.Stats += o.Stats
	s.Lists += o.Lists
	s.DrainBatches += o.DrainBatches
	s.EventsDrained += o.EventsDrained
	s.EventsDropped += o.EventsDropped
}

func (c *serveCounters) snapshot(dropped int64) ServeStats {
	return ServeStats{
		Accesses:     c.accesses.Load(),
		AccessMisses: c.accessMisses.Load(),
		NoReplica:    c.noReplica.Load(),
		ServedByTier: [3]int64{
			c.servedByTier[0].Load(), c.servedByTier[1].Load(), c.servedByTier[2].Load(),
		},
		BytesServed:   c.bytesServed.Load(),
		Creates:       c.creates.Load(),
		CreateErrors:  c.createErrors.Load(),
		Deletes:       c.deletes.Load(),
		DeleteErrors:  c.deleteErrors.Load(),
		Stats:         c.stats.Load(),
		Lists:         c.lists.Load(),
		DrainBatches:  c.batches.Load(),
		EventsDrained: c.drained.Load(),
		EventsDropped: dropped,
	}
}
