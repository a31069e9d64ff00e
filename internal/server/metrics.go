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
// snapshotted at any time (ShardedServer.Stats / ShardStats). The order is
// the layout: what the loop adds to on every drain comes first, what clients
// add to on every op comes last, and the nine rarely written counters in
// between keep the two more than a cache line apart.
type serveCounters struct {
	// Shard loop, once per drain.
	batches atomic.Int64 // non-empty drains
	drained atomic.Int64 // accesses replayed into the policy layer
	applied atomic.Int64 // per-file notifications those were applied as

	// Rare.
	discarded    [2]atomic.Int64 // accesses left on a deleted / migrated-away handle, by discard reason
	creates      atomic.Int64
	createErrors atomic.Int64
	deletes      atomic.Int64
	deleteErrors atomic.Int64
	accessMisses atomic.Int64 // path not found / not yet complete
	noReplica    atomic.Int64 // found, but no fully resident tier (churn window)
	lists        atomic.Int64

	// Clients, on every op.
	stats        atomic.Int64
	accesses     atomic.Int64
	servedByTier [3]atomic.Int64
	bytesServed  atomic.Int64
}

// Why pending accesses were discarded instead of applied: indices into
// serveCounters.discarded, and the metric's reason label.
const (
	discardDeleted = iota
	discardMigrated
)

var discardReasons = [2]string{discardDeleted: "deleted", discardMigrated: "migrated"}

// ServeStats is a point-in-time snapshot of the serving counters.
type ServeStats struct {
	Accesses     int64
	AccessMisses int64
	NoReplica    int64
	ServedByTier [3]int64
	BytesServed  int64
	Creates      int64
	CreateErrors int64
	Deletes      int64
	DeleteErrors int64
	Stats        int64
	Lists        int64
	// EventsDrained is how many accesses the shard loops applied to the
	// policy layer, DrainBatches in how many non-empty drains, DrainEntries
	// as how many per-file notifications (EventsDrained / DrainEntries is
	// the coalescing ratio). At a quiescent point
	// Accesses == EventsDrained + AccessesDiscarded.
	DrainBatches  int64
	DrainEntries  int64
	EventsDrained int64
	// AccessesDiscarded counts accesses found pending on a handle whose file
	// had been deleted or migrated to another shard by the time of the drain.
	AccessesDiscarded int64
	// EventsDropped is always 0: accesses accumulate per file and nothing
	// bounds them. The field stays for the callers that read it.
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
	s.DrainEntries += o.DrainEntries
	s.EventsDrained += o.EventsDrained
	s.AccessesDiscarded += o.AccessesDiscarded
}

func (c *serveCounters) snapshot() ServeStats {
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
		DrainEntries:  c.applied.Load(),
		EventsDrained: c.drained.Load(),

		AccessesDiscarded: c.discarded[discardDeleted].Load() + c.discarded[discardMigrated].Load(),
	}
}
