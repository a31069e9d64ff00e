package server_test

// Open-loop vs closed-loop differential acceptance test for the serving
// layer: the same fixed trace replayed (a) closed-loop — every op fenced
// before the next fires, the way a blocking client drives the server — and
// (b) open-loop — every op fired with its virtual stamp up front and a
// single fence at the end, the way octoload's open-arrival dispatcher
// drives it. The final tier residency of every file, the live replica
// bytes, and the per-tier capacity accounting must be identical: an open
// arrival process changes *when* commands reach the core loop relative to
// engine progress, and must not change *what* the namespace converges to.
//
// The trace is shaped so the comparison is meaningful rather than lucky:
// creates are staged (fenced) in both variants so accesses never race an
// uncommitted write pipeline, each hot file is accessed exactly once (a
// re-access could legitimately observe different interim residency between
// the variants), and deletes target a cold set disjoint from the accessed
// set. Runs at shards=1 and shards=4; the sharded run still splits
// capacity into quotas, so the open-loop flood also exercises the borrow
// protocol under a backlog of stamped upgrades.

import (
	"fmt"
	"testing"
	"time"

	"octostore/internal/server"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// openLoopTrace: 96 staged creates over 16 parent directories, one access
// per hot file (every third file — the accessed set fits the 4 GB global
// memory tier), deletes of cold files only.
func openLoopTrace() (stage, load []diffOp) {
	path := func(i int) string { return fmt.Sprintf("/data/d%02d/f%03d", i%16, i) }
	at := func(i int) time.Duration { return time.Duration(i) * 10 * time.Second }
	const files = 96
	step := 0
	for i := 0; i < files; i++ {
		size := int64(16+(i*7)%145) * storage.MB
		stage = append(stage, diffOp{at: at(step), kind: 0, path: path(i), size: size})
		step++
	}
	for i := 0; i < files; i += 3 {
		load = append(load, diffOp{at: at(step), kind: 1, path: path(i)})
		step++
	}
	for i := 1; i < files; i += 5 {
		if i%3 == 0 {
			continue // keep the delete set disjoint from the accessed set
		}
		load = append(load, diffOp{at: at(step), kind: 2, path: path(i)})
		step++
	}
	return stage, load
}

// replayTrace drives the staged creates fenced, then the load phase either
// fenced per op (closed) or fired entirely before one final fence (open).
func replayTrace(t *testing.T, shards int, open bool) *server.ShardedServer {
	t.Helper()
	stage, load := openLoopTrace()
	srv := newShardedReplayServer(t, shards, nil)
	base := sim.Epoch
	for _, o := range stage {
		srv.CreateAt(o.path, o.size, base.Add(o.at))
		srv.Flush()
	}
	for _, o := range load {
		at := base.Add(o.at)
		switch o.kind {
		case 1:
			_, _ = srv.AccessAt(o.path, at)
		case 2:
			srv.DeleteAt(o.path, at)
		}
		if !open {
			srv.Flush()
		}
	}
	srv.Flush()
	return srv
}

func TestDifferentialOpenVsClosedLoop(t *testing.T) {
	for _, shards := range []int{1, 4} {
		label := fmt.Sprintf("shards=%d", shards)
		closed := replayTrace(t, shards, false)
		open := replayTrace(t, shards, true)

		for name, srv := range map[string]*server.ShardedServer{"closed": closed, "open": open} {
			if violations := srv.Verify(); len(violations) > 0 {
				t.Fatalf("%s %s: invariants: %v", label, name, violations)
			}
			if st := srv.Stats(); st.Accesses == 0 || st.Accesses != st.EventsDrained {
				t.Fatalf("%s %s: %d accesses served, %d applied; the comparison would be vacuous", label, name, st.Accesses, st.EventsDrained)
			}
		}

		cRes, oRes := closed.TierResidency(), open.TierResidency()
		if len(cRes) != len(oRes) {
			t.Fatalf("%s: file count diverged: closed %d, open %d", label, len(cRes), len(oRes))
		}
		inMemory := 0
		for path, want := range cRes {
			got, ok := oRes[path]
			if !ok {
				t.Fatalf("%s: %q exists only in the closed-loop run", label, path)
			}
			if got != want {
				t.Fatalf("%s: residency of %q diverged: closed %v, open %v", label, path, want, got)
			}
			if want[storage.Memory] {
				inMemory++
			}
		}
		if inMemory == 0 {
			t.Fatalf("%s: no file ended memory-resident; the trace drove no upgrades", label)
		}
		if a, b := closed.LiveReplicaBytes(), open.LiveReplicaBytes(); a != b {
			t.Fatalf("%s: live replica bytes diverged: closed %d, open %d", label, a, b)
		}
		for _, m := range storage.AllMedia {
			ua, ca := closed.TierUsage(m)
			ub, cb := open.TierUsage(m)
			if ua != ub || ca != cb {
				t.Fatalf("%s: %s usage diverged: closed %d/%d, open %d/%d", label, m, ua, ca, ub, cb)
			}
			lc, lo := closed.Ledger(), open.Ledger()
			if lc.FreeBytes(m) != lo.FreeBytes(m) || lc.ReservedBytes(m) != lo.ReservedBytes(m) {
				t.Fatalf("%s: %s ledger diverged: closed free %d reserved %d, open free %d reserved %d",
					label, m, lc.FreeBytes(m), lc.ReservedBytes(m), lo.FreeBytes(m), lo.ReservedBytes(m))
			}
		}

		closed.Close()
		open.Close()
	}
}
