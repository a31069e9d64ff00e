package dfs

import (
	"fmt"

	"octostore/internal/storage"
)

// This file exports the consistency invariants the file system must uphold
// at every event boundary. The scenario replayer runs CheckAccounting after
// (a sample of) replayed events and CheckInvariants periodically and at the
// end of every replay; the dfs property tests reuse both. The checks were
// extracted and generalized from the original capacity-conservation property
// test so that production replays, not just unit tests, validate state.

// CheckAccounting verifies capacity conservation in O(#devices): the bytes
// reserved across all devices must equal the bytes of live replicas plus the
// destination reservations of in-flight tier moves. It is cheap enough to
// run after every simulation event.
func (fs *FileSystem) CheckAccounting() error {
	var used int64
	for _, n := range fs.cluster.Nodes() {
		for _, d := range n.AllDevices() {
			if d.Used() < 0 || d.Used() > d.Capacity() {
				return fmt.Errorf("dfs: device %s used %d outside [0, %d]", d.ID(), d.Used(), d.Capacity())
			}
			used += d.Used()
		}
	}
	if fs.liveBytes < 0 {
		return fmt.Errorf("dfs: live replica bytes negative: %d", fs.liveBytes)
	}
	if fs.pendingMoveBytes < 0 {
		return fmt.Errorf("dfs: pending move bytes negative: %d", fs.pendingMoveBytes)
	}
	if want := fs.liveBytes + fs.pendingMoveBytes; used != want {
		return fmt.Errorf("dfs: capacity accounting diverged: devices hold %d, live replicas %d + pending moves %d = %d",
			used, fs.liveBytes, fs.pendingMoveBytes, want)
	}
	return nil
}

// TierResidency snapshots, for every live complete file, which tiers hold a
// full (all-or-nothing) replica set, keyed by path. The differential tests
// use it to assert that the sequential sim path and the concurrent serving
// layer leave the system in the same final state.
func (fs *FileSystem) TierResidency() map[string][3]bool {
	out := make(map[string][3]bool, len(fs.fileList))
	for _, f := range fs.fileList {
		if f.creating {
			continue
		}
		var res [3]bool
		for _, m := range storage.AllMedia {
			res[m] = f.HasReplicaOn(m)
		}
		out[f.path] = res
	}
	return out
}

// LiveReplicaBytes returns the tracked bytes of all attached, non-deleting
// replicas — one side of the capacity-conservation equation.
func (fs *FileSystem) LiveReplicaBytes() int64 { return fs.liveBytes }

// CheckInvariants runs the deep consistency checks: CheckAccounting, the
// cluster's tier tallies against its devices, a full recount of live
// replica bytes, namespace/path coherence, replica backrefs and state
// sanity, and validation of the incrementally maintained per-tier residency
// counters against a recount. Cost is O(files × blocks × replicas); replays
// run it periodically and at quiescent points.
func (fs *FileSystem) CheckInvariants() error {
	if err := fs.CheckAccounting(); err != nil {
		return err
	}

	// The cluster's running tier tallies equal a walk of its devices.
	var used, capacity [3]int64
	for _, n := range fs.cluster.Nodes() {
		for _, d := range n.AllDevices() {
			used[d.Media()] += d.Used()
			capacity[d.Media()] += d.Capacity()
		}
	}
	for _, m := range storage.AllMedia {
		if u, c := fs.cluster.TierUsage(m); u != used[m] || c != capacity[m] {
			return fmt.Errorf("dfs: %s tier tally reads used %d capacity %d, devices hold %d of %d", m, u, c, used[m], capacity[m])
		}
	}

	// Namespace ↔ file-index coherence: every namespace file is tracked,
	// resolves to itself through its cached path, and is not marked deleted.
	inTree := 0
	var nsErr error
	fs.ns.Walk(func(f *File) {
		inTree++
		if nsErr != nil {
			return
		}
		switch {
		case f.deleted:
			nsErr = fmt.Errorf("dfs: deleted file %q still reachable in namespace", f.path)
		default:
			got, err := fs.ns.GetFile(f.path)
			if err != nil {
				nsErr = fmt.Errorf("dfs: file %q does not resolve through its cached path: %v", f.path, err)
			} else if got != f {
				nsErr = fmt.Errorf("dfs: path %q resolves to a different file", f.path)
			}
		}
		if nsErr == nil && fs.FileAt(f.slot, f.id) != f {
			nsErr = fmt.Errorf("dfs: file %q missing from the live-file index", f.path)
		}
	})
	if nsErr != nil {
		return nsErr
	}
	if inTree != fs.ns.FileCount() {
		return fmt.Errorf("dfs: namespace walk found %d files, FileCount reports %d", inTree, fs.ns.FileCount())
	}
	if inTree != len(fs.fileList) {
		return fmt.Errorf("dfs: namespace holds %d files, live index holds %d", inTree, len(fs.fileList))
	}

	// Replica-level checks plus a recount of the incremental aggregates.
	var liveBytes int64
	under := 0
	for _, f := range fs.fileList {
		if f.deleted {
			return fmt.Errorf("dfs: deleted file %q in live index", f.path)
		}
		for _, b := range f.blocks {
			if b.file != f {
				return fmt.Errorf("dfs: block %d of %q has wrong file backref", b.id, f.path)
			}
			for _, r := range b.replicas {
				if r.block != b {
					return fmt.Errorf("dfs: replica of block %d has wrong block backref", b.id)
				}
				if r.state < ReplicaCreating || r.state > ReplicaDeleting {
					return fmt.Errorf("dfs: replica of block %d in invalid state %d", b.id, int(r.state))
				}
				if r.node == nil || r.device == nil {
					return fmt.Errorf("dfs: replica of block %d missing node or device", b.id)
				}
				if fs.removedNodes[r.node.ID()] {
					return fmt.Errorf("dfs: replica of block %d lives on removed node %d", b.id, r.node.ID())
				}
				if r.state != ReplicaDeleting {
					liveBytes += b.size
				}
			}
			if b.under != b.underReplicated() {
				return fmt.Errorf("dfs: block %d of %q marked under-replicated %v, recount %v", b.id, f.path, b.under, !b.under)
			}
			if b.under {
				under++
			}
		}
		for _, media := range storage.AllMedia {
			m := int(media)
			want := 0
			for _, b := range f.blocks {
				if b.ReplicaOn(media) != nil {
					want++
				}
			}
			if got := int(f.tierBlocks[m]); got != want {
				return fmt.Errorf("dfs: file %q tier counter for %s is %d, recount %d", f.path, media, got, want)
			}
		}
		for _, media := range storage.AllMedia {
			if f.HasReplicaOn(media) != f.hasReplicaOnSlow(media) {
				return fmt.Errorf("dfs: file %q residency fast/slow mismatch on %s", f.path, media)
			}
		}
	}
	if liveBytes != fs.liveBytes {
		return fmt.Errorf("dfs: live replica recount %d != tracked %d", liveBytes, fs.liveBytes)
	}
	if under != fs.underBlocks {
		return fmt.Errorf("dfs: %d under-replicated blocks, tracked %d", under, fs.underBlocks)
	}

	// Every slot is either held by the live file it indexes or listed free,
	// once.
	listed := make([]bool, len(fs.filePos))
	for _, slot := range fs.freeSlots {
		if slot < 0 || int(slot) >= len(fs.filePos) || fs.filePos[slot] != -1 || listed[slot] {
			return fmt.Errorf("dfs: free slot %d is held, out of range or listed twice", slot)
		}
		listed[slot] = true
	}
	if len(fs.freeSlots)+len(fs.fileList) != len(fs.filePos) {
		return fmt.Errorf("dfs: %d live files and %d free slots, but %d slots", len(fs.fileList), len(fs.freeSlots), len(fs.filePos))
	}
	return nil
}
