package dfs

import (
	"octostore/internal/cluster"
	"octostore/internal/storage"
)

// This file implements cluster membership churn against the file system:
// node joins (trivial — placement discovers new nodes on the next decision)
// and node loss, which must tear replica state down without corrupting the
// capacity accounting that the invariant checker enforces at every event
// boundary.

// AddMembershipHook registers fn to run after every node join or failure,
// on the goroutine applying the change. delta is the per-tier device
// capacity the change added to (join) or took out of (failure, negative)
// this file system's cluster view, so external capacity accounting — the
// sharded serving layer's tier ledger and quota baselines — settles in the
// same step no matter who applied the churn.
func (fs *FileSystem) AddMembershipHook(fn func(delta [3]int64)) {
	fs.membershipHooks = append(fs.membershipHooks, fn)
}

func (fs *FileSystem) notifyMembership(delta [3]int64) {
	for _, fn := range fs.membershipHooks {
		fn(delta)
	}
}

// AddNode joins a fresh worker to the cluster and returns it. Placement,
// movement targeting and task scheduling pick the node up on their next
// decision; no replica state changes.
func (fs *FileSystem) AddNode(spec storage.NodeSpec, slots int) *cluster.Node {
	n := fs.cluster.AddNode(spec, slots)
	var joined [3]int64
	for _, m := range storage.AllMedia {
		joined[m] = n.TierCapacity(m)
	}
	fs.notifyMembership(joined)
	return n
}

// FailNode removes a worker from the cluster, losing every replica it held.
// Replicas on the node are detached from their blocks and the node's devices
// leave capacity accounting wholesale (no per-replica Release). In-flight
// transfers involving the node are settled so the commit callbacks cannot
// resurrect detached replicas or leak destination reservations. Blocks whose
// remaining readable replicas fall below the replication target surface via
// UnderReplicatedFiles, where the Replication Monitor repairs them; with the
// default replication of 3 and distinct-node placement, a single node loss
// never makes a block unreadable.
//
// It returns the per-tier device capacity that left the cluster with the
// node — including any quota previously grown onto the node's devices; the
// membership hooks receive the same amounts, negated.
func (fs *FileSystem) FailNode(n *cluster.Node) (removed [3]int64) {
	if n == nil || fs.removedNodes[n.ID()] {
		return removed
	}
	fs.removedNodes[n.ID()] = true
	for _, m := range storage.AllMedia {
		removed[m] = n.TierCapacity(m)
	}
	// Settle in-flight moves whose destination sits on the lost node: the
	// device leaves accounting now, so the pending reservation does too, and
	// the commit keeps the replica at its source.
	for m := range fs.moves {
		if m.dst.Node == n && !m.dstGone {
			m.dstGone = true
			fs.pendingMoveBytes -= m.block.size
		}
	}
	for _, f := range fs.fileList {
		for _, b := range f.blocks {
			for i := 0; i < len(b.replicas); {
				r := b.replicas[i]
				if r.node != n {
					i++
					continue
				}
				wasReadable := r.Readable()
				media := r.Media()
				if r.state != ReplicaDeleting {
					fs.liveBytes -= b.size
					// Drop the physical bytes too. A Local backend outlives
					// the node abstraction (its files key on device ids), so
					// the failed node's replica files must not linger as
					// orphans.
					fs.backendDelete(r.device, storage.ClassMove, b.id, b.size)
				}
				// Deleting also tells any pending write-completion callback
				// (initial create, cache fill, copy) not to mark the
				// detached replica valid.
				r.state = ReplicaDeleting
				b.replicas = append(b.replicas[:i], b.replicas[i+1:]...)
				if wasReadable {
					b.noteUnreadable(r, media)
				}
			}
		}
	}
	fs.cluster.RemoveNode(n.ID())
	fs.notifyMembership([3]int64{-removed[0], -removed[1], -removed[2]})
	return removed
}

// NodeRemoved reports whether the node with the given id has left the
// cluster through FailNode.
func (fs *FileSystem) NodeRemoved(id int) bool { return fs.removedNodes[id] }
