package dfs

import (
	"octostore/internal/cluster"
	"octostore/internal/storage"
)

// This file implements the replica movement mechanics executed by the
// Replication Monitor: moving a file's replicas between tiers (downgrade /
// upgrade), copying replicas to a tier, and deleting a tier's replicas.
// Decisions are file-granular (the paper's "all-or-nothing" property); the
// mechanics operate block by block.

// blockMove is one planned replica relocation or copy.
type blockMove struct {
	block  *Block
	src    *Replica
	dstDev *storage.Device
	dstNod *cluster.Node
	// dstGone is set when the destination node leaves the cluster while a
	// relocation is in flight; the commit then keeps the replica at the source.
	dstGone bool
}

// planTransfers is the synchronous half of a move or copy to tier `to`. For
// every block source yields a replica for (nil skips the block) it picks and
// reserves a destination device; then it performs the physical copies (read
// the source replica, write the destination) while the whole plan can still
// unwind: a real I/O failure — transient copy error, destination ENOSPC —
// surfaces here as a synchronous error, which the movement executor counts
// as a failed move and the policy retries on a later sweep. The virtual
// transfer legs the callers start afterwards still model the time the copy
// takes. Any error releases every reservation made and deletes every
// destination block written, leaving the system unchanged. Every error is a
// MoveError (the caller's provenance record names the file and the tiers);
// what a device or the backend said stays reachable through errors.Is.
func (fs *FileSystem) planTransfers(f *File, to storage.Media, source func(*Block) (*Replica, error)) ([]*blockMove, error) {
	var plan []*blockMove
	rollback := func() {
		for _, m := range plan {
			m.dstDev.Release(m.block.size)
		}
	}
	for _, b := range f.blocks {
		src, err := source(b)
		if err != nil {
			rollback()
			return nil, err
		}
		if src == nil {
			continue
		}
		node, dev := fs.pickMoveTarget(b, src, to)
		if dev == nil {
			rollback()
			return nil, ErrNoCapacity
		}
		if err := dev.Reserve(b.size); err != nil {
			rollback()
			return nil, &MoveError{Reason: ReasonBudget, msg: "dfs: reserving transfer target", cause: err}
		}
		plan = append(plan, &blockMove{block: b, src: src, dstDev: dev, dstNod: node})
	}
	for i, m := range plan {
		err := fs.backendRead(m.src.device, storage.ClassMove, m.block.id, m.block.size)
		if err == nil {
			err = fs.backendWrite(m.dstDev, storage.ClassMove, m.block.id, m.block.size)
		}
		if err != nil {
			rollback()
			for _, done := range plan[:i] {
				fs.backendDelete(done.dstDev, storage.ClassMove, done.block.id, done.block.size)
			}
			return nil, &MoveError{Reason: ReasonBackend, msg: "dfs: block copy", cause: err}
		}
	}
	return plan, nil
}

// MoveFileReplicas relocates, for every block of f, the replica on tier
// `from` to tier `to`. The operation is planned synchronously (space is
// reserved up front; an error leaves the system unchanged) and executed
// asynchronously; done (optional) fires when the last block settles, with
// ErrNodeGone when a node at either end of a transfer left the cluster
// first and that block stayed where it was. Moving up the hierarchy is an
// upgrade, moving down a downgrade (Definitions 1 and 2).
func (fs *FileSystem) MoveFileReplicas(f *File, from, to storage.Media, done func(error)) error {
	if f.deleted {
		return ErrSuperseded
	}
	if from == to {
		return ErrSameTier
	}
	if fs.isCreating(f.id) || fs.inTransition(f) {
		return ErrBusy
	}
	moves, err := fs.planTransfers(f, to, func(b *Block) (*Replica, error) {
		if src := b.ReplicaOn(from); src != nil {
			return src, nil
		}
		return nil, ErrNoReplica
	})
	if err != nil {
		return err
	}
	upgrade := to.Higher(from)
	var outcome error
	barrier := fs.finishAfter(len(moves), fs.engine.Now(), func() {
		for _, l := range fs.listeners {
			l.TierDataAdded(to)
		}
		if done != nil {
			done(outcome)
		}
	})
	for _, m := range moves {
		m.src.state = ReplicaMoving
		fs.moves[m] = true
		fs.pendingMoveBytes += m.block.size
		if upgrade {
			fs.stats.BytesUpgradedTo[to] += m.block.size
		} else {
			fs.stats.BytesDowngradedTo[to] += m.block.size
		}
		fs.transferBlock(m, func(committed bool) {
			if !committed {
				outcome = ErrNodeGone
			}
			barrier()
		})
	}
	return nil
}

// transferBlock streams one block from the source replica's device to the
// destination and commits the replica record on completion. Both legs start
// through the data plane (ClassMove), so movement draws bandwidth from the
// shared physical-device channels: when another shard (or the serve path)
// has the channel booked, the leg's start is pushed out by the queueing
// grant and the move commits later — cross-shard bandwidth contention that
// per-view device pools cannot express.
func (fs *FileSystem) transferBlock(m *blockMove, onDone func(committed bool)) {
	size := m.block.size
	// The source read and destination write proceed concurrently; the
	// stream is complete when the slower of the two finishes.
	pending := 2
	step := func() {
		pending--
		if pending > 0 {
			return
		}
		delete(fs.moves, m)
		committed := false
		switch {
		case !m.block.hasReplica(m.src):
			// The source replica vanished mid-transfer (its node left the
			// cluster): there is nothing to commit. Free the destination
			// reservation unless that node is gone too, and drop the
			// destination bytes written at plan time either way (a failed
			// node's devices leave accounting wholesale, but the physical
			// file is not tracked by any replica record).
			if !m.dstGone {
				m.dstDev.Release(size)
				fs.pendingMoveBytes -= size
			}
			fs.backendDelete(m.dstDev, storage.ClassMove, m.block.id, size)
		case m.dstGone:
			// The destination node vanished: the replica stays at the
			// source; its reservation accounting was settled at removal.
			// The destination bytes are orphaned — drop them.
			m.src.state = ReplicaValid
			fs.backendDelete(m.dstDev, storage.ClassMove, m.block.id, size)
		default:
			// Commit: the replica now lives on the destination device; the
			// source bytes go (the destination copy was written at plan).
			srcMedia := m.src.Media()
			m.src.device.Release(size)
			fs.backendDelete(m.src.device, storage.ClassMove, m.block.id, size)
			fs.pendingMoveBytes -= size
			m.block.noteUnreadable(m.src, srcMedia)
			m.src.device = m.dstDev
			m.src.node = m.dstNod
			m.src.state = ReplicaValid
			m.block.noteReadable(m.src)
			committed = true
		}
		onDone(committed)
	}
	fs.startTransfer(m.src.device, storage.Read, storage.ClassMove, size, step)
	fs.startTransfer(m.dstDev, storage.Write, storage.ClassMove, size, step)
}

// pickMoveTarget chooses the device to receive a moved replica: the source
// node first (a tier-local move keeps node-level fault tolerance intact),
// then nodes not already holding the block, then any node with space.
func (fs *FileSystem) pickMoveTarget(b *Block, src *Replica, to storage.Media) (*cluster.Node, *storage.Device) {
	if d := src.node.PickDevice(to, b.size); d != nil {
		return src.node, d
	}
	holders := make(map[int]bool, len(b.replicas))
	for _, r := range b.replicas {
		holders[r.node.ID()] = true
	}
	var fallbackNode *cluster.Node
	var fallbackDev *storage.Device
	for _, n := range fs.cluster.Nodes() {
		d := n.PickDevice(to, b.size)
		if d == nil {
			continue
		}
		if !holders[n.ID()] {
			return n, d
		}
		if fallbackDev == nil {
			fallbackNode, fallbackDev = n, d
		}
	}
	return fallbackNode, fallbackDev
}

// CopyFileReplicas adds, for every block of f missing one, a new replica on
// tier `to`, reading from the best existing replica. Blocks already present
// on `to` are skipped; if every block is present the call is a no-op and
// done fires on the next event. Copying to a higher tier is the "create a
// new file replica" form of upgrade (Definition 2).
func (fs *FileSystem) CopyFileReplicas(f *File, to storage.Media, done func(error)) error {
	if f.deleted {
		return ErrSuperseded
	}
	if fs.isCreating(f.id) || fs.inTransition(f) {
		return ErrBusy
	}
	plans, err := fs.planTransfers(f, to, func(b *Block) (*Replica, error) {
		if b.ReplicaOn(to) != nil {
			return nil, nil
		}
		if src := fs.pickReadReplica(b, nil); src != nil {
			return src, nil
		}
		return nil, ErrNoReplica
	})
	if err != nil {
		return err
	}
	if len(plans) == 0 {
		fs.engine.Schedule(0, func() {
			if done != nil {
				done(nil)
			}
		})
		return nil
	}
	barrier := fs.finishAfter(len(plans), fs.engine.Now(), func() {
		for _, l := range fs.listeners {
			l.TierDataAdded(to)
		}
		if done != nil {
			done(nil)
		}
	})
	for _, p := range plans {
		p := p
		size := p.block.size
		newReplica := &Replica{block: p.block, node: p.dstNod, device: p.dstDev, state: ReplicaCreating}
		p.block.replicas = append(p.block.replicas, newReplica)
		fs.liveBytes += size
		fs.stats.BytesUpgradedTo[to] += size
		pending := 2
		step := func() {
			pending--
			if pending > 0 {
				return
			}
			// The replica may have been torn down mid-copy (file delete is
			// blocked by inTransition, but node loss is not).
			if newReplica.state == ReplicaCreating {
				newReplica.state = ReplicaValid
				p.block.noteReadable(newReplica)
			}
			barrier()
		}
		fs.startTransfer(p.src.device, storage.Read, storage.ClassMove, size, step)
		fs.startTransfer(p.dstDev, storage.Write, storage.ClassMove, size, step)
	}
	return nil
}

// DeleteFileReplicas drops, for every block of f, the replica on tier
// `from`. It refuses to remove a block's last readable replica (the
// "delete a file replica" form of downgrade must not lose data).
func (fs *FileSystem) DeleteFileReplicas(f *File, from storage.Media) error {
	if f.deleted {
		return ErrSuperseded
	}
	if fs.isCreating(f.id) || fs.inTransition(f) {
		return ErrBusy
	}
	victims := make([]*Replica, 0, len(f.blocks))
	for _, b := range f.blocks {
		r := b.ReplicaOn(from)
		if r == nil {
			return ErrNoReplica
		}
		if b.ReadableReplicas() <= 1 {
			return ErrLastCopy
		}
		victims = append(victims, r)
	}
	for _, r := range victims {
		media := r.Media()
		r.state = ReplicaDeleting
		r.device.Release(r.block.size)
		fs.backendDelete(r.device, storage.ClassMove, r.block.id, r.block.size)
		fs.liveBytes -= r.block.size
		r.block.noteUnreadable(r, media)
		r.block.removeReplica(r)
		fs.stats.ReplicasDeleted++
	}
	return nil
}

// LowerReplication takes one copy off the file's replication target (never
// below one). The Replication Manager calls it after a downgrade that deleted
// a tier's replicas: the copy was given up on purpose, and with the old target
// the monitor's repair would put it back and the two would take turns.
func (fs *FileSystem) LowerReplication(f *File) {
	if f.replication > 1 {
		f.replication--
	}
}

// UnderReplicatedFiles returns files having at least one block with fewer
// readable replicas than the file's replication target; the Replication
// Monitor uses this to re-replicate after failures or deletions.
func (fs *FileSystem) UnderReplicatedFiles() []*File {
	var out []*File
	for _, f := range fs.fileList {
		if fs.isCreating(f.id) {
			continue
		}
		for _, b := range f.blocks {
			if n := b.ReadableReplicas(); n < int(f.replication) && n > 0 {
				out = append(out, f)
				break
			}
		}
	}
	return out
}
