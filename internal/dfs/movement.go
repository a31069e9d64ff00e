package dfs

import (
	"octostore/internal/storage"
)

// This file implements the replica movement mechanics executed by the
// Replication Monitor: moving a file's replicas between tiers (downgrade /
// upgrade), copying replicas to a tier, and deleting a tier's replicas.
// Decisions are file-granular (the paper's "all-or-nothing" property); the
// mechanics operate block by block.

// blockMove is one planned replica write: a relocation or a copy between
// tiers, a client write's replica, a cache fill, or an attached file's
// replica. Every path that creates a replica reserves dst, then runs the
// plan through the same helpers: materialize (the backend I/O, unwound as a
// whole on an error), stream (the virtual transfer legs) and, for a new
// replica, addReplica and settle.
type blockMove struct {
	block *Block
	src   *Replica // nil for a client write, a cache fill or an attach
	dst   Target
	// dstGone is set when the destination node leaves the cluster while a
	// relocation is in flight; the commit then keeps the replica at the source.
	dstGone bool
}

// materialize does the physical I/O of every planned move, whose
// destinations are already reserved: read the source replica (when there is
// one), write the destination. A real I/O failure — transient error,
// destination ENOSPC — releases every reservation of the plan and deletes
// every destination block already written, leaving the system as it was
// before the plan, and returns the backend's error. The virtual transfer
// legs stream starts afterwards model the time the writes take.
func (fs *FileSystem) materialize(plan []blockMove, class storage.IOClass) error {
	if fs.bkend == nil {
		return nil
	}
	for i, m := range plan {
		var err error
		if m.src != nil {
			err = fs.backendRead(m.src.device, class, m.block.id, m.block.size)
		}
		if err == nil {
			err = fs.backendWrite(m.dst.Device, class, m.block.id, m.block.size)
		}
		if err != nil {
			fs.unwind(plan, i, class)
			return err
		}
	}
	return nil
}

// unwind undoes a reserved plan whose first written moves materialized:
// every reservation is released and every destination block written is
// deleted.
func (fs *FileSystem) unwind(plan []blockMove, written int, class storage.IOClass) {
	for _, u := range plan {
		u.dst.Device.Release(u.block.size)
	}
	for _, u := range plan[:written] {
		fs.backendDelete(u.dst.Device, class, u.block.id, u.block.size)
	}
}

// stream starts a planned move's virtual transfer through the data plane:
// the source read leg (when there is a source) before the destination write
// leg. The two proceed concurrently; done runs once both have finished.
func (fs *FileSystem) stream(m *blockMove, class storage.IOClass, done func()) {
	size := m.block.size
	if m.src == nil {
		fs.startTransfer(m.dst.Device, storage.Write, class, size, done)
		return
	}
	pending := 2
	step := func() {
		pending--
		if pending == 0 {
			done()
		}
	}
	fs.startTransfer(m.src.device, storage.Read, class, size, step)
	fs.startTransfer(m.dst.Device, storage.Write, class, size, step)
}

// addReplica links a new replica on dst into b, still creating, and counts
// its bytes as live. slot is storage allocated with the file for the
// block's initial replicas; nil allocates the replica on its own.
func (fs *FileSystem) addReplica(slot *Replica, b *Block, dst Target) *Replica {
	r := slot
	if r == nil {
		r = new(Replica)
	}
	r.block, r.node, r.device, r.state = b, dst.Node, dst.Device, ReplicaCreating
	b.replicas = append(b.replicas, r)
	fs.liveBytes += b.size
	return r
}

// planTransfers is the synchronous half of a move or copy to tier `to`. For
// every block source yields a replica for (nil skips the block) it picks and
// reserves a destination device; then it materializes the plan while the
// whole plan can still unwind: a backend failure surfaces here as a
// synchronous error, which the movement executor counts as a failed move and
// the policy retries on a later sweep. Any error leaves the system
// unchanged. Every error is a MoveError (the caller's provenance record
// names the file and the tiers); what a device or the backend said stays
// reachable through errors.Is.
func (fs *FileSystem) planTransfers(f *File, to storage.Media, source func(*Block) (*Replica, error)) ([]blockMove, error) {
	plan := make([]blockMove, 0, len(f.blocks))
	rollback := func() {
		for _, m := range plan {
			m.dst.Device.Release(m.block.size)
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
		dst := fs.pickMoveTarget(b, src, to)
		if dst.Device == nil {
			rollback()
			return nil, ErrNoCapacity
		}
		if err := dst.Device.Reserve(b.size); err != nil {
			rollback()
			return nil, &MoveError{Reason: ReasonBudget, msg: "dfs: reserving transfer target", cause: err}
		}
		plan = append(plan, blockMove{block: b, src: src, dst: dst})
	}
	if err := fs.materialize(plan, storage.ClassMove); err != nil {
		return nil, &MoveError{Reason: ReasonBackend, msg: "dfs: block copy", cause: err}
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
	if f.creating || fs.inTransition(f) {
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
	for i := range moves {
		m := &moves[i]
		m.src.state = ReplicaMoving
		fs.moves[m] = true
		fs.pendingMoveBytes += m.block.size
		if upgrade {
			fs.stats.BytesUpgradedTo[to] += m.block.size
		} else {
			fs.stats.BytesDowngradedTo[to] += m.block.size
		}
		// Both legs go through the data plane (ClassMove), so movement
		// draws bandwidth from the shared physical-device channels: a
		// channel another shard (or the serve path) has booked pushes the
		// leg's start out, and the move commits later.
		fs.stream(m, storage.ClassMove, func() {
			if !fs.commitMove(m) {
				outcome = ErrNodeGone
			}
			barrier()
		})
	}
	return nil
}

// commitMove settles a relocation whose transfer finished and reports
// whether the replica now lives on the destination.
func (fs *FileSystem) commitMove(m *blockMove) bool {
	delete(fs.moves, m)
	size := m.block.size
	switch {
	case !m.block.hasReplica(m.src):
		// The source replica vanished mid-transfer (its node left the
		// cluster): there is nothing to commit. Free the destination
		// reservation unless that node is gone too, and drop the
		// destination bytes written at plan time either way (a failed
		// node's devices leave accounting wholesale, but the physical
		// file is not tracked by any replica record).
		if !m.dstGone {
			m.dst.Device.Release(size)
			fs.pendingMoveBytes -= size
		}
		fs.backendDelete(m.dst.Device, storage.ClassMove, m.block.id, size)
		return false
	case m.dstGone:
		// The destination node vanished: the replica stays at the
		// source; its reservation accounting was settled at removal.
		// The destination bytes are orphaned — drop them.
		m.src.state = ReplicaValid
		fs.backendDelete(m.dst.Device, storage.ClassMove, m.block.id, size)
		return false
	}
	// The replica now lives on the destination device; the source bytes go
	// (the destination copy was written at plan).
	srcMedia := m.src.Media()
	m.src.device.Release(size)
	fs.backendDelete(m.src.device, storage.ClassMove, m.block.id, size)
	fs.pendingMoveBytes -= size
	m.block.noteUnreadable(m.src, srcMedia)
	m.src.device = m.dst.Device
	m.src.node = m.dst.Node
	m.src.state = ReplicaValid
	m.block.noteReadable(m.src)
	return true
}

// pickMoveTarget chooses the device to receive a moved replica: the source
// node first (a tier-local move keeps node-level fault tolerance intact),
// then nodes not already holding the block, then any node with space. A
// zero Target means no node has room.
func (fs *FileSystem) pickMoveTarget(b *Block, src *Replica, to storage.Media) Target {
	if d := src.node.PickDevice(to, b.size); d != nil {
		return Target{Node: src.node, Device: d}
	}
	holders := make(map[int]bool, len(b.replicas))
	for _, r := range b.replicas {
		holders[r.node.ID()] = true
	}
	var fallback Target
	for _, n := range fs.cluster.Nodes() {
		d := n.PickDevice(to, b.size)
		if d == nil {
			continue
		}
		if !holders[n.ID()] {
			return Target{Node: n, Device: d}
		}
		if fallback.Device == nil {
			fallback = Target{Node: n, Device: d}
		}
	}
	return fallback
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
	if f.creating || fs.inTransition(f) {
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
	for i := range plans {
		r := fs.addReplica(nil, plans[i].block, plans[i].dst)
		fs.stats.BytesUpgradedTo[to] += plans[i].block.size
		// The replica may be torn down mid-copy (file delete is blocked by
		// inTransition, but node loss is not); settle leaves it so.
		fs.stream(&plans[i], storage.ClassMove, func() {
			r.settle()
			barrier()
		})
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
	if f.creating || fs.inTransition(f) {
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
		if f.creating {
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
