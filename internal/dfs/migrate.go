package dfs

import (
	"fmt"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/storage"
)

// This file is the shard-migration primitive set: SnapshotFile describes a
// file as a portable record, DetachFile removes it from one FileSystem
// (releasing its replicas and capacity) and AttachFile recreates the record
// in another with the same per-block tier layout. The serving layer's
// rebalancer uses them to move a subtree between shard engines; each side
// runs on its own shard loop, so every call observes the usual single-writer
// discipline. Neither side counts as a client create or delete in Stats —
// migration relocates metadata, it does not change the logical namespace —
// but both fire the regular listener notifications (FileDeleted /
// FileCreated) so candidate indexes, trackers, and serving handles stay
// coherent on both engines.

// BlockLayout records where one block's replicas lived at snapshot time.
type BlockLayout struct {
	Size  int64
	Media []storage.Media // one entry per replica
	Cache []bool          // per replica: HDFS cache-replica flag
}

// FileRecord is a file's portable description (SnapshotFile): everything
// AttachFile needs to rebuild the file with identical size, age, and
// per-tier residency on another FileSystem.
type FileRecord struct {
	Path        string
	Size        int64
	Created     time.Time
	Replication int32
	Blocks      []BlockLayout
}

// Bytes sums the replica bytes the record pins across all tiers.
func (rec *FileRecord) Bytes() int64 {
	var total int64
	for _, bl := range rec.Blocks {
		total += bl.Size * int64(len(bl.Media))
	}
	return total
}

// TierNeeds reports, per tier, the bytes one replica chain occupies and the
// widest per-block replica count — the (perNode, nodes) shape a quota grow
// needs to guarantee the attach can place every replica.
func (rec *FileRecord) TierNeeds() (chainBytes [3]int64, maxReplicas [3]int) {
	for _, bl := range rec.Blocks {
		var perBlock [3]int
		for _, m := range bl.Media {
			perBlock[m]++
		}
		for t := range perBlock {
			if perBlock[t] > 0 {
				chainBytes[t] += bl.Size
			}
			if perBlock[t] > maxReplicas[t] {
				maxReplicas[t] = perBlock[t]
			}
		}
	}
	return chainBytes, maxReplicas
}

// SnapshotFile builds the portable record of a file's layout without
// touching the file — the read half of a migration copy. Files mid-create
// or with replicas in transition return ErrFileIncomplete / ErrBusy (the
// layout is about to change under the snapshot); the caller retries on a
// later sweep.
func (fs *FileSystem) SnapshotFile(path string) (FileRecord, error) {
	f, err := fs.ns.GetFile(path)
	if err != nil {
		return FileRecord{}, err
	}
	if f.creating {
		return FileRecord{}, fmt.Errorf("%w: %q", ErrFileIncomplete, path)
	}
	if fs.inTransition(f) {
		return FileRecord{}, fmt.Errorf("%w: %q", ErrBusy, path)
	}
	rec := FileRecord{
		Path:        f.path,
		Size:        f.size,
		Created:     f.Created(),
		Replication: f.replication,
		Blocks:      make([]BlockLayout, 0, len(f.blocks)),
	}
	for _, b := range f.blocks {
		bl := BlockLayout{Size: b.size}
		for _, r := range b.replicas {
			bl.Media = append(bl.Media, r.Media())
			bl.Cache = append(bl.Cache, r.isCache)
		}
		rec.Blocks = append(rec.Blocks, bl)
	}
	return rec, nil
}

// DetachFile removes a file from this file system the way Delete does —
// same lookup, same refusal of files mid-create (ErrFileIncomplete) or with
// replicas in transition (ErrBusy), same replica teardown and FileDeleted —
// but as a move rather than a death: the teardown is ClassMove I/O, each
// block's bytes leaving the shard are charged as one ClassMove plane read
// against its first replica's device (real bandwidth on a contended plane,
// nothing without one), and Stats is left alone. A caller that needs the
// layout takes SnapshotFile first.
func (fs *FileSystem) DetachFile(path string) error { return fs.remove(path, storage.ClassMove) }

// planAttach chooses a device for every replica in the record, preferring
// distinct nodes per block, without mutating anything. The rotation starts
// at a position derived from the next file id — deterministic, and unlike a
// placement-rng draw it leaves the file system's rng stream untouched, so
// subsequent client creates place identically whether or not a migration
// happened.
func (fs *FileSystem) planAttach(rec FileRecord) ([][]Target, error) {
	nodes := fs.cluster.Nodes()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes", ErrNoCapacity)
	}
	planned := make(map[*storage.Device]int64)
	plan := make([][]Target, len(rec.Blocks))
	start := int(fs.nextFileID) % len(nodes)
	for bi, bl := range rec.Blocks {
		used := make(map[*cluster.Node]bool, len(bl.Media))
		for _, m := range bl.Media {
			var slot Target
			// First pass insists on a fresh node for the block; second pass
			// accepts any node with room (mirrors placement's fallback when
			// the cluster is narrower than the replication factor).
			for pass := 0; pass < 2 && slot.Device == nil; pass++ {
				for off := 0; off < len(nodes); off++ {
					n := nodes[(start+bi+off)%len(nodes)]
					if pass == 0 && used[n] {
						continue
					}
					for _, d := range n.Devices(m) {
						if d.Free()-planned[d] >= bl.Size {
							slot = Target{Node: n, Device: d}
							break
						}
					}
					if slot.Device != nil {
						break
					}
				}
			}
			if slot.Device == nil {
				return nil, fmt.Errorf("%w: %d bytes on %s tier for %q", ErrNoCapacity, bl.Size, m, rec.Path)
			}
			planned[slot.Device] += bl.Size
			used[slot.Node] = true
			plan[bi] = append(plan[bi], slot)
		}
	}
	return plan, nil
}

// AttachFile recreates a detached file on this file system: the recorded
// number of replicas per tier for every block, device capacity reserved,
// FileCreated and TierDataAdded fired so the policy stack adopts it. The
// call either succeeds completely or fails with no side effects
// (ErrNoCapacity when a tier lacks room, ErrExists when the path is taken —
// a client recreated it mid-migration). The arriving bytes are charged as
// ClassMove writes against the chosen devices.
func (fs *FileSystem) AttachFile(rec FileRecord) error {
	if fs.ns.Exists(rec.Path) {
		return fmt.Errorf("%w: %q", ErrExists, rec.Path)
	}
	targets, err := fs.planAttach(rec)
	if err != nil {
		return err
	}
	// Reserve and materialize the physical replicas before any metadata
	// mutates, through the write path every replica takes. newFile assigns
	// block ids sequentially from nextBlockID, so block bi is written as
	// nextBlockID+bi; a backend error unwinds to a plain attach failure —
	// reservations released, blocks deleted, no ids consumed — and the
	// migration retries on a later sweep. (Migration ships no payload
	// between shards: the destination regenerates the synthetic block
	// bytes, the physical analogue of the copy-then-detach protocol's
	// destination write.)
	blocks := make([]Block, len(rec.Blocks))
	var plan []blockMove
	for bi, bl := range rec.Blocks {
		blocks[bi] = Block{id: fs.nextBlockID + int64(bi), size: bl.Size}
		for _, dst := range targets[bi] {
			if err := dst.Device.Reserve(bl.Size); err != nil {
				// planAttach checked free space; single-threaded, so this is
				// a genuine bug, same contract as writeBlock.
				panic(fmt.Sprintf("dfs: attach reservation failed after planning: %v", err))
			}
			plan = append(plan, blockMove{block: &blocks[bi], dst: dst})
		}
	}
	if err := fs.materialize(plan, storage.ClassMove); err != nil {
		return fmt.Errorf("dfs: attach copy: %w", err)
	}
	f, slots, err := fs.newFile(rec.Path, rec.Size, rec.Created, rec.Replication, len(rec.Blocks))
	if err != nil {
		fs.unwind(plan, len(plan), storage.ClassMove)
		return err
	}
	// Residency flips during the rebuild are suppressed exactly like the
	// create path: FileCreated carries the full starting residency.
	f.creating = true
	for bi, bl := range rec.Blocks {
		b := f.blocks[bi]
		b.size = bl.Size
		initial := slots.block(bi)
		for ri, dst := range targets[bi] {
			var slot *Replica
			if ri < len(initial) {
				slot = &initial[ri]
			}
			r := fs.addReplica(slot, b, dst)
			r.isCache = bl.Cache[ri]
			r.settle()
			fs.chargePlane(dst.Device, storage.Write, storage.ClassMove, bl.Size)
		}
	}
	f.creating = false
	for _, l := range fs.listeners {
		l.FileCreated(f)
	}
	fs.notifyTiers(f)
	return nil
}
