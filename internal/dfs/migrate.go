package dfs

import (
	"fmt"
	"slices"
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
// touching the file — the read half of a migration copy. A file deleted or
// of another file system returns ErrNotFound; one mid-create or with
// replicas in transition ErrFileIncomplete / ErrBusy (the layout is about to
// change under the snapshot), and the caller retries on a later sweep.
func (fs *FileSystem) SnapshotFile(f *File) (FileRecord, error) {
	if err := fs.settled(f); err != nil {
		return FileRecord{}, err
	}
	rec := FileRecord{
		Path:        f.path,
		Size:        f.size,
		Created:     f.Created(),
		Replication: int32(f.replication),
		Blocks:      make([]BlockLayout, len(f.blocks)),
	}
	// Every block's Media and Cache are windows on one array each.
	n := 0
	for _, b := range f.blocks {
		n += len(b.replicas)
	}
	media, cache := make([]storage.Media, n), make([]bool, n)
	for i, b := range f.blocks {
		k := len(b.replicas)
		bl := BlockLayout{Size: b.size, Media: media[:k:k], Cache: cache[:k:k]}
		for ri, r := range b.replicas {
			bl.Media[ri], bl.Cache[ri] = r.Media(), r.isCache
		}
		rec.Blocks[i] = bl
		media, cache = media[k:], cache[k:]
	}
	return rec, nil
}

// DetachFile removes a file from this file system the way Delete does —
// same refusal of files deleted or foreign (ErrNotFound), mid-create
// (ErrFileIncomplete) or with replicas in transition (ErrBusy), same
// replica teardown and FileDeleted — but as a move rather than a death: the
// teardown is ClassMove I/O, each block's bytes leaving the shard are
// charged as one ClassMove plane read against its first replica's device
// (real bandwidth on a contended plane, nothing without one), and Stats is
// left alone. A caller that needs the layout takes SnapshotFile first.
func (fs *FileSystem) DetachFile(f *File) error { return fs.remove(f, storage.ClassMove) }

// attachTarget picks the device for one replica of an attached block: on
// the nodes in rotation from position first, the first device of media m
// with room. A first pass insists on a node holding none of the block's
// replicas placed so far; a second accepts any node with room (mirrors
// placement's fallback when the cluster is narrower than the replication
// factor). A zero Target means no node has room.
func attachTarget(nodes []*cluster.Node, first int, m storage.Media, size int64, placed []blockMove) Target {
	for pass := 0; pass < 2; pass++ {
		for off := range nodes {
			n := nodes[(first+off)%len(nodes)]
			if pass == 0 && slices.ContainsFunc(placed, func(p blockMove) bool { return p.dst.Node == n }) {
				continue
			}
			for _, d := range n.Devices(m) {
				if d.Free() >= size {
					return Target{Node: n, Device: d}
				}
			}
		}
	}
	return Target{}
}

// AttachFile recreates a detached file on this file system and returns it:
// the recorded number of replicas per tier for every block, device capacity
// reserved, FileCreated and TierDataAdded fired so the policy stack adopts
// it. The call either succeeds completely or fails with no side effects
// (ErrNoCapacity when a tier lacks room, ErrExists when the path is taken —
// a client recreated it mid-migration — ErrNotDirectory when a file sits
// where the path needs a directory, and ErrInvalidPath when the record's
// path does not clean). The arriving bytes are charged as ClassMove writes
// against the chosen devices.
//
// Each replica is reserved as it is placed (attachTarget), preferring
// distinct nodes per block. The node rotation starts at a position derived
// from the next file id — deterministic, and unlike a placement-rng draw it
// leaves the file system's rng stream untouched, so subsequent client
// creates place identically whether or not a migration happened.
func (fs *FileSystem) AttachFile(rec FileRecord) (*File, error) {
	path, err := CleanPath(rec.Path)
	if err != nil {
		return nil, err
	}
	// One walk refuses a taken path and a path under a file before anything
	// is reserved or written; newFile's link then only creates directories.
	switch _, _, s := fs.ns.walk(path, false); s {
	case found:
		return nil, fmt.Errorf("%w: %q", ErrExists, rec.Path)
	case notDir:
		return nil, s.err(rec.Path)
	}
	nodes := fs.cluster.Nodes()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes", ErrNoCapacity)
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
	replicas := 0
	for _, bl := range rec.Blocks {
		replicas += len(bl.Media)
	}
	blocks := make([]Block, len(rec.Blocks))
	plan := make([]blockMove, 0, replicas)
	start := int(fs.nextFileID) % len(nodes)
	for bi, bl := range rec.Blocks {
		blocks[bi] = Block{id: fs.nextBlockID + int64(bi), size: bl.Size}
		first := len(plan)
		for _, m := range bl.Media {
			dst := attachTarget(nodes, start+bi, m, bl.Size, plan[first:])
			if dst.Device == nil {
				fs.unwind(plan, 0, storage.ClassMove)
				return nil, fmt.Errorf("%w: %d bytes on %s tier for %q", ErrNoCapacity, bl.Size, m, rec.Path)
			}
			if err := dst.Device.Reserve(bl.Size); err != nil {
				// attachTarget checked free space; single-threaded, so this
				// is a genuine bug, same contract as writeBlock.
				panic(fmt.Sprintf("dfs: attach reservation failed after placement: %v", err))
			}
			plan = append(plan, blockMove{block: &blocks[bi], dst: dst})
		}
	}
	if err := fs.materialize(plan, storage.ClassMove); err != nil {
		return nil, fmt.Errorf("dfs: attach copy: %w", err)
	}
	f, slots, err := fs.newFile(path, rec.Size, rec.Created, rec.Replication, len(rec.Blocks))
	if err != nil {
		fs.unwind(plan, len(plan), storage.ClassMove)
		return nil, err
	}
	// Residency flips during the rebuild are suppressed exactly like the
	// create path: FileCreated carries the full starting residency.
	f.creating = true
	next := plan
	for bi, bl := range rec.Blocks {
		b := f.blocks[bi]
		b.size = bl.Size
		initial := slots.block(bi)
		for ri, m := range next[:len(bl.Media)] {
			var slot *Replica
			if ri < len(initial) {
				slot = &initial[ri]
			}
			r := fs.addReplica(slot, b, m.dst)
			r.isCache = bl.Cache[ri]
			r.settle()
			fs.chargePlane(m.dst.Device, storage.Write, storage.ClassMove, bl.Size)
		}
		next = next[len(bl.Media):]
	}
	f.creating = false
	recountFile(f)
	for _, l := range fs.listeners {
		l.FileCreated(f)
	}
	fs.notifyTiers(f)
	return f, nil
}
