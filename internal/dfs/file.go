// Package dfs implements the tiered distributed file system that the
// paper's framework manages: a hierarchical namespace, files split into
// large blocks, replicas placed across cluster nodes and storage tiers, and
// the read/write/move mechanics executed against the simulated devices.
//
// The package reproduces the architecture of HDFS/OctopusFS (Section 3.3 of
// the paper): the Master-side state (FS Directory, Block Manager) lives in
// FileSystem; Workers correspond to cluster.Node devices; the Client API is
// the exported method set. Four modes mirror the four systems compared in
// Figure 2: plain HDFS, HDFS with memory cache, OctopusFS tiered placement,
// and Octopus++ (OctopusFS plus the core replication manager attached via
// the Listener interface).
package dfs

import (
	"fmt"
	"math"
	"time"

	"octostore/internal/cluster"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// FileID uniquely identifies a file for the lifetime of a FileSystem.
type FileID int64

// ReplicaState tracks the lifecycle of a block replica. It is a single
// byte so a Replica packs into 32 bytes (three pointers plus state bits);
// a million-file namespace holds three of these per block.
type ReplicaState uint8

const (
	// ReplicaCreating means the initial write transfer is still running.
	ReplicaCreating ReplicaState = iota
	// ReplicaValid means the replica is readable.
	ReplicaValid
	// ReplicaMoving means the replica is being migrated to another tier;
	// it remains readable at the source until the move commits.
	ReplicaMoving
	// ReplicaDeleting means the replica is being torn down.
	ReplicaDeleting
)

// String implements fmt.Stringer.
func (s ReplicaState) String() string {
	switch s {
	case ReplicaCreating:
		return "creating"
	case ReplicaValid:
		return "valid"
	case ReplicaMoving:
		return "moving"
	case ReplicaDeleting:
		return "deleting"
	default:
		return fmt.Sprintf("ReplicaState(%d)", int(s))
	}
}

// Replica is one stored copy of a block on a specific device. A block's
// initial replicas are allocated with its file (see fileObj); replicas added
// later (moves, cache fills) are allocated one by one.
type Replica struct {
	block   *Block
	node    *cluster.Node
	device  *storage.Device
	state   ReplicaState
	isCache bool // true for HDFS-cache style extra memory replicas
}

// Node returns the worker holding the replica.
func (r *Replica) Node() *cluster.Node { return r.node }

// Device returns the device holding the replica.
func (r *Replica) Device() *storage.Device { return r.device }

// Media returns the storage tier of the replica.
func (r *Replica) Media() storage.Media { return r.device.Media() }

// State returns the replica lifecycle state.
func (r *Replica) State() ReplicaState { return r.state }

// IsCache reports whether this is a cache replica (HDFS-cache mode).
func (r *Replica) IsCache() bool { return r.isCache }

// Readable reports whether the replica can currently serve reads.
func (r *Replica) Readable() bool {
	return r.state == ReplicaValid || r.state == ReplicaMoving
}

// settle makes a replica whose write just finished readable. A replica torn
// down meanwhile (its node left the cluster) stays as it is.
func (r *Replica) settle() {
	if r.state == ReplicaCreating {
		r.state = ReplicaValid
		r.block.noteReadable(r)
	}
}

// Block is one fixed-size chunk of a file (the last block may be short).
// Blocks are allocated with their file (see fileObj); the replicas slice is
// backed by the inline replArr for the common replication≤3 case, so a
// standard 3-replica block costs no separate replica-list allocation (a
// fourth replica — the HDFS-cache mode's extra memory copy — spills to a
// heap-grown slice via ordinary append).
type Block struct {
	id       int64
	file     *File
	size     int64
	replicas []*Replica
	replArr  [3]*Replica // inline backing for the replicas slice
	// writing counts the client write's replica transfers still running,
	// then 1 while the block waits out its client-rate floor (see
	// replicaWritten).
	writing int32
	// under marks a block FileSystem.underBlocks counts (see recount).
	under bool
}

// ID returns the block id (unique within the FileSystem).
func (b *Block) ID() int64 { return b.id }

// File returns the owning file.
func (b *Block) File() *File { return b.file }

// Size returns the block length in bytes.
func (b *Block) Size() int64 { return b.size }

// Replicas returns the current replica list (do not mutate).
func (b *Block) Replicas() []*Replica { return b.replicas }

// ReplicaOn returns the first readable replica on the given media, or nil.
func (b *Block) ReplicaOn(media storage.Media) *Replica {
	for _, r := range b.replicas {
		if r.Media() == media && r.Readable() {
			return r
		}
	}
	return nil
}

// ReadableReplicas returns the number of readable replicas.
func (b *Block) ReadableReplicas() int {
	n := 0
	for _, r := range b.replicas {
		if r.Readable() {
			n++
		}
	}
	return n
}

// underReplicated reports whether the block is one UnderReplicatedFiles
// looks for: its file is complete, and it has some readable replica but
// fewer than the file's replication target.
func (b *Block) underReplicated() bool {
	if b.file.creating {
		return false
	}
	n := b.ReadableReplicas()
	return n > 0 && n < int(b.file.replication)
}

// recount brings the block's mark, and with it the file system's count of
// under-replicated blocks, up to date. Every change to a block's readable
// replicas or to its file's creating flag or replication target calls it
// (through recountFile for the file-wide ones); a file leaves the live set
// only through releaseAllReplicas, which recounts its blocks at none.
func (b *Block) recount() {
	if under := b.underReplicated(); under != b.under {
		b.under = under
		if under {
			b.file.fs.underBlocks++
		} else {
			b.file.fs.underBlocks--
		}
	}
}

// recountFile recounts every block of f.
func recountFile(f *File) {
	for _, b := range f.blocks {
		b.recount()
	}
}

// noteReadable updates the owning file's per-tier residency counter after r
// became readable: the counter gains the block when r is its first readable
// replica on that media. Call it after the state (and, for moves, device)
// change has been applied. Crossing into full residency (every block on the
// media) fires the FileTierChanged notification.
func (b *Block) noteReadable(r *Replica) {
	b.recount()
	m := r.Media()
	for _, other := range b.replicas {
		if other != r && other.Readable() && other.Media() == m {
			return
		}
	}
	f := b.file
	f.tierBlocks[m]++
	if int(f.tierBlocks[m]) == len(f.blocks) {
		f.fs.notifyResidency(f, m, true)
	}
}

// noteUnreadable is the inverse of noteReadable: call it after r stopped
// being readable on `media` (state change, device repoint, or detachment),
// passing the media it was readable on. Dropping out of full residency
// fires the FileTierChanged notification.
func (b *Block) noteUnreadable(r *Replica, media storage.Media) {
	b.recount()
	for _, other := range b.replicas {
		if other != r && other.Readable() && other.Media() == media {
			return
		}
	}
	f := b.file
	wasFull := len(f.blocks) > 0 && int(f.tierBlocks[media]) == len(f.blocks)
	f.tierBlocks[media]--
	if wasFull {
		f.fs.notifyResidency(f, media, false)
	}
}

// File is a stored file: an ordered list of blocks plus metadata. The
// blocks slice is backed by the inline blkArr for the dominant single-block
// case, so small files cost no block-list allocation. The path string is
// interned with the namespace entry: the entry's name is a substring of the
// same backing array.
type File struct {
	id          FileID
	fs          *FileSystem // owner; carries residency-flip notifications
	path        string
	size        int64
	created     int64 // virtual nanoseconds since sim.Epoch
	blocks      []*Block
	blkArr      [1]*Block // inline backing for single-block files
	replication int16     // at most maxReplication
	deleted     bool
	creating    bool // the initial write (or an attach's rebuild) is in flight
	// writing counts the blocks of the initial write not yet written (1 for
	// an empty file until its creation event fires).
	writing int32
	// tierBlocks[m] counts blocks having at least one readable replica on
	// media m, maintained incrementally on every replica transition so the
	// manager's per-tick file scans answer HasReplicaOn in O(1) instead of
	// walking every replica of every block.
	tierBlocks [3]int32
	// slot is the file's dense live index (see FileSystem.FileAt): taken at
	// birth, handed to a later file once this one is gone.
	slot int32
	// done is the creator's completion, held while the initial write runs.
	done func(*File, error)
}

// fileObj is a single-block file's whole metadata in one allocation: the
// File, its block and that block's initial replicas. At 112 + 80 + 3 × 32
// bytes it fills the 288-byte size class (TestFileObjSizeClass): no more
// than the three cost packed tightly, and one object for the collector.
// Nothing is ever recycled, so a pointer into a fileObj held across
// simulated time (an in-flight move's replica, a dirty-list handle) can
// never alias another file; it keeps this one file alive until it drops,
// and the collector frees the rest with the file.
type fileObj struct {
	file     File
	block    Block
	replicas [3]Replica
}

// replicaSlots is the storage allocated with a file for its blocks' initial
// replicas: block 0's live in the fileObj, every later block's in one shared
// slice, per replicas to a block.
type replicaSlots struct {
	first, rest []Replica
	per         int
}

// block returns block i's initial-replica storage.
func (s replicaSlots) block(i int) []Replica {
	if i == 0 {
		return s.first
	}
	return s.rest[(i-1)*s.per : i*s.per]
}

// allocFile allocates a file with nblocks empty blocks and room for
// replication initial replicas per block: one fileObj, plus one slice of
// blocks and one of replicas for the blocks after the first. Blocks are
// linked into f.blocks; ids, sizes and replicas are the caller's.
func allocFile(nblocks, replication int) (*File, replicaSlots) {
	if nblocks == 0 {
		return new(File), replicaSlots{}
	}
	obj := new(fileObj)
	f := &obj.file
	slots := replicaSlots{first: obj.replicas[:min(replication, len(obj.replicas))], per: replication}
	var rest []Block
	if nblocks == 1 {
		f.blocks = f.blkArr[:0]
	} else {
		f.blocks = make([]*Block, 0, nblocks)
		rest = make([]Block, nblocks-1)
		slots.rest = make([]Replica, (nblocks-1)*replication)
	}
	for i := 0; i < nblocks; i++ {
		b := &obj.block
		if i > 0 {
			b = &rest[i-1]
		}
		b.file = f
		b.replicas = b.replArr[:0]
		f.blocks = append(f.blocks, b)
	}
	return f, slots
}

// ID returns the file id.
func (f *File) ID() FileID { return f.id }

// Slot returns the file's dense live index: a small integer no other live
// file of the same FileSystem holds, recycled after the file is gone. Tables
// of per-live-file state index by it and keep the id beside each entry (see
// FileSystem.FileAt), so they stay sized by the live files rather than by
// every id ever assigned.
func (f *File) Slot() int32 { return f.slot }

// Ref returns the file's id and slot in one word (see Ref).
func (f *File) Ref() Ref { return Ref(uint64(f.id)<<refSlotBits | uint64(f.slot)) }

// Ref is a live file's id and slot packed into one word, id<<24 | slot: the
// compact form for tables that order files by id and index them by slot.
// Refs order exactly as their ids do. A FileSystem keeps slots below 1<<24
// and ids below 1<<40, so every file has one (see newFile).
type Ref uint64

const (
	refSlotBits = 24
	maxSlots    = 1 << refSlotBits
	maxFileID   = 1 << (64 - refSlotBits)
	// maxReplication is the widest replication target a File holds.
	maxReplication = math.MaxInt16
)

// ID returns the file id.
func (r Ref) ID() FileID { return FileID(r >> refSlotBits) }

// Slot returns the file's slot.
func (r Ref) Slot() int32 { return int32(r & (maxSlots - 1)) }

// Path returns the absolute path of the file.
func (f *File) Path() string { return f.path }

// Size returns the logical file length in bytes.
func (f *File) Size() int64 { return f.size }

// Created returns the virtual creation time.
func (f *File) Created() time.Time { return sim.AtNanos(f.created) }

// Replication returns the target replica count per block.
func (f *File) Replication() int { return int(f.replication) }

// Blocks returns the file's blocks in order (do not mutate).
func (f *File) Blocks() []*Block { return f.blocks }

// Deleted reports whether the file has been removed from the namespace.
func (f *File) Deleted() bool { return f.deleted }

// HasReplicaOn reports whether every block of the file has a readable
// replica on the given media — the "all-or-nothing" property the paper's
// policies care about (Section 3.2). It reads the incrementally maintained
// residency counter, so it is O(1).
func (f *File) HasReplicaOn(media storage.Media) bool {
	return len(f.blocks) > 0 && int(f.tierBlocks[media]) == len(f.blocks)
}

// hasReplicaOnSlow recomputes HasReplicaOn from the replica lists; the
// invariant checker uses it to validate the counters.
func (f *File) hasReplicaOnSlow(media storage.Media) bool {
	if len(f.blocks) == 0 {
		return false
	}
	for _, b := range f.blocks {
		if b.ReplicaOn(media) == nil {
			return false
		}
	}
	return true
}

// BytesOn returns the total replica bytes the file occupies on a media.
func (f *File) BytesOn(media storage.Media) int64 {
	var total int64
	for _, b := range f.blocks {
		for _, r := range b.replicas {
			if r.Media() == media && r.state != ReplicaDeleting {
				total += b.size
			}
		}
	}
	return total
}

// HighestTier returns the highest media holding a readable replica of every
// block, and false when the file has no complete tier.
func (f *File) HighestTier() (storage.Media, bool) {
	for _, m := range storage.AllMedia {
		if f.HasReplicaOn(m) {
			return m, true
		}
	}
	return 0, false
}
