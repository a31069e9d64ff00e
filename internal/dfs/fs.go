package dfs

import (
	"fmt"
	"math/rand"
	"time"

	"octostore/internal/backend"
	"octostore/internal/cluster"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// Mode selects which of the paper's four systems the file system behaves
// like (Figure 2).
type Mode int

const (
	// ModeHDFS stores every replica on HDDs (stock HDFS).
	ModeHDFS Mode = iota
	// ModeHDFSCache is HDFS plus a best-effort extra memory replica per
	// block created asynchronously after the write (HDFS centralized cache;
	// no automatic uncaching).
	ModeHDFSCache
	// ModeOctopus uses the OctopusFS multi-objective tiered placement.
	// Attaching a core.Manager to this mode yields Octopus++.
	ModeOctopus
	// ModePinnedHDD places all replicas on HDD but allows tier movement;
	// used to isolate upgrade policies (Section 7.4).
	ModePinnedHDD
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeHDFS:
		return "hdfs"
	case ModeHDFSCache:
		return "hdfs+cache"
	case ModeOctopus:
		return "octopus"
	case ModePinnedHDD:
		return "pinned-hdd"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config configures a FileSystem.
type Config struct {
	Mode        Mode
	BlockSize   int64   // default 128 MB
	Replication int     // default 3
	Seed        int64   // placement randomisation seed
	ClientRate  float64 // per-stream client throughput cap in bytes/s; 0 disables
	// Weights overrides the OctopusFS placement weights when non-nil.
	Weights *PlacementWeights
}

func (c *Config) applyDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = 128 * storage.MB
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
}

// Listener receives file-system notifications; the core replication manager
// registers one to drive its policies (Section 3.3 "callback methods").
type Listener interface {
	// FileCreated fires when a file's initial write completes.
	FileCreated(f *File)
	// FileAccessed fires when accesses to a file are recorded, before the
	// data is read, so upgrade policies can act first. n >= 1 is how many
	// accesses the notification stands for, all at the current instant (the
	// serving layer coalesces a file's accesses between two drains into one
	// notification; every other caller reports one at a time).
	FileAccessed(f *File, n int64)
	// FileDeleted fires when a file is removed.
	FileDeleted(f *File)
	// FileTierChanged fires when a complete file's all-or-nothing residency
	// on a tier flips: resident=true when the last block gained a readable
	// replica on the media, false when the first block lost its last one.
	// Candidate indexes maintain per-tier membership from these flips
	// instead of rescanning every live file per decision.
	FileTierChanged(f *File, media storage.Media, resident bool)
	// TierDataAdded fires after data lands on a tier (block creation or an
	// upgrade/downgrade arrival), the trigger for the downgrade process.
	TierDataAdded(media storage.Media)
}

// Stats accumulates cluster-wide I/O counters used by the experiments.
type Stats struct {
	BlockReads        [3]int64 // by media served
	BytesRead         [3]int64 // by media served
	BytesWritten      [3]int64 // initial placement, by media
	BytesUpgradedTo   [3]int64 // arrivals via upgrade moves/copies
	BytesDowngradedTo [3]int64 // arrivals via downgrade moves
	RemoteReads       int64
	FileAccesses      int64
	FilesCreated      int64
	FilesDeleted      int64
	ReplicasDeleted   int64
}

// TotalBytesRead sums reads across media.
func (s *Stats) TotalBytesRead() int64 {
	return s.BytesRead[0] + s.BytesRead[1] + s.BytesRead[2]
}

// FileSystem is the Master-side state of the tiered DFS plus the client
// API. It is single-threaded on top of the simulation engine.
type FileSystem struct {
	engine    *sim.Engine
	cluster   *cluster.Cluster
	ns        *Namespace
	cfg       Config
	placement PlacementPolicy
	rng       *rand.Rand
	listeners []Listener
	// plane, when non-nil, accounts every transfer against the shared
	// physical-device channels (see storage.DataPlane). Adopted from the
	// cluster at construction; nil keeps the pre-data-plane semantics
	// exactly (no extra events, no latency, no accounting).
	plane storage.DataPlane
	// backlog is the plane's per-device queue-horizon view, present only
	// when the attached plane exposes one (ContendedPlane does). Read
	// steering prefers the least-backlogged device among same-tier remote
	// replicas; nil plane and NopPlane lack the method, so replays without
	// contention keep the pre-steering tie-break bit for bit.
	backlog writeHorizons
	// bkend, when non-nil, mirrors every block-replica state change onto a
	// physical store (see internal/backend). The virtual clock keeps driving
	// all control-plane timing either way: backend calls are synchronous,
	// schedule no events, and draw no randomness, so policy decisions are
	// identical whichever backend is attached (nil and backend.Sim are
	// interchangeable). Write/Read errors abort the surrounding operation
	// through its existing rollback path; teardown deletes never fail the
	// caller.
	bkend backend.Backend
	// activeTenant tags plane charges issued while an entry-point call is
	// on the stack (charges happen synchronously inside Create/ReadBlock/
	// move starts, so a scoped set/reset around the call suffices). Zero is
	// storage.DefaultTenant: untagged.
	activeTenant storage.TenantID
	// membershipHooks run after every FailNode/AddNode, on the caller's
	// goroutine (always the loop that owns the file system), with the
	// per-tier capacity the change added or removed. The serving layer uses
	// them to re-publish per-tier representative devices, which node loss
	// can invalidate without firing a residency flip, and to settle its
	// capacity ledger.
	membershipHooks []func(delta [3]int64)

	nextFileID  FileID
	nextBlockID int64
	// creatingBits marks files whose initial write is still in flight, one
	// bit per FileID. A bitset instead of a map: Go maps never release
	// their bucket arrays, so a create burst would pin a high-water mark of
	// empty buckets for the life of the namespace.
	creatingBits []uint64
	stats        Stats

	// Arenas for the long-lived metadata objects (see arena.go). Objects
	// are allocated for the FileSystem's lifetime and never recycled:
	// in-flight moves and copy barriers hold replica pointers across
	// simulated time, so slot reuse would alias live references.
	fileArena    arena[File]
	blockArena   arena[Block]
	replicaArena arena[Replica]

	// fileList/filePos index every live file so manager scans iterate a
	// flat slice instead of walking (and sorting) the namespace tree.
	// filePos is dense — indexed by FileID (ids are assigned sequentially),
	// -1 for ids that are not live — so the per-file index cost is four
	// bytes instead of a map entry.
	fileList []*File
	filePos  []int32

	// liveBytes tracks the block bytes of all attached, non-deleting
	// replicas; pendingMoveBytes tracks destination reservations of
	// in-flight tier moves. Together they let the invariant checker verify
	// capacity conservation in O(#devices) at any event boundary.
	liveBytes        int64
	pendingMoveBytes int64
	moves            map[*blockMove]bool
	removedNodes     map[int]bool
}

// New builds a file system over the cluster.
func New(c *cluster.Cluster, cfg Config) (*FileSystem, error) {
	cfg.applyDefaults()
	fs := &FileSystem{
		engine:       c.Engine(),
		cluster:      c,
		ns:           NewNamespace(),
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		moves:        make(map[*blockMove]bool),
		removedNodes: make(map[int]bool),
	}
	switch cfg.Mode {
	case ModeHDFS, ModeHDFSCache, ModePinnedHDD:
		fs.placement = &pinnedPlacement{cluster: c, rng: fs.rng, media: storage.HDD}
	case ModeOctopus:
		w := DefaultPlacementWeights()
		if cfg.Weights != nil {
			w = *cfg.Weights
		}
		fs.placement = &octopusPlacement{cluster: c, rng: fs.rng, weights: w}
	default:
		return nil, fmt.Errorf("dfs: unknown mode %v", cfg.Mode)
	}
	fs.SetDataPlane(c.Plane())
	return fs, nil
}

// MustNew is New but panics on error.
func MustNew(c *cluster.Cluster, cfg Config) *FileSystem {
	fs, err := New(c, cfg)
	if err != nil {
		panic(err)
	}
	return fs
}

// Engine returns the simulation engine.
func (fs *FileSystem) Engine() *sim.Engine { return fs.engine }

// DataPlane returns the attached data plane (nil when none).
func (fs *FileSystem) DataPlane() storage.DataPlane { return fs.plane }

// SetDataPlane attaches (or, with nil, detaches) a data plane. Transfers
// already in flight are unaffected. Tests use it to install per-instance
// planes before a serving layer starts (the server caches the plane at
// Start; swapping afterwards is unsupported); production wiring passes the
// plane through cluster.Config instead. The plane's horizon view, when it
// has one, goes to read steering and to placement together.
func (fs *FileSystem) SetDataPlane(p storage.DataPlane) {
	fs.plane = p
	fs.backlog, _ = p.(writeHorizons)
	if op, ok := fs.placement.(*octopusPlacement); ok {
		op.backlog = fs.backlog
	}
}

// Backend returns the attached physical backend (nil when none).
func (fs *FileSystem) Backend() backend.Backend { return fs.bkend }

// SetBackend attaches (or, with nil, detaches) a physical data backend.
// Must happen before any files exist: the backend mirrors replica state
// from the first write on, so attaching it mid-life would leave earlier
// replicas without physical bytes. Call it right after New, before the
// serving layer starts (the server caches the backend at Start, like the
// plane).
func (fs *FileSystem) SetBackend(b backend.Backend) { fs.bkend = b }

// backendWrite mirrors a new replica's bytes onto the physical backend.
// The error aborts the surrounding operation; the caller rolls back.
func (fs *FileSystem) backendWrite(dev *storage.Device, class storage.IOClass, blockID, bytes int64) error {
	if fs.bkend == nil {
		return nil
	}
	_, err := fs.bkend.Write(backend.Request{
		Media: dev.Media(), Class: class, Tenant: fs.activeTenant,
		DeviceID: dev.ID(), BlockID: blockID, Bytes: bytes,
	})
	return err
}

// backendRead streams a replica's bytes from the physical backend.
func (fs *FileSystem) backendRead(dev *storage.Device, class storage.IOClass, blockID, bytes int64) error {
	if fs.bkend == nil {
		return nil
	}
	_, err := fs.bkend.Read(backend.Request{
		Media: dev.Media(), Class: class, Tenant: fs.activeTenant,
		DeviceID: dev.ID(), BlockID: blockID, Bytes: bytes,
	})
	return err
}

// backendDelete drops a replica's physical bytes. Teardown must not fail
// halfway, so errors are only counted in the backend's stats.
func (fs *FileSystem) backendDelete(dev *storage.Device, class storage.IOClass, blockID, bytes int64) {
	if fs.bkend == nil {
		return
	}
	fs.bkend.Delete(backend.Request{
		Media: dev.Media(), Class: class, Tenant: fs.activeTenant,
		DeviceID: dev.ID(), BlockID: blockID, Bytes: bytes,
	})
}

// chargePlane accounts one transfer against the shared device channel and
// returns the grant. Zero grant without a plane.
func (fs *FileSystem) chargePlane(dev *storage.Device, dir storage.Direction, class storage.IOClass, bytes int64) storage.IOGrant {
	if fs.plane == nil {
		return storage.IOGrant{}
	}
	return fs.plane.Serve(storage.IORequest{
		DeviceID: dev.ID(),
		Media:    dev.Media(),
		Dir:      dir,
		Class:    class,
		Tenant:   fs.activeTenant,
		Bytes:    bytes,
		At:       fs.engine.Now(),
	})
}

// SetActiveTenant scopes subsequent plane charges to a tenant; callers set
// it around an entry-point call and reset to storage.DefaultTenant after.
// Owned by the goroutine driving the file system (the core loop), like
// every other mutation.
func (fs *FileSystem) SetActiveTenant(t storage.TenantID) { fs.activeTenant = t }

// ActiveTenant returns the tenant currently charged for plane I/O.
func (fs *FileSystem) ActiveTenant() storage.TenantID { return fs.activeTenant }

// startTransfer begins a device transfer through the data plane: the start
// is delayed by the plane's queueing + base-latency grant (cross-shard
// contention on the physical channel), after which the device's own
// processor-sharing pool models the transfer as before. Without a plane the
// transfer starts inline — no extra event, so event ordering is identical
// to the pre-data-plane engine.
func (fs *FileSystem) startTransfer(dev *storage.Device, dir storage.Direction, class storage.IOClass, bytes int64, done func()) {
	if delay := fs.chargePlane(dev, dir, class, bytes); delay.Queue+delay.Base > 0 {
		fs.engine.Schedule(delay.Queue+delay.Base, func() { dev.Start(dir, bytes, done) })
		return
	}
	dev.Start(dir, bytes, done)
}

// Cluster returns the underlying cluster.
func (fs *FileSystem) Cluster() *cluster.Cluster { return fs.cluster }

// Namespace exposes the FS directory.
func (fs *FileSystem) Namespace() *Namespace { return fs.ns }

// Mode returns the configured mode.
func (fs *FileSystem) Mode() Mode { return fs.cfg.Mode }

// BlockSize returns the configured block size.
func (fs *FileSystem) BlockSize() int64 { return fs.cfg.BlockSize }

// Replication returns the configured per-block replication target.
func (fs *FileSystem) Replication() int { return fs.cfg.Replication }

// Stats returns the live counter set.
func (fs *FileSystem) Stats() *Stats { return &fs.stats }

// AddListener registers a notification listener.
func (fs *FileSystem) AddListener(l Listener) {
	fs.listeners = append(fs.listeners, l)
}

// TierUtilization returns used/capacity of a storage tier cluster-wide.
func (fs *FileSystem) TierUtilization(media storage.Media) float64 {
	return fs.cluster.TierUtilization(media)
}

// Files returns every live file in sorted path order.
func (fs *FileSystem) Files() []*File {
	var files []*File
	fs.ns.Walk(func(f *File) { files = append(files, f) })
	return files
}

// LiveFiles returns every live file without walking or sorting the
// namespace tree — the fast path for the manager's per-tick selection
// scans. The order is deterministic (insertion order perturbed by
// swap-removal on delete) but not sorted; callers that need an ordering
// must impose their own. The returned slice is the live index: do not
// mutate it or hold it across file creations and deletions.
func (fs *FileSystem) LiveFiles() []*File { return fs.fileList }

// trackFile adds f to the live-file index.
func (fs *FileSystem) trackFile(f *File) {
	for int64(len(fs.filePos)) <= int64(f.id) {
		fs.filePos = append(fs.filePos, -1)
	}
	fs.filePos[f.id] = int32(len(fs.fileList))
	fs.fileList = append(fs.fileList, f)
}

// untrackFile removes f from the live-file index by swapping the tail in.
func (fs *FileSystem) untrackFile(f *File) {
	pos := fs.posOf(f.id)
	if pos < 0 {
		return
	}
	last := len(fs.fileList) - 1
	fs.fileList[pos] = fs.fileList[last]
	fs.filePos[fs.fileList[pos].id] = int32(pos)
	fs.fileList[last] = nil
	fs.fileList = fs.fileList[:last]
	fs.filePos[f.id] = -1
}

// posOf returns f's index in fileList, or -1 when the id is not live.
func (fs *FileSystem) posOf(id FileID) int {
	if id < 0 || int64(id) >= int64(len(fs.filePos)) {
		return -1
	}
	return int(fs.filePos[id])
}

// isCreating reports whether the file's initial write is still in flight.
func (fs *FileSystem) isCreating(id FileID) bool {
	w := int(id >> 6)
	return w >= 0 && w < len(fs.creatingBits) && fs.creatingBits[w]&(1<<(uint64(id)&63)) != 0
}

func (fs *FileSystem) setCreating(id FileID) {
	w := int(id >> 6)
	for len(fs.creatingBits) <= w {
		fs.creatingBits = append(fs.creatingBits, 0)
	}
	fs.creatingBits[w] |= 1 << (uint64(id) & 63)
}

func (fs *FileSystem) clearCreating(id FileID) {
	if w := int(id >> 6); w < len(fs.creatingBits) {
		fs.creatingBits[w] &^= 1 << (uint64(id) & 63)
	}
}

// Complete reports whether the file's initial write has finished.
func (fs *FileSystem) Complete(f *File) bool { return !fs.isCreating(f.id) }

// FileByID resolves a live file by id in O(1), or nil when the id is not
// live. The candidate indexes store FileID keys and resolve through this
// on selection, so index entries do not pin namespace objects.
func (fs *FileSystem) FileByID(id FileID) *File {
	pos := fs.posOf(id)
	if pos < 0 {
		return nil
	}
	return fs.fileList[pos]
}

// Open resolves a path to its file.
func (fs *FileSystem) Open(path string) (*File, error) {
	f, err := fs.ns.GetFile(path)
	if err != nil {
		return nil, err
	}
	if fs.isCreating(f.id) {
		return nil, fmt.Errorf("%w: %q", ErrFileIncomplete, path)
	}
	return f, nil
}

// clientFloor returns the earliest completion time a stream of `bytes` may
// have under the per-stream client rate cap.
func (fs *FileSystem) clientFloor(bytes int64) time.Time {
	if fs.cfg.ClientRate <= 0 {
		return fs.engine.Now()
	}
	d := time.Duration(float64(bytes) / fs.cfg.ClientRate * float64(time.Second))
	return fs.engine.Now().Add(d)
}

// finishAfter invokes done once fire has been called n times and the floor
// time has passed.
func (fs *FileSystem) finishAfter(n int, floor time.Time, done func()) func() {
	if n <= 0 {
		n = 1
	}
	remaining := n
	return func() {
		remaining--
		if remaining > 0 {
			return
		}
		if now := fs.engine.Now(); now.Before(floor) {
			fs.engine.ScheduleAt(floor, done)
			return
		}
		done()
	}
}

// Create writes a new file of the given size. The write is asynchronous:
// done (optional) fires with the file when all block pipelines complete.
// The file becomes visible in the namespace immediately but cannot be
// opened until the write completes, mirroring HDFS lease semantics.
func (fs *FileSystem) Create(path string, size int64, done func(*File, error)) {
	fail := func(err error) {
		if done != nil {
			done(nil, err)
		}
	}
	clean, err := CleanPath(path)
	if err != nil {
		fail(err)
		return
	}
	if size < 0 {
		fail(fmt.Errorf("dfs: negative file size %d", size))
		return
	}
	nblocks := int((size + fs.cfg.BlockSize - 1) / fs.cfg.BlockSize)
	f, err := fs.newFile(clean, size, fs.engine.Now(), int32(fs.cfg.Replication), nblocks)
	if err != nil {
		fail(err)
		return
	}
	// Cut the file into blocks.
	for remaining := size; remaining > 0; remaining -= fs.cfg.BlockSize {
		fs.newBlock(f, min(remaining, fs.cfg.BlockSize))
	}
	fs.setCreating(f.id)
	finish := func(err error) {
		fs.clearCreating(f.id)
		if err != nil {
			// Failed writes are unlinked, mirroring an aborted HDFS lease.
			fs.releaseAllReplicas(f, storage.ClassServe)
			if _, rmErr := fs.ns.removeFile(f.path); rmErr == nil {
				f.deleted = true
				fs.untrackFile(f)
			}
			fail(err)
			return
		}
		fs.stats.FilesCreated++
		for _, l := range fs.listeners {
			l.FileCreated(f)
		}
		fs.notifyTiers(f)
		if fs.cfg.Mode == ModeHDFSCache {
			fs.cacheFile(f)
		}
		if done != nil {
			done(f, nil)
		}
	}
	if len(f.blocks) == 0 {
		fs.engine.Schedule(0, func() { finish(nil) })
		return
	}
	blockBarrier := fs.finishAfter(len(f.blocks), fs.engine.Now(), func() { finish(nil) })
	for _, b := range f.blocks {
		if err := fs.writeBlock(b, blockBarrier); err != nil {
			// Placement failed outright; abort the file. Blocks already in
			// flight will complete harmlessly against the unlinked file.
			finish(err)
			return
		}
	}
}

// newFile allocates a file with the next id, links it into the namespace
// and the live-file index, and sizes its block list for nblocks: the part of
// a file's birth Create and AttachFile share.
func (fs *FileSystem) newFile(path string, size int64, created time.Time, replication int32, nblocks int) (*File, error) {
	f := fs.fileArena.alloc()
	f.id = fs.nextFileID
	f.fs = fs
	f.path = path
	f.size = size
	f.created = created
	f.replication = replication
	fs.nextFileID++
	if err := fs.ns.insertFile(path, f); err != nil {
		return nil, err
	}
	fs.trackFile(f)
	f.initBlocks(nblocks)
	return f, nil
}

// newBlock appends a replica-less block of the given size, with the next
// block id, to f.
func (fs *FileSystem) newBlock(f *File, size int64) *Block {
	b := fs.blockArena.alloc()
	b.id = fs.nextBlockID
	b.file = f
	b.size = size
	b.initReplicas()
	f.blocks = append(f.blocks, b)
	fs.nextBlockID++
	return b
}

// writeBlock places and writes one block; onDone fires when the replication
// pipeline completes.
func (fs *FileSystem) writeBlock(b *Block, onDone func()) error {
	targets, err := fs.placement.PlaceBlock(b.size, int(b.file.replication))
	if err != nil {
		return err
	}
	for _, t := range targets {
		if err := t.Device.Reserve(b.size); err != nil {
			// PickDevice checked free space, so this indicates a race in
			// single-threaded code — a genuine bug.
			panic(fmt.Sprintf("dfs: reservation failed after placement: %v", err))
		}
	}
	// Materialize the physical bytes before committing replica records: a
	// real backend failure (ENOSPC, injected fault) then unwinds to a plain
	// placement error — reservations released, files written so far removed
	// — and the create aborts through its existing failure path.
	for i, t := range targets {
		if err := fs.backendWrite(t.Device, storage.ClassServe, b.id, b.size); err != nil {
			for _, u := range targets {
				u.Device.Release(b.size)
			}
			for _, u := range targets[:i] {
				fs.backendDelete(u.Device, storage.ClassServe, b.id, b.size)
			}
			return err
		}
	}
	replicas := make([]*Replica, 0, len(targets))
	for _, t := range targets {
		r := fs.replicaArena.alloc()
		r.block, r.node, r.device, r.state = b, t.Node, t.Device, ReplicaCreating
		replicas = append(replicas, r)
		b.replicas = append(b.replicas, r)
		fs.liveBytes += b.size
	}
	barrier := fs.finishAfter(len(targets), fs.clientFloor(b.size), func() {
		for _, r := range replicas {
			if r.state == ReplicaCreating {
				r.state = ReplicaValid
				b.noteReadable(r)
			}
		}
		onDone()
	})
	for _, r := range replicas {
		media := r.Media()
		fs.stats.BytesWritten[media] += b.size
		fs.startTransfer(r.device, storage.Write, storage.ClassServe, b.size, barrier)
	}
	return nil
}

// notifyResidency fires FileTierChanged for a residency flip on a complete,
// live file. Flips during the initial write are suppressed: FileCreated
// carries the full starting residency once the write commits, and aborted
// writes tear down replicas that no listener ever saw.
func (fs *FileSystem) notifyResidency(f *File, media storage.Media, resident bool) {
	if f.deleted || fs.isCreating(f.id) {
		return
	}
	for _, l := range fs.listeners {
		l.FileTierChanged(f, media, resident)
	}
}

// notifyTiers fires TierDataAdded once per distinct media the file landed
// on.
func (fs *FileSystem) notifyTiers(f *File) {
	var seen [3]bool
	for _, b := range f.blocks {
		for _, r := range b.replicas {
			seen[r.Media()] = true
		}
	}
	for _, m := range storage.AllMedia {
		if seen[m] {
			for _, l := range fs.listeners {
				l.TierDataAdded(m)
			}
		}
	}
}

// cacheFile asynchronously adds one memory replica per block on a node that
// already holds an HDD replica (HDFS centralized cache semantics). Blocks
// that do not fit are silently skipped; cached replicas are never evicted.
func (fs *FileSystem) cacheFile(f *File) {
	for _, b := range f.blocks {
		var target *storage.Device
		var node *cluster.Node
		for _, r := range b.replicas {
			if r.Media() != storage.HDD {
				continue
			}
			if d := r.node.PickDevice(storage.Memory, b.size); d != nil {
				target, node = d, r.node
				break
			}
		}
		if target == nil {
			continue
		}
		if err := target.Reserve(b.size); err != nil {
			continue
		}
		if err := fs.backendWrite(target, storage.ClassMove, b.id, b.size); err != nil {
			// Cache fills are best effort: skip the block, like a full tier.
			target.Release(b.size)
			continue
		}
		b := b
		r := fs.replicaArena.alloc()
		r.block, r.node, r.device, r.state, r.isCache = b, node, target, ReplicaCreating, true
		b.replicas = append(b.replicas, r)
		fs.liveBytes += b.size
		fs.stats.BytesUpgradedTo[storage.Memory] += b.size
		fs.startTransfer(target, storage.Write, storage.ClassMove, b.size, func() {
			if r.state == ReplicaCreating {
				r.state = ReplicaValid
				b.noteReadable(r)
			}
		})
	}
}

// RecordAccess notes that a client is about to read the file and notifies
// listeners (the upgrade hook runs before the read, per Algorithm 2).
func (fs *FileSystem) RecordAccess(f *File) { fs.RecordAccessN(f, 1) }

// RecordAccessN records n accesses to the file at the current instant with
// one notification: statistics count all n, processes triggered by an access
// (the upgrade hook, a positive training sample) run once.
func (fs *FileSystem) RecordAccessN(f *File, n int64) {
	if f.deleted || n <= 0 {
		return
	}
	fs.stats.FileAccesses += n
	for _, l := range fs.listeners {
		l.FileAccessed(f, n)
	}
}

// ReadResult describes how a block read was served.
type ReadResult struct {
	Media  storage.Media
	Remote bool // served by a device on a different node than the reader
}

// ReadBlock reads one block from the best available replica: the highest
// tier on the reading node, falling back to the highest tier anywhere
// (remote read). done fires when the transfer completes.
func (fs *FileSystem) ReadBlock(b *Block, at *cluster.Node, done func(ReadResult, error)) {
	finish := func(res ReadResult, err error) {
		if done != nil {
			done(res, err)
		}
	}
	r := fs.pickReadReplica(b, at)
	if r == nil {
		fs.engine.Schedule(0, func() {
			finish(ReadResult{}, fmt.Errorf("%w: block %d has no readable replica", ErrNoReplica, b.id))
		})
		return
	}
	res := ReadResult{Media: r.Media(), Remote: at != nil && r.node != at}
	fs.stats.BlockReads[res.Media]++
	fs.stats.BytesRead[res.Media] += b.size
	if res.Remote {
		fs.stats.RemoteReads++
	}
	// Stream the physical bytes synchronously (errors are counted in the
	// backend's stats; the virtual read still completes — serving decisions
	// must not depend on the backend).
	_ = fs.backendRead(r.device, storage.ClassServe, b.id, b.size)
	barrier := fs.finishAfter(1, fs.clientFloor(b.size), func() { finish(res, nil) })
	fs.startTransfer(r.device, storage.Read, storage.ClassServe, b.size, barrier)
}

// pickReadReplica returns the replica that a task running on `at` would
// read: local replicas first (highest tier), then remote (highest tier,
// least backlogged device — the plane's queue horizon when it exposes one,
// the device's in-flight transfer count otherwise).
func (fs *FileSystem) pickReadReplica(b *Block, at *cluster.Node) *Replica {
	var bestLocal, bestRemote *Replica
	for _, r := range b.replicas {
		if !r.Readable() {
			continue
		}
		if at != nil && r.node == at {
			if bestLocal == nil || r.Media().Higher(bestLocal.Media()) {
				bestLocal = r
			}
			continue
		}
		if bestRemote == nil || r.Media().Higher(bestRemote.Media()) ||
			(r.Media() == bestRemote.Media() && fs.lessBacklogged(r.device, bestRemote.device)) {
			bestRemote = r
		}
	}
	if bestLocal != nil {
		return bestLocal
	}
	return bestRemote
}

// lessBacklogged orders two same-tier devices for read steering. With a
// horizon-exposing plane attached, the device whose read channel clears
// sooner wins — skew-aware steering away from queues the contended plane
// has already built up. Equal horizons (and every plane-less run) fall back
// to the in-flight transfer count, the pre-steering tie-break.
func (fs *FileSystem) lessBacklogged(a, b *storage.Device) bool {
	if fs.backlog != nil {
		ah := fs.backlog.Horizon(a.ID(), storage.Read)
		bh := fs.backlog.Horizon(b.ID(), storage.Read)
		if !ah.Equal(bh) {
			return ah.Before(bh)
		}
	}
	return a.Load() < b.Load()
}

// Delete removes a file and releases all of its replicas.
func (fs *FileSystem) Delete(path string) error { return fs.remove(path, storage.ClassServe) }

// remove unlinks a complete file with no replica in transition and tears
// down its replicas as I/O of the given class: ClassServe is a client
// delete, counted in Stats; ClassMove is DetachFile (see there).
func (fs *FileSystem) remove(path string, class storage.IOClass) error {
	f, err := fs.ns.GetFile(path)
	if err != nil {
		return err
	}
	if fs.isCreating(f.id) {
		return fmt.Errorf("%w: %q", ErrFileIncomplete, path)
	}
	if fs.inTransition(f) {
		return fmt.Errorf("%w: %q", ErrBusy, path)
	}
	if _, err := fs.ns.removeFile(path); err != nil {
		return err
	}
	fs.releaseAllReplicas(f, class)
	f.deleted = true
	fs.untrackFile(f)
	if class == storage.ClassServe {
		fs.stats.FilesDeleted++
	}
	for _, l := range fs.listeners {
		l.FileDeleted(f)
	}
	return nil
}

// releaseAllReplicas tears down every replica of f. A ClassMove teardown
// (DetachFile) first charges each block's outbound copy as a plane read and
// leaves Stats.ReplicasDeleted alone.
func (fs *FileSystem) releaseAllReplicas(f *File, class storage.IOClass) {
	for _, b := range f.blocks {
		if class == storage.ClassMove && len(b.replicas) > 0 {
			fs.chargePlane(b.replicas[0].device, storage.Read, storage.ClassMove, b.size)
		}
		for _, r := range b.replicas {
			if r.state != ReplicaDeleting {
				r.state = ReplicaDeleting
				r.device.Release(b.size)
				fs.backendDelete(r.device, class, b.id, b.size)
				fs.liveBytes -= b.size
				if class == storage.ClassServe {
					fs.stats.ReplicasDeleted++
				}
			}
		}
		b.replicas = nil
	}
	f.tierBlocks = [3]int32{}
}

func (fs *FileSystem) inTransition(f *File) bool {
	for _, b := range f.blocks {
		for _, r := range b.replicas {
			if r.state == ReplicaCreating || r.state == ReplicaMoving {
				return true
			}
		}
	}
	return false
}
