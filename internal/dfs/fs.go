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
	// horizon is the plane's per-device queue-horizon view, present only
	// when the attached plane exposes one (ContendedPlane does). Read
	// steering prefers the least-backlogged device among same-tier remote
	// replicas; nil plane and NopPlane lack the method, so replays without
	// contention keep the pre-steering tie-break bit for bit.
	horizon horizonFunc
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
	stats       Stats

	// fileList/filePos index every live file so manager scans iterate a
	// flat slice instead of walking (and sorting) the namespace tree.
	// filePos is indexed by slot (see File.Slot), -1 for a free slot, and
	// freeSlots lists the free ones: the table is as long as the most files
	// ever live at once, not as the ids ever assigned.
	fileList  []*File
	filePos   []int32
	freeSlots []int32

	// underBlocks counts the blocks UnderReplicatedFiles looks for (see
	// Block.recount), so the Replication Monitor's per-tick check costs
	// nothing while there are none.
	underBlocks int

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
	if cfg.Replication > maxReplication {
		return nil, fmt.Errorf("dfs: replication %d above %d", cfg.Replication, maxReplication)
	}
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
		fs.placement = &octopusPlacement{cluster: c, rng: fs.rng, weights: DefaultPlacementWeights()}
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
	fs.horizon = planeHorizon(p)
	if op, ok := fs.placement.(*octopusPlacement); ok {
		op.horizon = fs.horizon
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
		Device: dev,
		Dir:    dir,
		Class:  class,
		Tenant: fs.activeTenant,
		Bytes:  bytes,
		At:     fs.engine.Now(),
	})
}

// SetActiveTenant scopes subsequent plane charges to a tenant; callers set
// it around an entry-point call and reset to storage.DefaultTenant after.
// Owned by the goroutine driving the file system (the core loop), like
// every other mutation.
func (fs *FileSystem) SetActiveTenant(t storage.TenantID) { fs.activeTenant = t }

// startTransfer begins every transfer leg through the data plane: the
// start is delayed by the plane's queueing + base-latency grant (cross-shard
// contention on the physical channel) — start fires then and must start the
// same transfer — after which the device's own processor-sharing pool
// models the transfer and fires done. Without a plane the transfer starts
// inline, so event ordering is identical to the pre-data-plane engine.
// start and done are the leg's own state: a replica, a planned block move
// or a read record.
func (fs *FileSystem) startTransfer(dev *storage.Device, dir storage.Direction, class storage.IOClass, bytes int64, start, done sim.Handler) {
	if delay := fs.chargePlane(dev, dir, class, bytes); delay.Queue+delay.Base > 0 {
		fs.engine.ScheduleHandler(delay.Queue+delay.Base, start)
		return
	}
	dev.Start(dir, bytes, done)
}

// Cluster returns the underlying cluster.
func (fs *FileSystem) Cluster() *cluster.Cluster { return fs.cluster }

// Namespace exposes the FS directory.
func (fs *FileSystem) Namespace() *Namespace { return fs.ns }

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

// trackFile adds f to the live-file index under a free slot.
func (fs *FileSystem) trackFile(f *File) {
	if n := len(fs.freeSlots); n > 0 {
		f.slot = fs.freeSlots[n-1]
		fs.freeSlots = fs.freeSlots[:n-1]
	} else {
		f.slot = int32(len(fs.filePos))
		fs.filePos = append(fs.filePos, -1)
	}
	fs.filePos[f.slot] = int32(len(fs.fileList))
	fs.fileList = append(fs.fileList, f)
}

// untrackFile removes f from the live-file index by swapping the tail in.
// Its slot stays taken until releaseSlot, so listeners told of the removal
// can still clear their entries under it.
func (fs *FileSystem) untrackFile(f *File) {
	pos := fs.filePos[f.slot]
	last := int32(len(fs.fileList) - 1)
	moved := fs.fileList[last]
	fs.fileList[pos] = moved
	fs.filePos[moved.slot] = pos
	fs.fileList[last] = nil
	fs.fileList = fs.fileList[:last]
	fs.filePos[f.slot] = -1
}

// releaseSlot hands an untracked file's slot to the next file born.
func (fs *FileSystem) releaseSlot(f *File) { fs.freeSlots = append(fs.freeSlots, f.slot) }

// Complete reports whether the file's initial write has finished.
func (fs *FileSystem) Complete(f *File) bool { return !f.creating }

// FileAt resolves a live file by its slot in O(1): the file holding the
// slot when its id is id, nil otherwise (a free slot, or one a later file
// took over). Tables of per-live-file state store the slot and the id of
// each entry and resolve through this, so an entry never pins a namespace
// object and a recycled slot never hands back its predecessor.
func (fs *FileSystem) FileAt(slot int32, id FileID) *File {
	if slot < 0 || int(slot) >= len(fs.filePos) {
		return nil
	}
	pos := fs.filePos[slot]
	if pos < 0 {
		return nil
	}
	if f := fs.fileList[pos]; f.id == id {
		return f
	}
	return nil
}

// Open resolves a path to its file.
func (fs *FileSystem) Open(path string) (*File, error) {
	f, err := fs.ns.GetFile(path)
	if err != nil {
		return nil, err
	}
	if f.creating {
		return nil, fmt.Errorf("%w: %q", ErrFileIncomplete, path)
	}
	return f, nil
}

// clientFloor returns the earliest completion time a stream of `bytes`
// begun at `from` may have under the per-stream client rate cap.
func (fs *FileSystem) clientFloor(from time.Time, bytes int64) time.Time {
	if fs.cfg.ClientRate <= 0 {
		return from
	}
	d := time.Duration(float64(bytes) / fs.cfg.ClientRate * float64(time.Second))
	return from.Add(d)
}

// Create writes a new file of the given size. The write is asynchronous:
// done (optional) fires with the file when all block pipelines complete, or
// with the error that refused or aborted the write. The file becomes visible
// in the namespace immediately but cannot be opened until the write
// completes, mirroring HDFS lease semantics.
func (fs *FileSystem) Create(path string, size int64, done func(*File, error)) {
	if _, err := fs.CreateFile(path, size, done); err != nil && done != nil {
		done(nil, err)
	}
}

// CreateFile is Create with the synchronous half's outcome returned: the
// file whose write is now in flight, or the error that refused or aborted
// the write (done is then never called). A create fails only synchronously
// — a bad path or size, a taken path, no placement or a backend write error
// — so done, once the file is returned, fires with a nil error.
//
// The write schedules no closures: its events carry the replica, block or
// file they advance (replicaStart, replicaWritten, blockWritten,
// fileWritten), each of which counts down to the next: a block is written
// once its replicas' transfers and its client-rate floor have passed, the
// file once its last block is.
func (fs *FileSystem) CreateFile(path string, size int64, done func(*File, error)) (*File, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return nil, err
	}
	if size < 0 {
		return nil, fmt.Errorf("dfs: negative file size %d", size)
	}
	nblocks := int((size + fs.cfg.BlockSize - 1) / fs.cfg.BlockSize)
	f, slots, err := fs.newFile(clean, size, fs.engine.Now(), int32(fs.cfg.Replication), nblocks)
	if err != nil {
		return nil, err
	}
	// Cut the file into blocks.
	for i, b := range f.blocks {
		b.size = min(size-int64(i)*fs.cfg.BlockSize, fs.cfg.BlockSize)
	}
	f.creating = true
	f.done = done
	if len(f.blocks) == 0 {
		f.writing = 1
		fs.engine.ScheduleHandler(0, (*fileWritten)(f))
		return f, nil
	}
	f.writing = int32(len(f.blocks))
	for i, b := range f.blocks {
		if err := fs.writeBlock(b, slots.block(i)); err != nil {
			// Placement failed outright; abort the file. Blocks already in
			// flight will complete harmlessly against the unlinked file: its
			// writing count never reaches zero.
			fs.abortCreate(f)
			return nil, err
		}
	}
	return f, nil
}

// abortCreate unlinks a file whose initial write failed, mirroring an
// aborted HDFS lease.
func (fs *FileSystem) abortCreate(f *File) {
	f.creating = false
	f.done = nil
	fs.releaseAllReplicas(f, storage.ClassServe)
	fs.ns.unlink(f)
	f.deleted = true
	fs.untrackFile(f)
	fs.releaseSlot(f)
}

// commitCreate completes a file whose every block is written.
func (fs *FileSystem) commitCreate(f *File) {
	f.creating = false
	recountFile(f)
	fs.stats.FilesCreated++
	for _, l := range fs.listeners {
		l.FileCreated(f)
	}
	fs.notifyTiers(f)
	if fs.cfg.Mode == ModeHDFSCache {
		fs.cacheFile(f)
	}
	if done := f.done; done != nil {
		f.done = nil
		done(f, nil)
	}
}

// newFile allocates a file with the next id and nblocks blocks with the next
// block ids (sizes are the caller's), links it into the namespace and the
// live-file index, and returns the storage allocated with it for its blocks'
// initial replicas: the part of a file's birth Create and AttachFile share.
// A file that fails to link consumes no id.
func (fs *FileSystem) newFile(path string, size int64, created time.Time, replication int32, nblocks int) (*File, replicaSlots, error) {
	if fs.nextFileID >= maxFileID || len(fs.freeSlots) == 0 && len(fs.filePos) >= maxSlots {
		return nil, replicaSlots{}, fmt.Errorf("%w: %d files live, %d ids assigned (see Ref)", ErrNoCapacity, len(fs.fileList), fs.nextFileID)
	}
	f, slots := allocFile(nblocks, int(replication))
	f.id = fs.nextFileID
	f.fs = fs
	f.path = path
	f.size = size
	f.created = sim.Nanos(created)
	f.replication = int16(replication)
	if err := fs.ns.insertFile(path, f); err != nil {
		return nil, replicaSlots{}, err
	}
	fs.nextFileID++
	fs.trackFile(f)
	for _, b := range f.blocks {
		b.id = fs.nextBlockID
		fs.nextBlockID++
	}
	return f, slots, nil
}

// writeBlock places and writes one block of a client write into its
// initial-replica storage (a fresh slice when placement returns more targets
// than it holds). Its replicas' transfers count down the block's writing.
func (fs *FileSystem) writeBlock(b *Block, slots []Replica) error {
	targets, err := fs.placement.PlaceBlock(b.size, int(b.file.replication))
	if err != nil {
		return err
	}
	var buf [3]blockMove
	plan := buf[:0]
	for _, t := range targets {
		if err := t.Device.Reserve(b.size); err != nil {
			// PickDevice checked free space, so this indicates a race in
			// single-threaded code — a genuine bug.
			panic(fmt.Sprintf("dfs: reservation failed after placement: %v", err))
		}
		plan = append(plan, blockMove{block: b, dst: t})
	}
	// Materialize the physical bytes before committing replica records: a
	// real backend failure (ENOSPC, injected fault) then unwinds to a plain
	// placement error and the create aborts through its existing failure
	// path.
	if err := fs.materialize(plan, storage.ClassServe); err != nil {
		return err
	}
	if len(plan) > len(slots) {
		slots = make([]Replica, len(plan))
	}
	b.writing = int32(len(plan))
	for i := range plan {
		r := fs.addReplica(&slots[i], b, plan[i].dst)
		fs.stats.BytesWritten[r.Media()] += b.size
		fs.startTransfer(r.device, storage.Write, storage.ClassServe, b.size, (*replicaStart)(r), (*replicaWritten)(r))
	}
	return nil
}

// replicaStart is a replica whose write the plane has granted: Fire starts
// the transfer on the replica's device. A replica torn down meanwhile (its
// node left) still runs its transfer, as every write the block counts must.
type replicaStart Replica

// Fire implements sim.Handler.
func (s *replicaStart) Fire() {
	r := (*Replica)(s)
	r.device.Start(storage.Write, r.block.size, (*replicaWritten)(r))
}

// replicaWritten is a replica whose write transfer finished.
type replicaWritten Replica

// Fire implements sim.Handler: after the block's last transfer the block
// waits out its client-rate floor, if that is still ahead, and settles.
func (w *replicaWritten) Fire() {
	b := w.block
	if b.writing--; b.writing > 0 {
		return
	}
	fs := b.file.fs
	if floor := fs.clientFloor(b.file.Created(), b.size); fs.engine.Now().Before(floor) {
		b.writing = 1
		fs.engine.ScheduleHandlerAt(floor, (*blockWritten)(b))
		return
	}
	(*blockWritten)(b).Fire()
}

// blockWritten is a block whose initial write is complete.
type blockWritten Block

// Fire implements sim.Handler: the block's replicas become readable (any
// torn down meanwhile stay as they are) and the file counts the block.
func (w *blockWritten) Fire() {
	b := (*Block)(w)
	b.writing = 0
	for _, r := range b.replicas {
		r.settle()
	}
	(*fileWritten)(b.file).Fire()
}

// fileWritten is a file one of whose blocks (or, empty, whose creation
// event) is done.
type fileWritten File

// Fire implements sim.Handler: the last block commits the create.
func (w *fileWritten) Fire() {
	f := (*File)(w)
	if f.writing--; f.writing == 0 {
		f.fs.commitCreate(f)
	}
}

// notifyResidency fires FileTierChanged for a residency flip on a complete,
// live file. Flips during the initial write are suppressed: FileCreated
// carries the full starting residency once the write commits, and aborted
// writes tear down replicas that no listener ever saw.
func (fs *FileSystem) notifyResidency(f *File, media storage.Media, resident bool) {
	if f.deleted || f.creating {
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
// that do not fit, or whose write fails, are silently skipped; cached
// replicas are never evicted. A file's fills share one plan; each starts
// once reserved and materialized, so the next block's device pick sees it.
func (fs *FileSystem) cacheFile(f *File) {
	var plan []blockMove
	for i, b := range f.blocks {
		var dst Target
		for _, r := range b.replicas {
			if r.Media() != storage.HDD {
				continue
			}
			if d := r.node.PickDevice(storage.Memory, b.size); d != nil {
				dst = Target{Node: r.node, Device: d}
				break
			}
		}
		if dst.Device == nil || dst.Device.Reserve(b.size) != nil {
			continue
		}
		if plan == nil {
			plan = make([]blockMove, 0, len(f.blocks)-i)
		}
		plan = append(plan, blockMove{block: b, dst: dst})
		if fs.materialize(plan[len(plan)-1:], storage.ClassMove) != nil {
			plan = plan[:len(plan)-1]
			continue
		}
		m := &plan[len(plan)-1]
		m.added = fs.addReplica(nil, b, dst)
		m.added.isCache = true
		fs.stats.BytesUpgradedTo[storage.Memory] += b.size
		fs.stream(m)
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
// (remote read). done fires once the transfer completes and the read's
// client-rate floor has passed.
func (fs *FileSystem) ReadBlock(b *Block, at *cluster.Node, done func(ReadResult, error)) {
	r := fs.pickReadReplica(b, at)
	if r == nil {
		fs.engine.Schedule(0, func() {
			if done != nil {
				done(ReadResult{}, fmt.Errorf("%w: block %d has no readable replica", ErrNoReplica, b.id))
			}
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
	rd := &blockRead{fs: fs, dev: r.device, size: b.size, floor: fs.clientFloor(fs.engine.Now(), b.size), res: res, done: done}
	fs.startTransfer(rd.dev, storage.Read, storage.ClassServe, b.size, (*readStart)(rd), rd)
}

// blockRead is one block read in flight.
type blockRead struct {
	fs    *FileSystem
	dev   *storage.Device
	size  int64
	floor time.Time
	res   ReadResult
	done  func(ReadResult, error)
}

// Fire implements sim.Handler: the read's transfer is done. A read whose
// client-rate floor is still ahead fires again at the floor.
func (rd *blockRead) Fire() {
	if e := rd.fs.engine; e.Now().Before(rd.floor) {
		e.ScheduleHandlerAt(rd.floor, rd)
		return
	}
	if rd.done != nil {
		rd.done(rd.res, nil)
	}
}

// readStart is a block read whose transfer the plane has granted.
type readStart blockRead

func (s *readStart) Fire() { s.dev.Start(storage.Read, s.size, (*blockRead)(s)) }

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
	if fs.horizon != nil {
		ah := fs.horizon(a, storage.Read)
		bh := fs.horizon(b, storage.Read)
		if ah != bh {
			return ah < bh
		}
	}
	return a.Load() < b.Load()
}

// Delete removes a file and releases all of its replicas. A file deleted
// or of another file system is refused with ErrNotFound, one mid-create
// with ErrFileIncomplete and one with a replica in transition with ErrBusy.
func (fs *FileSystem) Delete(f *File) error { return fs.remove(f, storage.ClassServe) }

// settled reports why f cannot be snapshotted or removed as it stands:
// ErrNotFound for a file deleted or of another file system,
// ErrFileIncomplete mid-create, ErrBusy with a replica in transition.
func (fs *FileSystem) settled(f *File) error {
	switch {
	case f.deleted || f.fs != fs:
		return fmt.Errorf("%w: %q", ErrNotFound, f.path)
	case f.creating:
		return fmt.Errorf("%w: %q", ErrFileIncomplete, f.path)
	case fs.inTransition(f):
		return fmt.Errorf("%w: %q", ErrBusy, f.path)
	}
	return nil
}

// remove unlinks a settled file and tears down its replicas as I/O of the
// given class: ClassServe is a client delete, counted in Stats; ClassMove is
// DetachFile (see there).
func (fs *FileSystem) remove(f *File, class storage.IOClass) error {
	if err := fs.settled(f); err != nil {
		return err
	}
	fs.ns.unlink(f)
	fs.releaseAllReplicas(f, class)
	f.deleted = true
	fs.untrackFile(f)
	if class == storage.ClassServe {
		fs.stats.FilesDeleted++
	}
	for _, l := range fs.listeners {
		l.FileDeleted(f)
	}
	fs.releaseSlot(f)
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
		b.recount()
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
