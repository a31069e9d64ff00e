package dfs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"
	"time"

	"octostore/internal/backend"
	"octostore/internal/cluster"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// countingBackend counts every backend call per tier and op and stores
// nothing. Wrapped in a backend.Faulty, the injected failures are folded
// into the same snapshot's error counts.
type countingBackend struct{ ops [3][3]int64 }

func (c *countingBackend) Physical() bool { return false }

func (c *countingBackend) Write(r backend.Request) (time.Duration, error) {
	c.ops[r.Media][backend.OpWrite]++
	return 0, nil
}

func (c *countingBackend) Read(r backend.Request) (time.Duration, error) {
	c.ops[r.Media][backend.OpRead]++
	return 0, nil
}

func (c *countingBackend) Delete(r backend.Request) (time.Duration, error) {
	c.ops[r.Media][backend.OpDelete]++
	return 0, nil
}

func (c *countingBackend) Stats() backend.Stats {
	var s backend.Stats
	for _, m := range storage.AllMedia {
		for _, op := range backend.Ops {
			s.PerTier[m].Op(op).Count = c.ops[m][op]
		}
	}
	return s
}

// tierResidencyHash folds a TierResidency map into one order-independent
// number.
func tierResidencyHash(res map[string][3]bool) uint64 {
	paths := make([]string, 0, len(res))
	for p := range res {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := fnv.New64a()
	for _, p := range paths {
		fmt.Fprintf(h, "%s=%v\n", p, res[p])
	}
	return h.Sum64()
}

// transferScript replays one fixed script over every replica-creating path
// — creates (cache fills in ModeHDFSCache), moves up and down, copies, a
// node failure with a move and a copy in flight, a detach/attach pair —
// against a backend that fails every Nth write and read, and returns
// everything the script can observe: each operation's outcome and instant,
// the file system's counters and accounting, the engine's event count and
// clock, and the backend's per-tier op and error counts.
func transferScript(t *testing.T, mode Mode, plane storage.DataPlane) string {
	t.Helper()
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{
		Workers: 5, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec(), Plane: plane,
	})
	fs := MustNew(c, Config{Mode: mode, BlockSize: 16 * storage.MB, Seed: 11, ClientRate: 400e6})
	faulty := backend.NewFaulty(&countingBackend{})
	faulty.FailEvery(storage.Memory, backend.OpWrite, 11)
	faulty.FailEvery(storage.SSD, backend.OpWrite, 13)
	faulty.FailEvery(storage.HDD, backend.OpWrite, 23)
	faulty.FailEvery(storage.HDD, backend.OpRead, 5)
	faulty.FailEvery(storage.SSD, backend.OpRead, 4)
	fs.SetBackend(faulty)

	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", e.Now().Sub(sim.Epoch))+fmt.Sprintf(format, args...))
	}
	doneFor := func(what string) func(error) {
		return func(err error) { note("%s done: %v", what, err) }
	}
	move := func(f *File, from, to storage.Media) {
		what := fmt.Sprintf("move %s %s->%s", f.Path(), from, to)
		if err := fs.MoveFileReplicas(f, from, to, doneFor(what)); err != nil {
			note("%s: %v", what, err)
		}
	}
	cp := func(f *File, to storage.Media) {
		what := fmt.Sprintf("copy %s ->%s", f.Path(), to)
		if err := fs.CopyFileReplicas(f, to, doneFor(what)); err != nil {
			note("%s: %v", what, err)
		}
	}

	// A burst of creates, all in flight together.
	for i := 0; i < 12; i++ {
		path := fmt.Sprintf("/p/f%02d", i)
		fs.Create(path, int64(4+5*i)*storage.MB, func(_ *File, err error) {
			note("create %s: %v", path, err)
		})
	}
	e.Run()

	// Moves down and up and copies up, then a read of every block.
	for i, f := range fs.Files() {
		switch i % 4 {
		case 0:
			move(f, storage.Memory, storage.SSD)
		case 1:
			move(f, storage.HDD, storage.Memory)
		case 2:
			cp(f, storage.Memory)
		default:
			move(f, storage.SSD, storage.HDD)
		}
	}
	e.Run()
	for _, f := range fs.Files() {
		for _, b := range f.Blocks() {
			fs.ReadBlock(b, c.Nodes()[0], func(res ReadResult, err error) {
				note("read %d: %+v %v", b.ID(), res, err)
			})
		}
	}
	e.Run()

	// Moves and copies are in flight when a node fails. When room names a
	// node, memory is full on every other one, so moves up to memory leave
	// their source node for it: failing a source node then strands the
	// destination, and failing room loses the destination mid-transfer.
	nodes := append([]*cluster.Node(nil), c.Nodes()...)
	failRound := func(room, lost *cluster.Node) {
		filled := map[*storage.Device]int64{}
		for _, n := range c.Nodes() {
			for _, d := range n.Devices(storage.Memory) {
				if room != nil && n != room && d.Free() > 0 {
					filled[d] = d.Free()
					if err := d.Reserve(d.Free()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for i, f := range fs.Files() {
			switch i % 3 {
			case 0:
				move(f, storage.HDD, storage.Memory)
			case 1:
				cp(f, storage.SSD)
			default:
				move(f, storage.SSD, storage.Memory)
			}
		}
		e.Schedule(2*time.Millisecond, func() {
			removed := fs.FailNode(lost)
			note("fail node %d: %v", lost.ID(), removed)
		})
		e.Run()
		for d, bytes := range filled {
			d.Release(bytes)
		}
	}
	failRound(nil, nodes[1])
	failRound(nodes[4], nodes[2])
	failRound(nodes[4], nodes[4])
	for i, f := range fs.Files() {
		if i%3 == 0 {
			move(f, storage.Memory, storage.HDD)
		}
	}
	e.Run()

	// A detach/attach pair through the same file system.
	for i, f := range fs.Files() {
		if i%3 != 1 {
			continue
		}
		rec, err := fs.SnapshotFile(f)
		if err != nil {
			note("snapshot %s: %v", f.Path(), err)
			continue
		}
		note("detach %s: %v", rec.Path, fs.DetachFile(f))
		_, err = fs.AttachFile(rec)
		note("attach %s: %v", rec.Path, err)
	}
	e.Run()
	if err := fs.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", mode, err)
	}

	var out strings.Builder
	for _, l := range log {
		fmt.Fprintln(&out, l)
	}
	fmt.Fprintf(&out, "stats %+v\n", *fs.Stats())
	fmt.Fprintf(&out, "live %d\n", fs.LiveReplicaBytes())
	for _, m := range storage.AllMedia {
		used, capacity := c.TierUsage(m)
		fmt.Fprintf(&out, "tier %s %d/%d\n", m, used, capacity)
	}
	fmt.Fprintf(&out, "residency %#x\n", tierResidencyHash(fs.TierResidency()))
	fmt.Fprintf(&out, "engine fired %d now %v\n", e.Fired(), e.Now().Sub(sim.Epoch))
	bs := faulty.Stats()
	for _, m := range storage.AllMedia {
		for _, op := range backend.Ops {
			s := bs.PerTier[m].Op(op)
			fmt.Fprintf(&out, "backend %s %s %d err %d\n", m, op, s.Count, s.Errors)
		}
	}
	return out.String()
}

// TestTransferPathPinnedOutcomes holds every replica-creating path — client
// writes, cache fills, moves, copies, attaches, and their unwinds under
// backend faults and node loss — to exact recorded outcomes, so a change to
// the shared reserve/materialize/stream/settle path cannot move any of them
// unnoticed. The hash covers the whole observation; on a mismatch the test
// prints it.
func TestTransferPathPinnedOutcomes(t *testing.T) {
	for _, c := range []struct {
		name  string
		mode  Mode
		plane func() storage.DataPlane
		want  uint64
	}{
		{"octopus", ModeOctopus, func() storage.DataPlane { return nil }, 0xe5101ddad4bc7c42},
		{"octopus-contended", ModeOctopus, func() storage.DataPlane {
			return storage.NewContendedPlane(storage.PlaneConfig{MaxQueue: time.Second})
		}, 0x275d70d83adf6fa6},
		{"hdfs-cache", ModeHDFSCache, func() storage.DataPlane { return nil }, 0xaff02cce5420ecf7},
		{"hdfs-cache-contended", ModeHDFSCache, func() storage.DataPlane {
			return storage.NewContendedPlane(storage.PlaneConfig{MaxQueue: time.Second})
		}, 0xab2a1e48ceec04c8},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := transferScript(t, c.mode, c.plane())
			h := fnv.New64a()
			h.Write([]byte(got))
			if sum := h.Sum64(); sum != c.want {
				t.Errorf("observation hash = %#x, want %#x; observation:\n%s", sum, c.want, got)
			}
		})
	}
}
