package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"octostore/internal/backend"
	"octostore/internal/cluster"
	"octostore/internal/core"
	"octostore/internal/dfs"
	"octostore/internal/gbt"
	"octostore/internal/server"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// Probes time one layer in isolation, through its public functions, after the
// end-to-end numbers were taken. Each is a fixed amount of work on fixed
// inputs, so its number does not depend on the workload it is reported with.

// perOp times n calls of fn and returns the mean in nanoseconds.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

var probeSink int // keeps probe results alive so the calls are not elided

// probeRoute times the static shard-routing hash.
func probeRoute(scale int) float64 {
	dirs := make([]string, 1024)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("/h/d%04d", i)
	}
	return perOp(scale<<14, func(i int) { probeSink += server.RouteShard(dirs[i&1023], shards) })
}

// probeSim times scheduling one event and stepping it.
func probeSim(scale int) float64 {
	n := scale << 12
	engine := sim.NewEngine()
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(time.Hour)))
	}
	start := time.Now()
	for _, d := range delays {
		engine.Schedule(d, func() { probeSink++ })
	}
	for engine.Step() {
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// probeDFS times a create and a tier move on an isolated file system with a
// fresh engine: host nanoseconds per completed operation, engine steps
// included.
func probeDFS(scale int) (createNS, moveNS float64, err error) {
	n := scale << 5
	engine := sim.NewEngine()
	cl, err := cluster.New(engine, cluster.Config{Workers: 4, SlotsPerNode: 4, Spec: nodeSpec(16*1024, 64*1024, 256*1024)})
	if err != nil {
		return 0, 0, err
	}
	fs, err := dfs.New(cl, dfs.Config{Mode: dfs.ModeOctopus, Seed: 1, ClientRate: 2000e6})
	if err != nil {
		return 0, 0, err
	}
	files := make([]*dfs.File, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		fs.Create(fmt.Sprintf("/p/d%02d/f%05d", i%16, i), storage.MB, func(f *dfs.File, err error) {
			if err == nil {
				files = append(files, f)
			}
		})
		engine.RunFor(opGap)
	}
	engine.RunFor(time.Minute)
	if len(files) != n {
		return 0, 0, fmt.Errorf("probe dfs: %d of %d creates completed", len(files), n)
	}
	createNS = float64(time.Since(start).Nanoseconds()) / float64(n)

	moved := 0
	start = time.Now()
	for _, f := range files {
		from, ok := f.HighestTier()
		to, below := from.Below()
		if !ok || !below {
			continue
		}
		if fs.MoveFileReplicas(f, from, to, func(err error) {
			if err == nil {
				moved++
			}
		}) == nil {
			engine.RunFor(opGap)
		}
	}
	engine.RunFor(time.Hour)
	if moved == 0 {
		return 0, 0, fmt.Errorf("probe dfs: no move completed")
	}
	if err := fs.CheckInvariants(); err != nil {
		return 0, 0, fmt.Errorf("probe dfs: %w", err)
	}
	return createNS, float64(time.Since(start).Nanoseconds()) / float64(moved), nil
}

// probeGBT times prediction and incremental update on a fixed synthetic
// matrix shaped like the policies' feature vectors.
func probeGBT(scale int) (predictNS, updateNS float64, err error) {
	const cols, batch = 16, 200
	rows := max(scale<<5, 2*batch)
	rng := rand.New(rand.NewSource(1))
	x := gbt.NewMatrix(cols)
	y := make([]float64, rows)
	row := make([]float64, cols)
	for i := 0; i < rows; i++ {
		var sum float64
		for j := range row {
			row[j] = rng.Float64()
			sum += row[j]
		}
		if rng.Intn(8) == 0 {
			row[cols-1] = gbt.Missing
		}
		x.AppendRow(row)
		if sum > cols/2 {
			y[i] = 1
		}
	}
	model, err := gbt.Train(x, y, gbt.PaperParams())
	if err != nil {
		return 0, 0, err
	}
	var acc float64
	predictNS = perOp(scale<<10, func(i int) { acc += model.Predict(x.Row(i % rows)) })
	probeSink += int(acc)

	bx := gbt.NewMatrix(cols)
	for i := 0; i < batch; i++ {
		bx.AppendRow(x.Row(i))
	}
	updateNS = perOp(8, func(int) {
		if uerr := model.Update(bx, y[:batch], 3); uerr != nil {
			err = uerr
		}
	})
	return predictNS, updateNS, err
}

// probeLedger times one two-phase borrow that is abandoned.
func probeLedger(scale int) float64 {
	l := cluster.NewTierLedger()
	l.AddCapacity(storage.Memory, 64*storage.GB, 32*storage.GB)
	return perOp(scale<<12, func(int) {
		if r, ok := l.Reserve(storage.Memory, 64*storage.MB); ok {
			r.Abort()
		}
	})
}

// probeBackend writes then reads 64 blocks of 1 MB through a real-file
// backend under dir. The numbers are the sandbox's, not a device's.
func probeBackend(dir string) (writeUS, readUS float64, err error) {
	root, err := os.MkdirTemp(dir, "backend-probe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(root)
	local, err := backend.OpenLocal(backend.LocalConfig{Root: filepath.Join(root, "tiers")})
	if err != nil {
		return 0, 0, err
	}
	const blocks = 64
	var wsum, rsum time.Duration
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < blocks; i++ {
			req := backend.Request{Media: storage.SSD, DeviceID: "probe", BlockID: int64(i), Bytes: storage.MB}
			var d time.Duration
			if pass == 0 {
				d, err = local.Write(req)
				wsum += d
			} else {
				d, err = local.Read(req)
				rsum += d
			}
			if err != nil {
				return 0, 0, err
			}
		}
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / blocks }
	return us(wsum), us(rsum), nil
}

// isolatedProbes measures the workload-independent per-layer metrics. They are
// the same whichever workload they are reported with, so a process that
// traces several workloads measures them once (options.isolated).
func isolatedProbes(o options) (map[string]float64, error) {
	scale := 64 // iteration counts are scale << k
	if o.quick {
		scale = 4
	}
	pl := map[string]float64{
		"server.route_ns":           probeRoute(scale),
		"sim.step_ns":               probeSim(scale),
		"cluster.ledger.reserve_ns": probeLedger(scale),
	}
	var err error
	if pl["dfs.create_ns"], pl["dfs.move_ns"], err = probeDFS(scale); err != nil {
		return nil, err
	}
	if pl["gbt.predict_ns"], pl["gbt.update_ns"], err = probeGBT(scale); err != nil {
		return nil, err
	}
	pl["backend.local.write_us"], pl["backend.local.read_us"], err = probeBackend(o.dir)
	return pl, err
}

// fsProbe accumulates the probes that need a populated file system.
type fsProbe struct {
	n                                      int
	recordAccessNS, getFileNS, selectLRUNS float64 // sums over n
}

// probeLimit bounds how many live files one file system's probes touch.
const probeLimit = 20_000

// run probes fs on the goroutine that owns it. getfile and select are
// read-only; RecordAccess is what a drained access event costs and feeds the
// policies like one, which is why it runs after the end-to-end numbers.
func (p *fsProbe) run(fs *dfs.FileSystem, ix *core.CandidateIndex) {
	files := fs.LiveFiles()
	if len(files) > probeLimit {
		files = files[:probeLimit]
	}
	n := len(files)
	if n == 0 {
		return
	}
	ns := fs.Namespace()
	p.getFileNS += float64(n) * perOp(n, func(i int) {
		if f, err := ns.GetFile(files[i].Path()); err == nil {
			probeSink += int(f.ID())
		}
	})
	if ix.HasRecency() {
		p.selectLRUNS += float64(n) * perOp(n, func(int) {
			if f := ix.SelectLRU(storage.Memory); f != nil {
				probeSink += int(f.ID())
			}
		})
	}
	p.recordAccessNS += float64(n) * perOp(n, func(i int) { fs.RecordAccess(files[i]) })
	p.n += n
}

func (p *fsProbe) fill(pl map[string]float64) {
	if p.n == 0 {
		return
	}
	pl["core.record_access_ns"] = p.recordAccessNS / float64(p.n)
	pl["dfs.namespace.getfile_ns"] = p.getFileNS / float64(p.n)
	pl["core.index.select_lru_ns"] = p.selectLRUNS / float64(p.n)
}
