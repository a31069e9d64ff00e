package loadgen

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path"

	"octostore/internal/dfs"
	"octostore/internal/server"
	"octostore/internal/storage"
	"octostore/internal/workload"
)

// population is the staged file set the generators draw from. The hot
// subtree (-hotdir) is the tail files[hotStart:], living in hotDirs.
type population struct {
	files    []workload.FileSpec
	hotStart int
	hotDirs  []string
}

func newPopulation(files, hot []workload.FileSpec, hotDirs []string) *population {
	return &population{files: append(files, hot...), hotStart: len(files), hotDirs: hotDirs}
}

// generatedFiles stages file specs for the driver's own world (no scenario).
// fb and cmu draw path/size shapes from the internal/workload profiles;
// fixed is -files uniform files of -filesize MB, generated locally because
// the bin-profile generators are needlessly slow at million-file scale.
func generatedFiles(c *Config) []workload.FileSpec {
	if c.Workload == "fixed" {
		files := make([]workload.FileSpec, c.Files)
		for i := range files {
			files[i] = workload.FileSpec{
				Path: fmt.Sprintf("/load/d%04d/f%07d", i/1024, i),
				Size: c.FileSizeMB * storage.MB,
			}
		}
		return files
	}
	p := workload.FB()
	if c.Workload == "cmu" {
		p = workload.CMU()
	}
	p.NumJobs = c.Files
	// Cap at bin D so single files fit the load cluster's SSD tier.
	files := workload.Generate(workload.CapProfile(p, workload.BinD), c.Seed).Files
	// The generators put the whole population in one directory per bin, and
	// the server routes by parent directory: left alone, a -shards 4 run
	// serves from one or two shards. Fan each bin out into hashed
	// subdirectories so the population spreads across shard loops.
	const fanout = 16
	for i := range files {
		dir, name := path.Split(files[i].Path)
		h := fnv.New32a()
		h.Write([]byte(name))
		files[i].Path = fmt.Sprintf("%sh%02d/%s", dir, h.Sum32()%fanout, name)
	}
	return files
}

// hotFiles stages the hot subtree for -hotdir: directories under /hot chosen
// (by probing the exported routing hash) so every one of them lands on the
// SAME shard under static routing — the layout that pins one shard loop
// while the others idle. The dirs are individually migratable, so the
// rebalancer can drain the hot shard one subtree at a time. The generators
// concentrate both reads and creates there: a hot subtree in a real cluster
// is an active job's working set, and takes writes, not just reads.
func hotFiles(c *Config) (specs []workload.FileSpec, dirs []string) {
	if c.HotDir <= 0 {
		return nil, nil
	}
	const hotDirs = 8
	perDir := c.Files / (4 * hotDirs)
	if perDir < 4 {
		perDir = 4
	}
	target := -1
	for i := 0; len(dirs) < hotDirs && i < 10000; i++ {
		dir := fmt.Sprintf("/hot/d%03d", i)
		if target == -1 {
			target = server.RouteShard(dir, c.Shards)
		}
		if server.RouteShard(dir, c.Shards) != target {
			continue
		}
		for f := 0; f < perDir; f++ {
			specs = append(specs, workload.FileSpec{Path: fmt.Sprintf("%s/f%04d", dir, f), Size: 8 * storage.MB})
		}
		dirs = append(dirs, dir)
	}
	return specs, dirs
}

type opKind uint8

const (
	opAccess opKind = iota
	opStat
	opCreate
	opDelete
)

// serverKind is the kind of the server.Op that carries k. opStat has none: a stat
// is the server's stripe-only Stat call, not an Op.
func (k opKind) serverKind() server.OpKind {
	switch k {
	case opCreate:
		return server.OpCreate
	case opDelete:
		return server.OpDelete
	}
	return server.OpAccess
}

// op is one generated client operation.
type op struct {
	kind opKind
	path string
	size int64 // creates only
}

// generator is the one source of client ops: both arrival processes draw
// from it. The sequence next returns is a pure function of the seed and of
// the outcomes fed back through done. A generator creates under its own
// scratch directory and deletes only files it created, so generators never
// race each other on a path.
type generator struct {
	cfg     *Config
	pop     *population
	id      int
	scratch string // the directory its unskewed creates go to
	rng     *rand.Rand
	zipf    *rand.Zipf
	hotZipf *rand.Zipf // nil without -hotdir
	own     []string   // files this generator created and has not deleted
	created int
}

func newGenerator(c *Config, pop *population, id int, seed int64) *generator {
	g := &generator{cfg: c, pop: pop, id: id, scratch: fmt.Sprintf("/scratch/c%d", id), rng: rand.New(rand.NewSource(seed))}
	g.zipf = rand.NewZipf(g.rng, c.Zipf, 1, uint64(len(pop.files)-1))
	if len(pop.hotDirs) > 0 {
		g.hotZipf = rand.NewZipf(g.rng, c.Zipf, 1, uint64(len(pop.files)-pop.hotStart-1))
	}
	return g
}

// hot decides whether this op goes to the hot subtree. It draws from the rng
// only on -hotdir runs, so the unskewed sequence does not depend on the flag.
func (g *generator) hot() bool {
	return g.hotZipf != nil && g.rng.Float64() < g.cfg.HotDir
}

func (g *generator) next() op {
	switch r := g.rng.Float64(); {
	case r < g.cfg.ReadFrac:
		if g.hot() {
			return op{kind: opAccess, path: g.pop.files[g.pop.hotStart+int(g.hotZipf.Uint64())].Path}
		}
		return op{kind: opAccess, path: g.pop.files[g.zipf.Uint64()].Path}
	case r < g.cfg.ReadFrac+g.cfg.StatFrac:
		return op{kind: opStat, path: g.pop.files[g.rng.Intn(len(g.pop.files))].Path}
	case g.rng.Float64() < 0.5 || len(g.own) == 0:
		dir := g.scratch
		if g.hot() {
			// The active job writes into its own hot subtree; under static
			// routing every one of these creates serializes on the single
			// shard loop the subtree hashes to.
			dir = g.pop.hotDirs[g.rng.Intn(len(g.pop.hotDirs))]
		}
		g.created++
		return op{
			kind: opCreate,
			path: fmt.Sprintf("%s/c%d-f%06d", dir, g.id, g.created),
			size: (4 + g.rng.Int63n(60)) * storage.MB,
		}
	default:
		return op{kind: opDelete, path: g.own[len(g.own)-1]}
	}
}

// done feeds an op's outcome back: a committed create joins the own list, a
// delete leaves it — unless the server refused it as busy (expected while a
// move of the file is in flight), in which case the file still exists and
// stays owned, to be retried by a later delete.
func (g *generator) done(o op, err error) {
	switch {
	case o.kind == opCreate && err == nil:
		g.own = append(g.own, o.path)
	case o.kind == opDelete && !errors.Is(err, dfs.ErrBusy):
		g.own = g.own[:len(g.own)-1]
	}
}
