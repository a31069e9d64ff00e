package dfs

import (
	"fmt"
	"os"
	"testing"

	"octostore/internal/cluster"
	"octostore/internal/sim"
	"octostore/internal/storage"
)

// benchFileCount returns the namespace population for benchmarks: 20k files
// by default, 1M under OCTOSTORE_BENCH_FULL=1 (the scale target the
// scenario replayer optimizes for).
func benchFileCount() int {
	if os.Getenv("OCTOSTORE_BENCH_FULL") != "" {
		return 1_000_000
	}
	return 20_000
}

// buildBenchNamespace populates a namespace with a realistic directory
// shape: /data/<dir>/<subdir>/f<i>, 100 files per subdirectory.
func buildBenchNamespace(n int) (*Namespace, []string) {
	ns := NewNamespace()
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		paths[i] = fmt.Sprintf("/data/d%03d/s%02d/f%06d", i/1000, (i/100)%10, i)
		if err := ns.insertFile(paths[i], &File{id: FileID(i), path: paths[i]}); err != nil {
			panic(err)
		}
	}
	return ns, paths
}

// BenchmarkNamespaceLookup measures path resolution, the hottest namespace
// operation (every Open, create and unlink walks a path), as GetFile on
// canonical paths. The in-place component walk keeps it allocation-free.
func BenchmarkNamespaceLookup(b *testing.B) {
	ns, paths := buildBenchNamespace(benchFileCount())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ns.GetFile(paths[i%len(paths)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileScan compares the two ways the replication manager can
// enumerate files each tick: the sorted namespace walk (Files) versus the
// flat live index (LiveFiles) the per-tick selection scan now uses.
func BenchmarkFileScan(b *testing.B) {
	e := sim.NewEngine()
	c := cluster.MustNew(e, cluster.Config{Workers: 3, SlotsPerNode: 2, Spec: storage.SmallWorkerSpec()})
	fs := MustNew(c, Config{Mode: ModeOctopus, BlockSize: 8 * storage.MB, Seed: 1})
	// A modest population with real replicas so HasReplicaOn has work to do.
	for i := 0; i < 64; i++ {
		fs.Create(fmt.Sprintf("/bench/d%d/f%03d", i/16, i), 8*storage.MB, nil)
	}
	e.Run()

	b.Run("walk-sorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, f := range fs.Files() {
				if f.HasReplicaOn(storage.Memory) {
					n++
				}
			}
		}
	})
	b.Run("live-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, f := range fs.LiveFiles() {
				if f.HasReplicaOn(storage.Memory) {
					n++
				}
			}
		}
	})
}
