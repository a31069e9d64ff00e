package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"octostore/internal/eval"
	"octostore/internal/ml"
	"octostore/internal/workload"
)

func fastOpts() Options { return Options{Fast: true, Seed: 1} }

func TestIDsAndGet(t *testing.T) {
	ids := IDs()
	// 16 paper artifacts (Figures 2, 5-17 and Tables 3-4 share some ids),
	// the Section 7.7 overheads report, and the tier-aware extension.
	if len(ids) != 19 {
		t.Fatalf("experiments registered = %d, want 19", len(ids))
	}
	for _, id := range ids {
		if _, err := Get(id); err != nil {
			t.Fatalf("Get(%q): %v", id, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// goldenPath is `octobench -exp all -fast` with every "-- id completed in
// …" line cut to "-- id --" and the two wall-clock rows of overheads masked
// by wallClockRow. Regenerate it after an intended output change with
//
//	go run ./cmd/octobench -exp all -fast | sed -E \
//	  -e 's/^-- ([a-z0-9]+) completed in .* --$/-- \1 --/' \
//	  -e 's/^(avg time per (training sample|prediction) +).*$/\1<wall-clock>/' \
//	  > internal/experiments/testdata/fast_seed1.golden
const goldenPath = "testdata/fast_seed1.golden"

var (
	wallClockRow  = regexp.MustCompile(`(?m)^(avg time per (?:training sample|prediction) +).*$`)
	goldenSection = regexp.MustCompile(`(?m)^-- (\S+) --\n\n`)
)

// renderTables prints tables the way octobench does.
func renderTables(tables []*eval.Table) string {
	var sb strings.Builder
	for _, tbl := range tables {
		tbl.Fprint(&sb)
		sb.WriteString("\n")
	}
	return sb.String()
}

// goldenSections splits the golden file into each experiment's output,
// keyed by id.
func goldenSections(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := string(raw)
	sections := map[string]string{}
	from := 0
	for _, m := range goldenSection.FindAllStringSubmatchIndex(golden, -1) {
		sections[golden[m[2]:m[3]]] = golden[from:m[1]]
		from = m[1]
	}
	if from != len(golden) {
		t.Fatalf("%s: trailing bytes after the last section", goldenPath)
	}
	return sections
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}

// TestAllExperimentsRunFast renders every experiment at fastOpts, checks
// each table's shape and holds the rendering byte for byte to the golden
// file: a refactor of the harness must not move one printed digit.
func TestAllExperimentsRunFast(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in non-short mode only")
	}
	sections := goldenSections(t)
	if len(sections) != len(IDs()) {
		t.Errorf("golden file has %d sections, want %d", len(sections), len(IDs()))
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			runner, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			tables, err := runner(fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tbl := range tables {
				if tbl.ID == "" || tbl.Title == "" || len(tbl.Header) == 0 {
					t.Fatalf("malformed table %+v", tbl)
				}
				if len(tbl.Rows) == 0 {
					t.Fatalf("table %s has no rows", tbl.ID)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Fatalf("table %s row width %d != header %d", tbl.ID, len(row), len(tbl.Header))
					}
				}
			}
			got := wallClockRow.ReplaceAllString(renderTables(tables), "${1}<wall-clock>") +
				fmt.Sprintf("-- %s --\n\n", id)
			if want := sections[id]; got != want {
				t.Errorf("%s differs from %s at %s", id, goldenPath, firstDiff(got, want))
			}
		})
	}
}

// TestParallelRunsAreDeterministic is the harness-parallelism acceptance
// check: every experiment cell is an isolated deterministic simulation, so
// the rendered tables must be byte-identical whether the cells ran
// sequentially or fanned out across a worker pool. It compares text, not
// cell values: a NaN cell is equal to itself on the page but not as a
// float.
func TestParallelRunsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replays in non-short mode only")
	}
	runTables := func(parallel int) []*eval.Table {
		o := fastOpts()
		o.Parallel = parallel
		tables, err := Scenarios(o)
		if err != nil {
			t.Fatalf("scenarios with parallel=%d: %v", parallel, err)
		}
		return tables
	}
	sequential, parallel := renderTables(runTables(1)), renderTables(runTables(4))
	if sequential != parallel {
		t.Errorf("scenario tables diverged between sequential and parallel runs at %s", firstDiff(parallel, sequential))
	}
}

// TestModelSweepsParallelDeterministic extends the parallelism acceptance
// check to the fig14-17 model sweeps: the train-and-score cells share only
// read-only traces, so fanning them out must not change a byte of output.
func TestModelSweepsParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("model training in non-short mode only")
	}
	for _, id := range []string{"fig14", "fig15", "fig16", "fig17"} {
		runner, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		run := func(parallel int) []*eval.Table {
			o := fastOpts()
			o.Parallel = parallel
			tables, err := runner(o)
			if err != nil {
				t.Fatalf("%s with parallel=%d: %v", id, parallel, err)
			}
			return tables
		}
		if sequential, parallel := renderTables(run(1)), renderTables(run(4)); sequential != parallel {
			t.Errorf("%s diverged between sequential and parallel runs at %s", id, firstDiff(parallel, sequential))
		}
	}
}

func TestFig6XGBBeatsBaselineOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end comparison in non-short mode only")
	}
	tables, err := Fig6CompletionTime(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	fb := tables[0]
	// Locate the XGB and OctopusFS rows and compare their mean reduction
	// across non-empty bins: automated movement should beat static
	// placement overall.
	mean := func(rowName string) float64 {
		for _, row := range fb.Rows {
			if row[0].Text != rowName {
				continue
			}
			sum, n := 0.0, 0
			for _, cell := range row[1:] {
				if v := cell.Value; v != 0 {
					sum += v
					n++
				}
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		}
		t.Fatalf("row %q missing", rowName)
		return 0
	}
	xgb := mean("XGB")
	if xgb <= 0 {
		t.Fatalf("XGB mean reduction = %.3f, want positive", xgb)
	}
}

func TestTable3BinSharesSumToOne(t *testing.T) {
	if testing.Short() {
		t.Skip("uses cached end-to-end runs")
	}
	tables, err := Table3JobBins(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	perWorkload := map[string]float64{}
	for _, row := range tbl.Rows {
		perWorkload[row[0].Text] += row[3].Value
	}
	for wl, sum := range perWorkload {
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s job shares sum to %.3f", wl, sum)
		}
	}
}

func TestCollectSamplesShape(t *testing.T) {
	o := fastOpts()
	p, err := o.profile("fb")
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Generate(p, 1)
	downW, _ := o.modelWindows()
	spec := defaultSampleParams(ml.DefaultFeatureSpec(), downW, o)
	samples := collectSamples(tr, spec)
	if len(samples) < 50 {
		t.Fatalf("samples = %d, want a meaningful dataset", len(samples))
	}
	var pos int
	for _, s := range samples {
		if len(s.x) != spec.spec.Width() {
			t.Fatalf("sample width %d", len(s.x))
		}
		if s.y == 1 {
			pos++
		}
		if s.at < 0 || s.at > tr.Duration {
			t.Fatalf("sample time %v outside trace", s.at)
		}
	}
	if pos == 0 || pos == len(samples) {
		t.Fatalf("degenerate labels: %d positives of %d", pos, len(samples))
	}
}

// TestOverheadsTrackerFootprintCoversEveryFile: the Section 7.7 per-file
// tracker footprint books each job's access on that job's input file, so a
// file n jobs read holds at least min(n, K) access slots on top of the
// fixed record. Booking every access on one file reads as the bare record.
func TestOverheadsTrackerFootprintCoversEveryFile(t *testing.T) {
	o := fastOpts()
	tables, err := OverheadsReport(o)
	if err != nil {
		t.Fatal(err)
	}
	perFile := -1.0
	for _, row := range tables[0].Rows {
		if row[0].Text == "tracker bytes per file" {
			perFile = row[1].Value
		}
	}
	// The fixed record and one access slot, measured on a fresh tracker.
	k := ml.DefaultFeatureSpec().K
	probe := ml.NewTracker(k)
	rec := probe.OnCreate(0, 0, 0, epoch())
	fixed := rec.FootprintBytes()
	probe.OnAccess(0, 0, epoch())
	slot := rec.FootprintBytes() - fixed

	p, err := o.profile("fb")
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Generate(p, o.Seed)
	reads := map[string]int{}
	for _, f := range tr.Files {
		reads[f.Path] = 0
	}
	for _, j := range tr.Jobs {
		if n, ok := reads[j.InputPath]; ok {
			reads[j.InputPath] = n + 1
		}
	}
	slots := 0
	for _, n := range reads {
		if n > k {
			n = k
		}
		slots += n
	}
	if min := fixed + slot*slots/len(tr.Files); perFile < float64(min) {
		t.Fatalf("tracker bytes per file = %v, want at least %d (%d-byte record, %d-byte slots, %d slots over %d files)",
			perFile, min, fixed, slot, slots, len(tr.Files))
	}
}

// TestOverheadsClockCoversTheLastUpdate: the Section 7.7 training clock runs
// until the learner is done with the samples. The stream ends on the Add that
// starts an update, which then runs beside the caller; every moment of the
// learner's training time lies between the first Add and the join, so all of
// it must fit inside the clock.
func TestOverheadsClockCoversTheLastUpdate(t *testing.T) {
	spec := ml.DefaultFeatureSpec()
	cfg := ml.DefaultLearnerConfig()
	cfg.MinTrainSamples, cfg.UpdateBatch = 100, 3000
	rng := rand.New(rand.NewSource(3))
	samples := make([]mlSample, cfg.MinTrainSamples+cfg.UpdateBatch)
	for i := range samples {
		x := make([]float64, spec.Width())
		for j := range x {
			x[j] = rng.Float64()
		}
		samples[i] = mlSample{x: x, y: float64(rng.Intn(2))}
	}
	learner := ml.NewLearner(spec.Width(), cfg)
	elapsed := timeTraining(learner, samples)
	if learner.Trainings() != 1 || learner.Updates() != 1 {
		t.Fatalf("%d trainings and %d updates; the stream should end on the Add that starts the one update", learner.Trainings(), learner.Updates())
	}
	if train := learner.TrainTime(); elapsed < train {
		t.Fatalf("the clock stopped at %v, before the learner's %v of training was done", elapsed, train)
	}
}
