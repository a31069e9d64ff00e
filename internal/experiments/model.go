package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"octostore/internal/eval"
	"octostore/internal/gbt"
	"octostore/internal/ml"
	"octostore/internal/storage"
	"octostore/internal/workload"
)

// mlSample is one labelled training point with its generation time.
type mlSample struct {
	x  []float64
	y  float64
	at time.Duration
}

// sampleParams controls offline dataset construction from a trace.
type sampleParams struct {
	spec     ml.FeatureSpec
	window   time.Duration
	period   time.Duration // periodic sampling interval
	fraction float64       // fraction of files sampled per period
	seed     int64
}

func defaultSampleParams(spec ml.FeatureSpec, window time.Duration, o Options) sampleParams {
	return sampleParams{
		spec:     spec,
		window:   window,
		period:   3 * time.Minute,
		fraction: 0.20,
		seed:     o.Seed,
	}
}

// collectSamples replays a trace through a tracker and generates training
// points the way the live system does (Section 4.2): periodically for a
// sample of the files, plus one guaranteed-positive point right after each
// access.
func collectSamples(tr *workload.Trace, p sampleParams) []mlSample {
	tracker := ml.NewTracker(p.spec.K)
	rng := rand.New(rand.NewSource(p.seed))
	pipe := ml.Pipeline{Spec: p.spec, Window: p.window}

	// Timeline events: file creations, accesses (job arrivals), periodic
	// sampling boundaries.
	type event struct {
		at     time.Duration
		kind   int // 0 create, 1 access, 2 periodic
		size   int64
		fileID int64
	}
	var events []event
	for i, f := range tr.Files {
		events = append(events, event{at: f.CreatedAt, kind: 0, size: f.Size, fileID: int64(i)})
	}
	ids := fileIDs(tr)
	for _, j := range tr.Jobs {
		if id, ok := ids[j.InputPath]; ok {
			events = append(events, event{at: j.Arrival, kind: 1, fileID: id})
		}
	}
	for t := p.period; t <= tr.Duration; t += p.period {
		events = append(events, event{at: t, kind: 2})
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return events[a].kind < events[b].kind
	})

	var samples []mlSample
	sample := func(rec *ml.FileRecord, now time.Duration) {
		ref := now - p.window
		if ref < 0 {
			return
		}
		refT := epoch().Add(ref)
		if rec.Created.After(refT) {
			return
		}
		x, y := pipe.TrainingPoint(rec, refT)
		samples = append(samples, mlSample{x: x, y: y, at: now})
	}
	for _, ev := range events {
		switch ev.kind {
		case 0:
			tracker.OnCreate(int32(ev.fileID), ev.fileID, ev.size, epoch().Add(ev.at))
		case 1:
			rec := tracker.OnAccess(int32(ev.fileID), ev.fileID, epoch().Add(ev.at))
			sample(rec, ev.at)
		case 2:
			// Deterministic iteration: tracker.Each order is random, so
			// walk ids in order.
			for id := int64(0); id < int64(len(tr.Files)); id++ {
				if rng.Float64() >= p.fraction {
					continue
				}
				if rec, ok := tracker.Get(int32(id), id); ok {
					sample(rec, ev.at)
				}
			}
		}
	}
	return samples
}

// fileIDs numbers the trace's files by position, keyed by path so that a
// job's InputPath finds the id its file was tracked under. Every file of a
// trace stays live, so the position is also the file's tracker slot.
func fileIDs(tr *workload.Trace) map[string]int64 {
	ids := make(map[string]int64, len(tr.Files))
	for i, f := range tr.Files {
		ids[f.Path] = int64(i)
	}
	return ids
}

func epoch() time.Time { return time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC) }

// splitSamples partitions samples by time fraction boundaries.
func splitSamples(samples []mlSample, total time.Duration, trainFrac, valFrac float64) (train, val, test []mlSample) {
	trainEnd := time.Duration(trainFrac * float64(total))
	valEnd := time.Duration((trainFrac + valFrac) * float64(total))
	for _, s := range samples {
		switch {
		case s.at <= trainEnd:
			train = append(train, s)
		case s.at <= valEnd:
			val = append(val, s)
		default:
			test = append(test, s)
		}
	}
	return
}

func toMatrix(samples []mlSample, width int) (*gbt.Matrix, []float64) {
	x := gbt.NewMatrix(width)
	y := make([]float64, 0, len(samples))
	for _, s := range samples {
		x.AppendRow(s.x)
		y = append(y, s.y)
	}
	return x, y
}

// score runs m over samples: its predictions and the samples' labels.
func score(m *gbt.Model, samples []mlSample) (scores, labels []float64) {
	for _, s := range samples {
		scores = append(scores, m.Predict(s.x))
		labels = append(labels, s.y)
	}
	return scores, labels
}

// trainAndScore is one offline model cell (Figures 14 and 15): sample tr
// under spec with the given class window, split 4/6 train, 1/6 validation
// (folded back into training after tuning), 1/6 test, fit the paper's
// model and score the test split. It returns the sample count, the test
// AUC and the accuracy at 0.5.
func trainAndScore(tr *workload.Trace, spec ml.FeatureSpec, window time.Duration, o Options) (n int, auc, acc eval.Cell, err error) {
	samples := collectSamples(tr, defaultSampleParams(spec, window, o))
	train, val, test := splitSamples(samples, tr.Duration, 4.0/6, 1.0/6)
	train = append(train, val...)
	if len(train) == 0 || len(test) == 0 {
		return 0, auc, acc, fmt.Errorf("empty split")
	}
	xTrain, yTrain := toMatrix(train, spec.Width())
	model, err := gbt.Train(xTrain, yTrain, gbt.PaperParams())
	if err != nil {
		return 0, auc, acc, err
	}
	scores, labels := score(model, test)
	return len(samples), eval.F2(eval.AUC(scores, labels)), eval.Pct(eval.Accuracy(scores, labels, 0.5)), nil
}

// modelWindows returns the (downgrade, upgrade) class windows used by the
// offline model experiments, scaled in Fast mode.
func (o Options) modelWindows() (down, up time.Duration) {
	if o.Fast {
		return 45 * time.Minute, 10 * time.Minute
	}
	return 90 * time.Minute, 15 * time.Minute
}

// Fig14ROC regenerates Figure 14: ROC/AUC for the XGB downgrade and
// upgrade models on both workloads, with a 4h/1h/1h-style
// train/validation/test split (Section 7.6). The four (workload, model)
// sweeps are independent train-and-score cells, fanned out across
// Options.Parallel workers with byte-identical tables at any level.
func Fig14ROC(o Options) ([]*eval.Table, error) {
	o.applyDefaults()
	downW, upW := o.modelWindows()
	type cell struct {
		wl     string
		model  string
		window time.Duration
	}
	var cells []cell
	for _, wl := range []string{"fb", "cmu"} {
		cells = append(cells, cell{wl, "downgrade", downW}, cell{wl, "upgrade", upW})
	}
	rows := make([][]eval.Cell, len(cells))
	err := runCells(o.parallelism(), len(cells), func(i int) error {
		c := cells[i]
		p, err := o.profile(c.wl)
		if err != nil {
			return err
		}
		tr := workload.Generate(p, o.Seed)
		n, auc, acc, err := trainAndScore(tr, ml.DefaultFeatureSpec(), c.window, o)
		if err != nil {
			return fmt.Errorf("fig14 (%s/%s): %w", c.wl, c.model, err)
		}
		rows[i] = []eval.Cell{text(tr.Name), text(c.model), text(n), auc, acc}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []*eval.Table{{
		ID:     "fig14",
		Title:  "XGB model ROC evaluation (train 4/6, validate 1/6, test 1/6)",
		Header: []string{"Workload", "Model", "Samples", "Test AUC", "Accuracy@0.5"},
		Rows:   rows,
	}}, nil
}

// Fig15FeatureAblation regenerates Figure 15: ROC/AUC of the FB downgrade
// model with selected features removed or the access-history length varied.
func Fig15FeatureAblation(o Options) ([]*eval.Table, error) {
	o.applyDefaults()
	downW, _ := o.modelWindows()
	p, err := o.profile("fb")
	if err != nil {
		return nil, err
	}
	tr := workload.Generate(p, o.Seed)
	variants := []struct {
		name string
		spec ml.FeatureSpec
	}{
		{"with 12 accesses (default)", ml.DefaultFeatureSpec()},
		{"without filesize", func() ml.FeatureSpec { s := ml.DefaultFeatureSpec(); s.UseSize = false; return s }()},
		{"without creation", func() ml.FeatureSpec { s := ml.DefaultFeatureSpec(); s.UseCreation = false; return s }()},
		{"with 6 accesses", func() ml.FeatureSpec { s := ml.DefaultFeatureSpec(); s.K = 6; return s }()},
		{"with 18 accesses", func() ml.FeatureSpec { s := ml.DefaultFeatureSpec(); s.K = 18; return s }()},
	}
	// Each ablation variant re-collects and re-trains over the shared
	// read-only trace: independent cells, fanned out.
	rows := make([][]eval.Cell, len(variants))
	err = runCells(o.parallelism(), len(variants), func(i int) error {
		_, auc, acc, err := trainAndScore(tr, variants[i].spec, downW, o)
		if err != nil {
			return fmt.Errorf("fig15 (%s): %w", variants[i].name, err)
		}
		rows[i] = []eval.Cell{text(variants[i].name), auc, acc}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []*eval.Table{{
		ID:     "fig15",
		Title:  "Feature ablation for the FB downgrade model",
		Header: []string{"Variant", "Test AUC", "Accuracy@0.5"},
		Rows:   rows,
	}}, nil
}

// Fig16LearningModes regenerates Figure 16: prediction accuracy over time
// for incremental learning, hourly retraining, and one-shot training, on
// an FB workload whose access patterns drift between segments.
func Fig16LearningModes(o Options) ([]*eval.Table, error) {
	o.applyDefaults()
	downW, _ := o.modelWindows()
	segments := 6
	segLen := time.Hour
	if o.Fast {
		segments = 3
	}
	// The class window must fit inside the first segment, or sliding the
	// reference time one window back yields nothing to train on.
	window := downW
	if window > segLen/2 {
		window = segLen / 2
	}
	// The paper's premise is that access patterns evolve as users and jobs
	// come and go (Section 4). Model that drift by alternating the FB
	// profile with a shifted variant whose reuse structure differs
	// (periodic re-scans instead of short-term locality): a one-shot model
	// trained on hour 1 faces genuinely different patterns later.
	fb := workload.FB()
	drifted := workload.FB()
	drifted.Name = "FBdrift"
	drifted.TemporalLocality = 0.05
	drifted.PeriodicFraction = 0.70
	drifted.ScanPeriodMin = 40 * time.Minute
	drifted.ScanPeriodMax = 100 * time.Minute
	tr := workload.GenerateEvolving([]workload.Profile{fb, drifted}, segLen, segments, o.Seed)
	spec := ml.DefaultFeatureSpec()
	sp := defaultSampleParams(spec, window, o)
	if o.Fast {
		sp.period = 2 * time.Minute
	}
	samples := collectSamples(tr, sp)

	// Bucket samples per segment.
	buckets := make([][]mlSample, segments)
	for _, s := range samples {
		idx := int(s.at / segLen)
		if idx >= segments {
			idx = segments - 1
		}
		buckets[idx] = append(buckets[idx], s)
	}
	if len(buckets[0]) == 0 {
		return nil, fmt.Errorf("fig16: no samples in first segment")
	}

	params := gbt.PaperParams()
	params.MaxTrees = 300
	// The three learning modes are independent model sweeps over the shared
	// read-only buckets: each trains its own hour-1 model (gbt.Train is
	// deterministic, so the incremental and one-shot starting points are
	// identical to the sequential formulation) and walks the segments
	// measure-then-train. Fan them out as cells.
	accs := make([][]float64, 3) // [mode][hour-1] accuracy; NaN-free, gaps skipped below
	err := runCells(o.parallelism(), 3, func(mode int) error {
		x0, y0 := toMatrix(buckets[0], spec.Width())
		model, err := gbt.Train(x0, y0, params)
		if err != nil {
			return err
		}
		acc := make([]float64, segments)
		for h := 1; h < segments; h++ {
			bucket := buckets[h]
			if len(bucket) == 0 {
				continue
			}
			// Accuracy is measured on fresh samples before they are trained
			// on.
			scores, labels := score(model, bucket)
			acc[h] = eval.Accuracy(scores, labels, 0.5)
			xb, yb := toMatrix(bucket, spec.Width())
			switch mode {
			case 0: // incremental: update with this segment's samples
				if err := model.Update(xb, yb, 10); err != nil {
					return err
				}
			case 1: // retrain: fresh model on this segment only
				if m, err := gbt.Train(xb, yb, params); err == nil {
					model = m
				}
			case 2: // one-shot: hour-1 model used unchanged
			}
		}
		accs[mode] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &eval.Table{
		ID:     "fig16",
		Title:  "Prediction accuracy over time: incremental vs retrain vs one-shot (FB with drift)",
		Header: []string{"Hour", "Incremental", "Retrain hourly", "One-shot"},
	}
	for h := 1; h < segments; h++ {
		if len(buckets[h]) == 0 {
			continue
		}
		t.AddRow(text(h+1),
			eval.Pct(accs[0][h]), eval.Pct(accs[1][h]), eval.Pct(accs[2][h]))
	}
	return []*eval.Table{t}, nil
}

// Fig17WorkloadSwitch regenerates Figure 17: incremental-model accuracy
// while the workload alternates between FB and CMU at three switching
// frequencies. Accuracy dips at each switch and the dips shrink as the
// model has seen both workloads.
func Fig17WorkloadSwitch(o Options) ([]*eval.Table, error) {
	o.applyDefaults()
	downW, _ := o.modelWindows()
	totalSegments := map[string]struct {
		segLen   time.Duration
		segments int
	}{
		"switch 6h":   {6 * time.Hour, 2},
		"switch 3h":   {3 * time.Hour, 4},
		"switch 1.5h": {90 * time.Minute, 8},
	}
	if o.Fast {
		totalSegments = map[string]struct {
			segLen   time.Duration
			segments int
		}{
			"switch 1h":  {time.Hour, 2},
			"switch 30m": {30 * time.Minute, 4},
		}
	}
	names := make([]string, 0, len(totalSegments))
	for name := range totalSegments {
		names = append(names, name)
	}
	sort.Strings(names)

	// Each switching frequency is an independent generate-sample-train
	// sweep; fan them out and assemble rows in the stable name order.
	spec := ml.DefaultFeatureSpec()
	rowsByName := make([][][]eval.Cell, len(names))
	err := runCells(o.parallelism(), len(names), func(i int) error {
		name := names[i]
		cfg := totalSegments[name]
		tr := workload.GenerateEvolving(
			[]workload.Profile{workload.FB(), workload.CMU()}, cfg.segLen, cfg.segments, o.Seed)
		sp := defaultSampleParams(spec, downW, o)
		samples := collectSamples(tr, sp)
		// Evaluate in fixed windows, training incrementally afterwards.
		window := cfg.segLen / 2
		nWindows := int(tr.Duration / window)
		var model *gbt.Model
		params := gbt.PaperParams()
		params.MaxTrees = 300
		cursor := 0
		var rows [][]eval.Cell
		for w := 0; w < nWindows; w++ {
			hi := cursor
			limit := time.Duration(w+1) * window
			for hi < len(samples) && samples[hi].at <= limit {
				hi++
			}
			bucket := samples[cursor:hi]
			cursor = hi
			if len(bucket) == 0 {
				continue
			}
			if model != nil {
				scores, labels := score(model, bucket)
				rows = append(rows, []eval.Cell{text(name),
					num("%5.1fh", (time.Duration(w+1) * window).Hours()),
					eval.Pct(eval.Accuracy(scores, labels, 0.5))})
			}
			xb, yb := toMatrix(bucket, spec.Width())
			if model == nil {
				if m, err := gbt.Train(xb, yb, params); err == nil {
					model = m
				}
			} else if err := model.Update(xb, yb, 6); err != nil {
				return err
			}
		}
		rowsByName[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &eval.Table{
		ID:     "fig17",
		Title:  "Incremental accuracy while alternating FB and CMU workloads",
		Header: []string{"Variation", "Window", "Accuracy"},
	}
	for _, rows := range rowsByName {
		t.Rows = append(t.Rows, rows...)
	}
	return []*eval.Table{t}, nil
}

// timeTraining feeds the samples to the learner and returns the wall time
// until it is done with them. The learner boosts beside its caller, so the
// last Add may return with an update in flight; the clock stops once Flush
// has published it.
func timeTraining(learner *ml.Learner, samples []mlSample) time.Duration {
	start := time.Now()
	for _, s := range samples {
		learner.Add(s.x, s.y)
	}
	learner.Flush()
	return time.Since(start)
}

// OverheadsReport regenerates the Section 7.7 numbers: time to add a
// training sample, time per prediction, model memory, and per-file
// metadata footprint.
func OverheadsReport(o Options) ([]*eval.Table, error) {
	o.applyDefaults()
	downW, _ := o.modelWindows()
	p, err := o.profile("fb")
	if err != nil {
		return nil, err
	}
	tr := workload.Generate(p, o.Seed)
	spec := ml.DefaultFeatureSpec()
	samples := collectSamples(tr, defaultSampleParams(spec, downW, o))
	if len(samples) < 100 {
		return nil, fmt.Errorf("overheads: too few samples (%d)", len(samples))
	}
	// Training cost: amortised per sample via the incremental learner.
	lcfg := ml.DefaultLearnerConfig()
	lcfg.Params.MaxTrees = 200
	learner := ml.NewLearner(spec.Width(), lcfg)
	addTotal := timeTraining(learner, samples)

	// Prediction cost.
	model := learner.Model()
	if model == nil {
		return nil, fmt.Errorf("overheads: learner never trained")
	}
	predStart := time.Now()
	const predIters = 20000
	for i := 0; i < predIters; i++ {
		model.Predict(samples[i%len(samples)].x)
	}
	predTotal := time.Since(predStart)

	// Tracker footprint.
	tracker := ml.NewTracker(spec.K)
	for i, f := range tr.Files {
		tracker.OnCreate(int32(i), int64(i), f.Size, epoch())
	}
	ids := fileIDs(tr)
	for _, j := range tr.Jobs {
		if id, ok := ids[j.InputPath]; ok {
			tracker.OnAccess(int32(id), id, epoch().Add(j.Arrival))
		}
	}
	perFile := tracker.FootprintBytes() / tracker.Len()

	t := &eval.Table{
		ID:     "overheads",
		Title:  "System overheads (Section 7.7)",
		Header: []string{"Metric", "Value"},
	}
	t.AddRow(text("training samples"), text(len(samples)))
	t.AddRow(text("avg time per training sample"), num("%.3f ms", float64(addTotal.Microseconds())/float64(len(samples))/1000))
	t.AddRow(text("avg time per prediction"), num("%.1f ns", float64(predTotal.Nanoseconds())/predIters))
	t.AddRow(text("model memory"), num("%.1f KB", float64(model.ApproxMemoryBytes())/float64(storage.KB)))
	t.AddRow(text("model trees"), text(model.NumTrees()))
	t.AddRow(text("tracker bytes per file"), num("%.0f B", float64(perFile)))
	return []*eval.Table{t}, nil
}
