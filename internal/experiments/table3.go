package experiments

import (
	"fmt"
	"time"

	"octostore/internal/eval"
	"octostore/internal/workload"
)

// Table3JobBins regenerates Table 3: for each workload and bin, the share
// of jobs, the share of cluster resources (task-seconds), the share of
// I/O, and the aggregate task time in minutes. Resource and I/O shares are
// measured by executing the trace on the HDFS baseline, matching how the
// paper characterises its workloads.
func Table3JobBins(o Options) ([]*eval.Table, error) {
	o.applyDefaults()
	t := &eval.Table{
		ID:     "table3",
		Title:  "Job size distributions (jobs binned by input data size)",
		Header: []string{"Workload", "Bin", "Data size", "% of Jobs", "% of Resources", "% of I/O", "Task Time (mins)"},
	}
	ranges := []string{"0-128MB", "128-512MB", "0.5-1GB", "1-2GB", "2-5GB", "5-10GB"}
	for _, wl := range []string{"fb", "cmu"} {
		runs, err := comparison(o, wl)
		if err != nil {
			return nil, err
		}
		base := runs[0].stats // HDFS baseline characterises the workload
		jobCounts := base.JobCountByBin()
		taskSecs := base.TaskSecondsByBin()
		ioBytes := base.BytesReadByBin()
		var totalJobs int
		var totalTask, totalIO float64
		for b := workload.Bin(0); b < workload.NumBins; b++ {
			totalJobs += jobCounts[b]
			totalTask += taskSecs[b]
			totalIO += float64(ioBytes[b])
		}
		for b := workload.Bin(0); b < workload.NumBins; b++ {
			t.AddRow(
				text(base.Trace.Name),
				text(b),
				text(ranges[b]),
				eval.Pct(eval.Ratio(float64(jobCounts[b]), float64(totalJobs))),
				eval.Pct(eval.Ratio(taskSecs[b], totalTask)),
				eval.Pct(eval.Ratio(float64(ioBytes[b]), totalIO)),
				minutes(time.Duration(taskSecs[b]*float64(time.Second))),
			)
		}
	}
	return []*eval.Table{t}, nil
}

// Fig5CDFs regenerates Figure 5: cumulative distribution functions of job
// input size, file size, and per-file access frequency for both traces.
// Rows report the CDF at representative quantiles.
func Fig5CDFs(o Options) ([]*eval.Table, error) {
	o.applyDefaults()
	quantiles := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99}
	var tables []*eval.Table
	for _, wl := range []string{"fb", "cmu"} {
		p, err := o.profile(wl)
		if err != nil {
			return nil, err
		}
		tr := workload.Generate(p, o.Seed)
		var jobMB, fileMB, freq []float64
		for _, j := range tr.Jobs {
			jobMB = append(jobMB, float64(j.InputBytes)/(1<<20))
		}
		for _, f := range tr.Files {
			fileMB = append(fileMB, float64(f.Size)/(1<<20))
		}
		for _, c := range tr.AccessCounts() {
			freq = append(freq, float64(c))
		}
		t := &eval.Table{
			ID:     "fig5-" + wl,
			Title:  "CDF quantiles: job data size, file size, access frequency (" + wl + ")",
			Header: []string{"Quantile", "Job size (MB)", "File size (MB)", "Accesses"},
		}
		for _, q := range quantiles {
			t.AddRow(
				text(fmt.Sprintf("p%02.0f", q*100)),
				eval.F2(eval.Quantile(jobMB, q)),
				eval.F2(eval.Quantile(fileMB, q)),
				eval.F2(eval.Quantile(freq, q)),
			)
		}
		tables = append(tables, t)
	}
	return tables, nil
}
