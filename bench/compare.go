package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// loadSet reads one or more comma-separated report files and returns, per
// workload and end-to-end metric, the median over the files: a "set of runs"
// is compared by its medians, like the driver does.
func loadSet(list string) (map[string]map[string]float64, error) {
	values := make(map[string]map[string][]float64)
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s suite
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, rep := range s.Workloads {
			if values[name] == nil {
				values[name] = make(map[string][]float64)
			}
			for k, v := range rep.EndToEnd {
				values[name][k] = append(values[name][k], v)
			}
		}
	}
	out := make(map[string]map[string]float64)
	for name, metrics := range values {
		out[name] = make(map[string]float64)
		for k, v := range metrics {
			out[name][k] = median(v)
		}
	}
	return out, nil
}

// compareReports prints, for every workload and end-to-end metric present in
// both sets, how much worse b is than a relative to a, against the metric's
// bound. It reports false when any metric is beyond its bound.
func compareReports(w io.Writer, a, b string) (bool, error) {
	before, err := loadSet(a)
	if err != nil {
		return false, err
	}
	after, err := loadSet(b)
	if err != nil {
		return false, err
	}
	ok := true
	for _, wl := range workloads {
		old, cur := before[wl.Name], after[wl.Name]
		if old == nil || cur == nil {
			continue
		}
		fmt.Fprintf(w, "== %s\n", wl.Name)
		for _, d := range endToEnd {
			x, y := old[d.Name], cur[d.Name]
			if x == 0 {
				continue
			}
			worse := (y - x) / x
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict, ok = "REGRESSION", false
			}
			fmt.Fprintf(w, "  %-24s %14.6g -> %-14.6g worse by %+7.2f%% (bound %.0f%%) %s\n",
				d.Name, x, y, worse*100, d.Bound*100, verdict)
		}
	}
	return ok, nil
}
