// Package eval implements the evaluation metrics of the paper: ROC curves
// and AUC for the classifiers (Section 7.6), Hit Ratio and Byte Hit Ratio
// (Figures 9 and 11), Byte Accuracy and Byte Coverage for upgrades
// (Table 4), plus CDF and table-formatting helpers used across the
// experiment harness.
package eval

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// ROCPoint is one point on a receiver operating characteristic curve.
type ROCPoint struct {
	FPR float64 // false positive rate
	TPR float64 // true positive rate
}

// ROC computes the ROC curve for probability scores against binary labels
// (1 = positive). Points are ordered from (0,0) to (1,1).
func ROC(scores []float64, labels []float64) []ROCPoint {
	if len(scores) != len(labels) || len(scores) == 0 {
		return nil
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	var pos, neg float64
	for _, y := range labels {
		if y >= 0.5 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil
	}
	points := []ROCPoint{{0, 0}}
	var tp, fp float64
	for i := 0; i < len(idx); {
		// Process ties together so the curve is threshold-consistent.
		j := i
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			if labels[idx[j]] >= 0.5 {
				tp++
			} else {
				fp++
			}
			j++
		}
		i = j
		points = append(points, ROCPoint{FPR: fp / neg, TPR: tp / pos})
	}
	return points
}

// AUC computes the area under the ROC curve via trapezoidal integration.
// It returns NaN when the curve is undefined (single-class labels).
func AUC(scores []float64, labels []float64) float64 {
	curve := ROC(scores, labels)
	if curve == nil {
		return math.NaN()
	}
	area := 0.0
	for i := 1; i < len(curve); i++ {
		dx := curve[i].FPR - curve[i-1].FPR
		area += dx * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	return area
}

// Accuracy is the fraction of correct classifications at the given
// discrimination threshold.
func Accuracy(scores []float64, labels []float64, threshold float64) float64 {
	if len(scores) == 0 || len(scores) != len(labels) {
		return math.NaN()
	}
	correct := 0
	for i, s := range scores {
		if (s >= threshold) == (labels[i] >= 0.5) {
			correct++
		}
	}
	return float64(correct) / float64(len(scores))
}

// Ratio returns num/den, or 0 when den is 0.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// HitRatio is the fraction of requests served by the memory tier
// (Section 7.2).
func HitRatio(memRequests, totalRequests int64) float64 {
	return Ratio(float64(memRequests), float64(totalRequests))
}

// ByteHitRatio is the fraction of bytes served by the memory tier.
func ByteHitRatio(memBytes, totalBytes int64) float64 {
	return Ratio(float64(memBytes), float64(totalBytes))
}

// ByteAccuracy is data read from memory over data upgraded to memory
// (Table 4): how much of what was promoted was actually used.
func ByteAccuracy(memReadBytes, upgradedBytes int64) float64 {
	return Ratio(float64(memReadBytes), float64(upgradedBytes))
}

// ByteCoverage is data read from memory over total data read (Table 4):
// how much of the workload the promotions covered.
func ByteCoverage(memReadBytes, totalReadBytes int64) float64 {
	return Ratio(float64(memReadBytes), float64(totalReadBytes))
}

// Reduction returns the fractional reduction of value versus a baseline
// (positive = improvement), e.g. completion-time reduction over HDFS.
func Reduction(baseline, value float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - value) / baseline
}

// CDFPoint is one (value, cumulative probability) pair.
type CDFPoint struct {
	Value float64
	P     float64
}

// CDF returns the empirical cumulative distribution of values.
func CDF(values []float64) []CDFPoint {
	if len(values) == 0 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var out []CDFPoint
	for i, v := range sorted {
		if i+1 < len(sorted) && sorted[i+1] == v {
			continue // keep the last occurrence only
		}
		out = append(out, CDFPoint{Value: v, P: float64(i+1) / n})
	}
	return out
}

// Quantile returns the q-quantile (0..1) of values.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Cell is one table entry: the text it prints and the number behind that
// text. Pct and F2 build numeric cells; a text cell, Cell{Text: s}, is a
// name or a preformatted string and carries no number.
type Cell struct {
	Text  string
	Value float64
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]Cell
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...Cell) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	lines := [][]string{t.Header}
	for _, row := range t.Rows {
		line := make([]string, len(row))
		for i, c := range row {
			line[i] = c.Text
		}
		lines = append(lines, line)
	}
	widths := make([]int, len(t.Header))
	for _, line := range lines {
		for i, c := range line {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, line := range lines {
		var sb strings.Builder
		for i, c := range line {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for pad := len(c); pad < widths[i]; pad++ {
					sb.WriteByte(' ')
				}
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
}

// Pct is a cell holding a fraction, printed as a percentage.
func Pct(f float64) Cell { return Cell{Text: fmt.Sprintf("%.1f%%", 100*f), Value: f} }

// F2 is a cell holding a float, printed with two decimals.
func F2(f float64) Cell { return Cell{Text: fmt.Sprintf("%.2f", f), Value: f} }
