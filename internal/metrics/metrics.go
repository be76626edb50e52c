// Package metrics provides the series utilities behind the paper's
// evaluation artifacts: best top-1 accuracy (Table 3/4), window-smoothed
// accuracy timelines (Fig. 5), rounds-to-target-accuracy (Fig. 10), and
// a plain-text table renderer shared by the experiment harness and the
// CLI tools. Fig. 6's normalization to a reference method lives in the
// experiments package's renderFigure6.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is an ordered sequence of per-round measurements.
type Series []float64

// Best returns the maximum value of the series (the "best top-1 accuracy
// reached during training" of Table 3). It returns 0 for an empty series.
func (s Series) Best() float64 {
	best := math.Inf(-1)
	for _, v := range s {
		if v > best {
			best = v
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

// Final returns the last value, or 0 if empty.
func (s Series) Final() float64 {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// Smoothed returns the trailing-window moving average used to plot the
// Fashion-MNIST curves of Fig. 5 ("average-smoothed of every 10
// communication rounds"). window must be positive.
func (s Series) Smoothed(window int) Series {
	if window <= 0 {
		panic("metrics: Smoothed with non-positive window")
	}
	out := make(Series, len(s))
	sum := 0.0
	for i, v := range s {
		sum += v
		if i >= window {
			sum -= s[i-window]
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out[i] = sum / float64(n)
	}
	return out
}

// RoundsToTarget returns the first round index (1-based) at which the
// series reaches target, or -1 if it never does (Fig. 10).
func (s Series) RoundsToTarget(target float64) int {
	for i, v := range s {
		if v >= target {
			return i + 1
		}
	}
	return -1
}

// Mean returns the arithmetic mean of the series, or 0 if empty.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Tail returns the mean of the last n points (or fewer if the series is
// shorter), the steady-state summary used for Fig. 6's comparisons.
func (s Series) Tail(n int) float64 {
	if n <= 0 || len(s) == 0 {
		return 0
	}
	if n > len(s) {
		n = len(s)
	}
	return s[len(s)-n:].Mean()
}

// RelImprovement returns (a−b)/b in percent — the impr.(a)/impr.(b) rows
// of Table 3. It returns 0 when b is 0.
func RelImprovement(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - b) / b * 100
}

// Table is a simple text table with fixed headers.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; its length must match the headers.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("metrics: row width %d, table has %d columns", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// RenderString returns the rendered table as a string.
func (t *Table) RenderString() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// F formats a float with 2 decimals for table cells.
func F(v float64) string { return fmt.Sprintf("%.2f", v) }

// MeanStd formats a seed-replicated cell as "mean±std" with 2 decimals
// (the Table 3 -seeds and headline reporting format).
func MeanStd(mean, std float64) string { return fmt.Sprintf("%.2f±%.2f", mean, std) }

// Pct formats a percentage with 2 decimals and a % sign.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", v) }
