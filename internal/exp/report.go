// Package exp defines the paper's experiments: one generator per table and
// figure of the evaluation (Section 6), each producing a Report that prints
// the same rows/series the paper plots. The experiment index lives in
// DESIGN.md; EXPERIMENTS.md records paper-vs-measured outcomes.
//
// # Running experiments
//
// A Context carries the shared knobs (workload Params, training Params,
// parallelism, and an optional TraceDir) and caches profiling hints and
// alone-run IPCs across experiments. Run(ctx, id) executes one registered
// experiment — or all of them — and returns its Reports; each Report renders
// as text, JSON, or CSV (Render).
//
// # Adding a figure
//
// Every generator has the same two halves. The fan-out runs the grid: Grids
// supplies the seven shared single-core configurations per benchmark, and
// sweep (benchmarks × spec variants), perBench (one closure per benchmark)
// or collect put any extra runs in flight at once; the scheduler bounds how
// many actually execute. The table builder lays out the report: each column
// is a head, a value function of the row index, a cell format, and a summary
// format (nil leaves its summary cells blank), and table appends the chosen
// summary rows (gmeanRow, gmeanNoHealthRow, ameanRow). A new rival costs one
// spec in the sweep and one column:
//
//	res := c.sweep(benches, func(i int) []sim.Spec {
//		return []sim.Spec{sim.NewSpec("stream+rival", "stream", "rival")}
//	})
//	r.Header, r.Rows = table("bench", benches, []column{
//		{"rival", f3, f3, ipcVsBase(g, res, 0)},
//		{"bw:rival", f2, f2, bwVsBase(g, res, 0)},
//	}, gmeanRow)
//
// Register the generator in Registry, then regenerate the golden reports
// (testdata/golden_all.txt) and cache keys with -update; existing lines must
// not move.
//
// # Persisted artifacts
//
// When Context.TraceDir is set, every simulation runs with interval-level
// telemetry enabled and this package serializes the resulting
// telemetry.Trace as JSONL: one <bench>__<setup>.intervals.jsonl time series
// and one .events.jsonl throttle-decision log per run (WriteTrace; a mix's
// cores are <mix>__core<i>-<bench>__<setup>), plus a reproducibility
// Manifest (manifest.json). The schemas are versioned by
// TraceSchemaVersion and documented field-by-field in OBSERVABILITY.md.
// Fixed-seed runs serialize byte-identically, so traces are diffable across
// code changes.
package exp

import (
	"fmt"
	"math"
	"strings"
)

// Report is one reproduced table or figure.
type Report struct {
	// ID is the experiment identifier (e.g. "fig7", "table6").
	ID string
	// Title describes the paper artifact.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the data, one row per benchmark/workload plus summary
	// rows.
	Rows [][]string
	// Notes carries caveats and observations.
	Notes []string
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			if i == 0 {
				sb.WriteString(c + strings.Repeat(" ", pad))
			} else {
				sb.WriteString(strings.Repeat(" ", pad) + c)
			}
		}
		sb.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// column is one numeric report column: val gives row i's value, cell
// formats it, and sum formats the column's summary cells (nil leaves them
// blank).
type column struct {
	head      string
	cell, sum func(float64) string
	val       func(i int) float64
}

// summary is one summary row: mean over every row not labelled skip.
type summary struct {
	label string
	mean  func([]float64) float64
	skip  string
}

var (
	gmeanRow         = summary{"gmean", gmean, ""}
	gmeanNoHealthRow = summary{"gmean-no-health", gmean, "health"} // the paper reports both
	ameanRow         = summary{"amean", amean, ""}
)

// table lays out a report body: a header of key plus the column heads, one
// row per label holding each column's cell, then one row per summary.
func table(key string, labels []string, cols []column, sums ...summary) (header []string, rows [][]string) {
	header = []string{key}
	for _, col := range cols {
		header = append(header, col.head)
	}
	vals := make([][]float64, len(labels))
	for i, l := range labels {
		row := []string{l}
		for _, col := range cols {
			v := col.val(i)
			vals[i] = append(vals[i], v)
			row = append(row, col.cell(v))
		}
		rows = append(rows, row)
	}
	for _, s := range sums {
		row := []string{s.label}
		for j, col := range cols {
			if col.sum == nil {
				row = append(row, "")
				continue
			}
			var xs []float64
			for i, l := range labels {
				if l != s.skip {
					xs = append(xs, vals[i][j])
				}
			}
			row = append(row, col.sum(s.mean(xs)))
		}
		rows = append(rows, row)
	}
	return header, rows
}

// gmean returns the geometric mean of xs (ignoring non-positive entries).
func gmean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// amean returns the arithmetic mean of xs.
func amean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func pct(x float64) string { return fmt.Sprintf("%+.1f%%", (x-1)*100) }

// delta prints a ratio as a signed percentage change without the % sign.
func delta(x float64) string { return fmt.Sprintf("%+.1f", (x-1)*100) }
