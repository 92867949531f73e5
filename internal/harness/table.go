// Package harness regenerates every table and figure in the paper's
// evaluation (and the tech-report companions described in §4.2/§4.4), in
// either simulator mode (deterministic, reproduces the 16-processor shape on
// any host) or real mode (actual STM + goroutines on the local machine).
// DESIGN.md §7 maps each experiment ID to the paper artifact it reproduces.
package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is one rendered experiment artifact: a named grid of numeric series,
// matching a figure's curves or a table's rows.
type Table struct {
	ID    string
	Title string
	// Cols[0] names the x column (e.g. "threads"); the rest name series.
	Cols []string
	Rows [][]float64
	// Notes carry paper-vs-measured commentary into kbench's output; DESIGN.md
	// §7 maps each table to its paper artifact.
	Notes []string
}

// Render writes a fixed-width text rendering.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title)
	widths := make([]int, len(t.Cols))
	cells := make([][]string, len(t.Rows))
	for i, col := range t.Cols {
		widths[i] = len(col)
	}
	for r, row := range t.Rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			s := formatCell(v)
			cells[r][c] = s
			if c < len(widths) && len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	for i, col := range t.Cols {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintf(w, "%*s", widths[i], col)
	}
	fmt.Fprintln(w)
	for i := range t.Cols {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprint(w, strings.Repeat("-", widths[i]))
	}
	fmt.Fprintln(w)
	for _, row := range cells {
		for c, s := range row {
			if c > 0 {
				fmt.Fprint(w, "  ")
			}
			width := widths[len(widths)-1]
			if c < len(widths) {
				width = widths[c]
			}
			fmt.Fprintf(w, "%*s", width, s)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the table as CSV (one header row, numeric cells).
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Cols, ","))
	for _, row := range t.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = formatCell(v)
		}
		fmt.Fprintln(w, strings.Join(parts, ","))
	}
}

// formatCell renders integers plainly and non-integers with 4 significant
// digits, keeping throughput columns readable.
func formatCell(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// Series extracts the named column as a slice (for tests and comparisons).
func (t *Table) Series(col string) ([]float64, error) {
	idx := -1
	for i, c := range t.Cols {
		if c == col {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("harness: table %s has no column %q", t.ID, col)
	}
	out := make([]float64, 0, len(t.Rows))
	for _, row := range t.Rows {
		if idx >= len(row) {
			return nil, fmt.Errorf("harness: table %s row too short for column %q", t.ID, col)
		}
		out = append(out, row[idx])
	}
	return out, nil
}
