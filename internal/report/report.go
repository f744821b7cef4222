// Package report renders experiment results as aligned text tables, CSV,
// and simple ASCII charts — the output layer for cmd/dvbench and the
// benchmark harness.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	// Title is printed above the table.
	Title string
	// Note is an optional caption (methodology, paper reference).
	Note string
	// Columns are the header labels.
	Columns []string
	// Rows hold the cells; each row must match len(Columns).
	Rows [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row of %d cells in %d-column table %q",
			len(cells), len(t.Columns), t.Title))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders floats compactly: two decimals, trimming to a
// sensible width for table cells. NaN — the metrics package's empty-sample
// marker — renders as "n/a" so an absent measurement can never be read as
// a real value.
func FormatFloat(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av >= 1e7:
		return fmt.Sprintf("%.3g", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(w, "note: %s\n", t.Note)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// CSV writes the table as comma-separated values (quoting cells that need
// it).
func (t *Table) CSV(w io.Writer) {
	writeCSVRow(w, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(w, row)
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		parts[i] = c
	}
	fmt.Fprintln(w, strings.Join(parts, ","))
}
