package metrics

import (
	"fmt"
	"strings"
)

// Table renders experiment results as an aligned text table. The benchmark
// harness uses it to print the rows recorded in EXPERIMENTS.md.
type Table struct {
	Title   string
	Columns []string
	// Report is the measurement struct the rows were rendered from, for the
	// producers that keep one as a JSON record (cmd/benchcloud -json).
	Report any
	rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row. Values are formatted with %v; float64 values are
// formatted with 4 significant digits. A row with more values than the
// table has columns is a programming error and panics.
func (t *Table) AddRow(values ...any) {
	if len(values) > len(t.Columns) {
		panic(fmt.Sprintf("metrics: row with %d values in a %d-column table %q",
			len(values), len(t.Columns), t.Title))
	}
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows added so far.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table with a title line, a header row, a rule, and the
// data rows, all columns padded to their widest cell.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(width)*2 - 2
	for _, w := range width {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
