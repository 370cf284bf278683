package experiments

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Col declares one table column once, for both faces of a report: the
// aligned text the CLI prints and the CSV the paper's artifact logs. An
// empty header hides the column from that face, so a value can show in
// one face only ("hedged(wins)" in text beside "hedged","hedge_wins" in
// CSV) or in neither (data a verdict line or a test reads back).
type Col struct {
	Text, TextFmt string // text header and verb
	CSV, CSVFmt   string // CSV header and verb
	key           string // accessor name of a column hidden from both faces
}

// col shows a column in both faces, textCol in text only, csvCol in CSV
// only, and dataCol in neither.
func col(text, textFmt, csvHeader, csvFmt string) Col {
	return Col{Text: text, TextFmt: textFmt, CSV: csvHeader, CSVFmt: csvFmt}
}
func textCol(header, verb string) Col { return Col{Text: header, TextFmt: verb} }
func csvCol(header, verb string) Col  { return Col{CSV: header, CSVFmt: verb} }
func dataCol(key string) Col          { return Col{key: key} }

// format renders one typed cell. Strings and bools take no verb (bools
// read yes/no in text, true/false in CSV). An int takes a fmt verb,
// "%d" when none is given; a float64 likewise, "%.4f" when none is
// given. A time.Duration takes a float verb applied to its seconds — to
// its milliseconds when the verb ends in "ms" — or "%v" for Go's own
// notation; none means "%.6f" seconds.
func format(verb string, v any, asCSV bool) string {
	switch v := v.(type) {
	case string:
		return v
	case int:
		if verb == "" {
			return strconv.Itoa(v)
		}
		return fmt.Sprintf(verb, v)
	case bool:
		switch {
		case asCSV:
			return strconv.FormatBool(v)
		case v:
			return "yes"
		}
		return "no"
	case float64:
		if verb == "" {
			verb = "%.4f"
		}
		return fmt.Sprintf(verb, v)
	case time.Duration:
		switch {
		case verb == "":
			verb = "%.6f"
		case verb == "%v":
			return v.String()
		case strings.HasSuffix(verb, "ms"):
			return fmt.Sprintf(verb, v.Seconds()*1000)
		}
		return fmt.Sprintf(verb, v.Seconds())
	}
	panic(fmt.Sprintf("experiments: unsupported cell type %T", v))
}

// Table is a list of typed rows under columns declared once.
type Table struct {
	Cols  []Col
	rows  [][]any
	notes map[int]string // text-face lines printed before row i
}

// Add appends one row: one cell per column, each a string, int, bool,
// float64 or time.Duration.
func (t *Table) Add(cells ...any) {
	if len(cells) != len(t.Cols) {
		panic(fmt.Sprintf("experiments: row has %d cells for %d columns", len(cells), len(t.Cols)))
	}
	t.rows = append(t.rows, cells)
}

// Notef puts a line between rows on the text face only. The rows on
// either side align as separate blocks, each under its own header —
// Fig. 11 prints one block per (dataset, model) subplot of the one flat
// table it exports.
func (t *Table) Notef(format string, a ...any) {
	if t.notes == nil {
		t.notes = map[int]string{}
	}
	t.notes[len(t.rows)] += fmt.Sprintf(format, a...)
}

// Row is one table row, read back by column name.
type Row struct {
	t     *Table
	cells []any
}

// Rows returns every row in order.
func (t *Table) Rows() []Row {
	out := make([]Row, len(t.rows))
	for i, cells := range t.rows {
		out[i] = Row{t, cells}
	}
	return out
}

// Row returns the first row whose named columns hold the given values:
// t.Row("arm", "brownout", "tenant", "gold"). No pairs selects the first
// row. A row that is not there is a bug in the caller, so it panics.
func (t *Table) Row(kv ...any) Row {
	for _, cells := range t.rows {
		r, match := Row{t, cells}, true
		for i := 0; i+1 < len(kv) && match; i += 2 {
			match = r.cell(kv[i].(string)) == kv[i+1]
		}
		if match {
			return r
		}
	}
	panic(fmt.Sprintf("experiments: no row with %v", kv))
}

// cell finds a column by either of its headers (or its key when hidden).
func (r Row) cell(name string) any {
	for i, c := range r.t.Cols {
		if name == c.CSV || name == c.Text || name == c.key {
			return r.cells[i]
		}
	}
	panic(fmt.Sprintf("experiments: no column %q", name))
}

// Typed accessors; the column must hold that type.
func (r Row) Float(name string) float64 { return r.cell(name).(float64) }
func (r Row) Int(name string) int       { return r.cell(name).(int) }
func (r Row) Str(name string) string    { return r.cell(name).(string) }
func (r Row) Bool(name string) bool     { return r.cell(name).(bool) }

// face formats what one face shows: the header row, then every data
// row. The header row is nil when no column shows on that face.
func (t *Table) face(asCSV bool) [][]string {
	lines := make([][]string, 1+len(t.rows))
	for i, c := range t.Cols {
		header, verb := c.Text, c.TextFmt
		if asCSV {
			header, verb = c.CSV, c.CSVFmt
		}
		if header == "" {
			continue
		}
		lines[0] = append(lines[0], header)
		for j, row := range t.rows {
			lines[j+1] = append(lines[j+1], format(verb, row[i], asCSV))
		}
	}
	return lines
}

// writeText renders the text face: one aligned block, under its own
// header, per run of rows between notes.
func (t *Table) writeText(b *strings.Builder) {
	lines := t.face(false)
	header, rows := lines[0], lines[1:]
	if header == nil {
		return
	}
	start := 0
	for i := 0; i <= len(rows); i++ {
		note, ok := t.notes[i]
		if !ok && i < len(rows) {
			continue
		}
		if i > start || len(t.notes) == 0 {
			align(b, append([][]string{header}, rows[start:i]...))
		}
		b.WriteString(note)
		start = i
	}
}

// align writes lines as left-aligned, two-space-separated columns.
func align(b *strings.Builder, lines [][]string) {
	widths := make([]int, len(lines[0]))
	for _, line := range lines {
		for i, c := range line {
			widths[i] = max(widths[i], len(c))
		}
	}
	for _, line := range lines {
		for i, c := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
}

// Report is one experiment's artifact: text lines and tables in print
// order. Every experiment returns one, so one Render and one CSV serve
// them all.
type Report struct {
	parts  []any // string or *Table
	tables []*Table
}

// Printf appends text.
func (r *Report) Printf(format string, a ...any) {
	r.parts = append(r.parts, fmt.Sprintf(format, a...))
}

// Table appends an empty table with the given columns and returns it;
// rows added later still print at this position.
func (r *Report) Table(cols ...Col) *Table { return r.add(&Table{Cols: cols}) }

func (r *Report) add(t *Table) *Table {
	r.parts = append(r.parts, t)
	r.tables = append(r.tables, t)
	return t
}

// Render returns the text face.
func (r *Report) Render() string {
	var b strings.Builder
	for _, p := range r.parts {
		switch p := p.(type) {
		case string:
			b.WriteString(p)
		case *Table:
			p.writeText(&b)
		}
	}
	return b.String()
}

// CSV returns every table's data rows — the paper artifact's log format
// ("latency logs are saved under results/<dataset>" as CSV) — in report
// order, each under its header row, one blank line between tables.
func (r *Report) CSV() string {
	var blocks []string
	for _, t := range r.tables {
		if lines := t.face(true); lines[0] != nil {
			var b strings.Builder
			w := csv.NewWriter(&b)
			_ = w.WriteAll(lines) // flushes; a strings.Builder cannot fail
			blocks = append(blocks, b.String())
		}
	}
	return strings.Join(blocks, "\n")
}
