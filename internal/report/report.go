// Package report renders experiment output: aligned text tables, CSV, and
// ASCII line charts for the figure reproductions. It is deliberately plain —
// the harness prints the same rows and series the paper's tables and figures
// report, and diffing two runs should be possible with standard tools.
package report

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table to w: the title line when there is one, the
// headers, a rule of dashes under each column, then the rows. A row
// longer than the headers adds columns; a shorter one is padded with
// empty cells.
func (t *Table) Render(w io.Writer) error {
	cols, size := len(t.Headers), 0
	for _, r := range t.Rows {
		cols = max(cols, len(r))
		for _, c := range r {
			size += len(c)
		}
	}
	for _, c := range t.Headers {
		size += len(c)
	}
	var c cells
	c.grow(len(t.Rows)+1, cols, size)
	c.row(t.Headers)
	for _, r := range t.Rows {
		c.row(r)
	}
	_, err := w.Write(c.appendTo(make([]byte, 0, c.size(t.Title)), t.Title))
	return err
}

// cells is the one table writer behind Table.Render and RunReport.Render.
// Each cell is formatted once, straight into buf; ends records where
// each cell stops, rowEnds how many cells each row closes on, and widths
// the longest cell of each column, in bytes.
type cells struct {
	buf     []byte
	ends    []int
	rowEnds []int
	widths  []int
	// multibyte is how many more bytes than runes the cells hold, so
	// size can count the padding without decoding every cell again.
	multibyte int
}

// grow makes room for rows more rows of up to cols cells holding at most
// size bytes in all, so a table whose bounds are known up front is built
// in a fixed number of allocations, however many rows it has.
func (c *cells) grow(rows, cols, size int) {
	c.buf = slices.Grow(c.buf, size)
	c.ends = slices.Grow(c.ends, rows*cols)
	c.rowEnds = slices.Grow(c.rowEnds, rows)
	c.widths = slices.Grow(c.widths, cols)
}

// end closes the cell just appended to buf.
func (c *cells) end() {
	from, col := 0, len(c.ends)
	if n := len(c.ends); n > 0 {
		from = c.ends[n-1]
	}
	if n := len(c.rowEnds); n > 0 {
		col -= c.rowEnds[n-1]
	}
	if col == len(c.widths) {
		c.widths = append(c.widths, 0)
	}
	c.widths[col] = max(c.widths[col], len(c.buf)-from)
	c.ends = append(c.ends, len(c.buf))
}

// text appends a cell holding s.
func (c *cells) text(s string) {
	c.buf = append(c.buf, s...)
	c.multibyte += len(s) - utf8.RuneCountInString(s)
	c.end()
}

// num appends a float cell, compact: six significant digits, no
// trailing zeros.
func (c *cells) num(v float64) {
	c.buf = strconv.AppendFloat(c.buf, v, 'g', 6, 64)
	c.end()
}

// integer appends an integer cell.
func (c *cells) integer(v int64) {
	c.buf = strconv.AppendInt(c.buf, v, 10)
	c.end()
}

// count appends an unsigned integer cell.
func (c *cells) count(v uint64) {
	c.buf = strconv.AppendUint(c.buf, v, 10)
	c.end()
}

// repairs appends a meter-repair cell: "-" for a clean trace, else the
// filled gaps and rejected outliers as "<gaps>g/<outliers>o".
func (c *cells) repairs(gaps, outliers int) {
	if gaps == 0 && outliers == 0 {
		c.text("-")
		return
	}
	c.buf = strconv.AppendInt(c.buf, int64(gaps), 10)
	c.buf = append(c.buf, 'g', '/')
	c.buf = strconv.AppendInt(c.buf, int64(outliers), 10)
	c.buf = append(c.buf, 'o')
	c.end()
}

// endRow closes the current row.
func (c *cells) endRow() { c.rowEnds = append(c.rowEnds, len(c.ends)) }

// row appends a row of text cells.
func (c *cells) row(texts []string) {
	for _, s := range texts {
		c.text(s)
	}
	c.endRow()
}

// size returns the exact length of appendTo's output.
func (c *cells) size(title string) int {
	n := 0
	if title != "" {
		n = len(title) + 1
	}
	line := 1
	for _, w := range c.widths {
		line += w + 2
	}
	// A rule under the header row, and each cell padded to its
	// column's width plus two, counted in runes.
	return n + (len(c.rowEnds)+1)*line + c.multibyte
}

// appendTo appends the table to dst: the title line when title is not
// empty, the first row as the header, a rule of dashes under each
// column, then the other rows. Each cell is padded with spaces to its
// column's width plus two, as fmt's %-*s pads: the widths count bytes
// but the padding counts runes, so a cell holding multi-byte runes
// takes more bytes than its column's ASCII cells.
func (c *cells) appendTo(dst []byte, title string) []byte {
	if title != "" {
		dst = append(dst, title...)
		dst = append(dst, '\n')
	}
	from := 0
	for r, rowEnd := range c.rowEnds {
		for col, w := range c.widths {
			var cell []byte
			if i := from + col; i < rowEnd {
				start := 0
				if i > 0 {
					start = c.ends[i-1]
				}
				cell = c.buf[start:c.ends[i]]
			}
			dst = repeat(append(dst, cell...), ' ', w+2-utf8.RuneCount(cell))
		}
		dst = append(dst, '\n')
		from = rowEnd
		if r == 0 {
			for _, w := range c.widths {
				dst = repeat(repeat(dst, '-', w), ' ', 2)
			}
			dst = append(dst, '\n')
		}
	}
	return dst
}

// repeat appends n copies of b to dst.
func repeat(dst []byte, b byte, n int) []byte {
	for ; n > 0; n-- {
		dst = append(dst, b)
	}
	return dst
}

// CSV writes the table as comma-separated values (quoting cells that need
// it), including the header row.
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := writeRow(t.Headers); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// Series is one line of an ASCII chart.
type Series struct {
	Name string
	Y    []float64
}

// Chart is an ASCII line chart with a shared x-axis.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
	Height int // plot rows; 0 means 16
	Width  int // plot columns; 0 means 64
}

// markers assigns one glyph per series.
var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// Render draws the chart to w: points are scaled into a Height×Width grid,
// one marker per series, with min/max annotations.
func (c *Chart) Render(w io.Writer) error {
	if len(c.X) == 0 || len(c.Series) == 0 {
		return fmt.Errorf("report: empty chart %q", c.Title)
	}
	height, width := c.Height, c.Width
	if height <= 0 {
		height = 16
	}
	if width <= 0 {
		width = 64
	}
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		if len(s.Y) != len(c.X) {
			return fmt.Errorf("report: series %q has %d points for %d x-values", s.Name, len(s.Y), len(c.X))
		}
		for _, v := range s.Y {
			ymin = math.Min(ymin, v)
			ymax = math.Max(ymax, v)
		}
	}
	if ymax == ymin { //greenvet:allow floateq -- degenerate-axis guard: bounds collapse only when every sample is the same stored value
		ymax = ymin + 1
	}
	xmin, xmax := c.X[0], c.X[len(c.X)-1]
	if xmax == xmin { //greenvet:allow floateq -- degenerate-axis guard: bounds collapse only when every sample is the same stored value
		xmax = xmin + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		mk := markers[si%len(markers)]
		for i, v := range s.Y {
			col := int((c.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			row := height - 1 - int((v-ymin)/(ymax-ymin)*float64(height-1))
			grid[row][col] = mk
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for i, row := range grid {
		label := "          "
		switch i {
		case 0:
			label = fmt.Sprintf("%9.3g ", ymax)
		case height - 1:
			label = fmt.Sprintf("%9.3g ", ymin)
		}
		fmt.Fprintf(&b, "%s|%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s+%s\n", strings.Repeat(" ", 10), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s%-10.4g%*s\n", strings.Repeat(" ", 11), xmin, width-10, fmt.Sprintf("%.4g", xmax))
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "%sx: %s   y: %s\n", strings.Repeat(" ", 11), c.XLabel, c.YLabel)
	}
	for si, s := range c.Series {
		fmt.Fprintf(&b, "%s%c = %s\n", strings.Repeat(" ", 11), markers[si%len(markers)], s.Name)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
