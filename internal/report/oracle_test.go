package report

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// fmtTable is the reference renderer the cells writer replaced: one
// fmt.Fprintf("%-*s") per cell, with widths measured in bytes.
func fmtTable(t *Table) string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// fmtRunReport is the reference RunReport renderer: every number turned
// into its own string, then fmtTable and a fmt.Fprintf per summary line.
func fmtRunReport(r *RunReport) string {
	fnum := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	t := Table{Title: r.Title, Headers: runHeaders}
	for _, row := range r.Rows {
		rep := "-"
		if row.GapsFilled != 0 || row.OutliersRejected != 0 {
			rep = fmt.Sprintf("%dg/%do", row.GapsFilled, row.OutliersRejected)
		}
		t.AddRow(row.System, strconv.Itoa(row.Procs), row.Bench, row.Status,
			fnum(row.Perf), row.Metric, fnum(row.MeanWatts), fnum(row.PeakWatts),
			fnum(row.Seconds), fnum(row.WastedSeconds), fnum(row.EnergyJ),
			strconv.Itoa(row.Retries), rep)
	}
	var b strings.Builder
	b.WriteString(fmtTable(&t))
	if len(r.Percentiles) > 0 {
		title := r.PercentileTitle
		if title == "" {
			title = "attempt seconds (virtual)"
		}
		pt := Table{Title: title, Headers: percentileHeaders}
		for _, row := range r.Percentiles {
			pt.AddRow(row.Bench, strconv.FormatUint(row.Count, 10),
				fnum(row.P50), fnum(row.P95), fnum(row.P99))
		}
		b.WriteString("\n")
		b.WriteString(fmtTable(&pt))
	}
	if len(r.Summary) == 0 {
		return b.String()
	}
	width := 0
	for _, kv := range r.Summary {
		if len(kv.Key) > width {
			width = len(kv.Key)
		}
	}
	b.WriteString("\n")
	for _, kv := range r.Summary {
		fmt.Fprintf(&b, "%-*s  %s\n", width, kv.Key, kv.Value)
	}
	return b.String()
}

// TestTableRenderMatchesFmt pins the cells writer to the fmt renderer on
// tables that exercise its edges: multi-byte and invalid UTF-8 cells
// (padded by runes, measured in bytes), empty cells, and rows longer or
// shorter than the headers.
func TestTableRenderMatchesFmt(t *testing.T) {
	for _, tab := range []*Table{
		{},
		{Title: "only a title"},
		{Headers: []string{"a", "b"}},
		{Rows: [][]string{{"x", "y"}, {}}},
		{Title: "mixed", Headers: []string{"name", "wätts", ""},
			Rows: [][]string{{"Σ", "1"}, {"", "", "", "extra"}, {"fire", "299.153", "x"}, {"\xff\xfe", "日本語"}}},
	} {
		var b bytes.Buffer
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		if want := fmtTable(tab); b.String() != want {
			t.Errorf("table %+v:\n got %q\nwant %q", tab, b.String(), want)
		}
	}
}

// TestRunReportMatchesFmt pins RunReport.Render to the fmt renderer,
// percentiles and a non-ASCII summary included.
func TestRunReportMatchesFmt(t *testing.T) {
	r := sampleReport()
	r.Rows = append(r.Rows, RunRow{System: "Fïre", Procs: -3, Bench: "b_eff", Status: "ok",
		Perf: 1e-7, MeanWatts: 1e21, PeakWatts: -0.5, Seconds: 123456789, GapsFilled: -1})
	r.Percentiles = []PercentileRow{{Bench: "HPL", Count: 1 << 63, P50: 510.25, P95: 540, P99: 544}}
	r.Summary = append(r.Summary, KV{"énergie", "∞"})
	for _, rep := range []*RunReport{{}, sampleReport(), r} {
		var b bytes.Buffer
		if err := rep.Render(&b); err != nil {
			t.Fatal(err)
		}
		if want := fmtRunReport(rep); b.String() != want {
			t.Errorf("report %q:\n got %q\nwant %q", rep.Title, b.String(), want)
		}
	}
}

// FuzzTableRender checks the cells writer against the fmt renderer byte
// for byte. The input is split into rows at '\n' and into cells at '|';
// the first row is the header.
func FuzzTableRender(f *testing.F) {
	f.Add("Demo", "Name|Value\nalpha|1\nbeta-longer|22")
	f.Add("", "A\nx|extra\n|\n")
	f.Add("wätts", "Σ|日本語|\n\xff|é\n|||")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, title, text string) {
		tab := &Table{Title: title}
		for i, line := range strings.Split(text, "\n") {
			cells := strings.Split(line, "|")
			if line == "" {
				cells = nil
			}
			if i == 0 {
				tab.Headers = cells
				continue
			}
			tab.AddRow(cells...)
		}
		var b bytes.Buffer
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		// fmt refuses a width over 1e6 (it writes %!(BADWIDTH) instead);
		// a cell that long is not a table the writer is built for.
		for _, r := range append(tab.Rows, tab.Headers) {
			for _, c := range r {
				if len(c) > 1e6-2 {
					t.Skip("cell beyond fmt's width limit")
				}
			}
		}
		if want := fmtTable(tab); b.String() != want {
			t.Errorf("got  %q\nwant %q", b.String(), want)
		}
	})
}
