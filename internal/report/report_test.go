package report

import (
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := &Table{
		Title:   "demo",
		Note:    "a note",
		Columns: []string{"name", "value"},
	}
	t.AddRow("alpha", 1.5)
	t.AddRow("beta", 123456.789)
	t.AddRow("gamma", "text")
	return t
}

func TestAddRowTypes(t *testing.T) {
	tb := sampleTable()
	if tb.Rows[0][1] != "1.50" {
		t.Errorf("float cell = %q", tb.Rows[0][1])
	}
	if tb.Rows[2][1] != "text" {
		t.Errorf("string cell = %q", tb.Rows[2][1])
	}
}

func TestAddRowArityPanics(t *testing.T) {
	tb := &Table{Title: "x", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.AddRow("only-one")
}

func TestRenderAligned(t *testing.T) {
	out := sampleTable().String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "note: a note") {
		t.Error("missing note")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 3 rows + note
	if len(lines) != 7 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns align: the value column starts at the same offset everywhere.
	header := lines[1]
	idx := strings.Index(header, "value")
	for _, l := range lines[3:6] {
		cell := l[idx:]
		if strings.HasPrefix(cell, " ") {
			t.Errorf("misaligned row %q", l)
		}
	}
}

func TestCSV(t *testing.T) {
	var b strings.Builder
	tb := &Table{Columns: []string{"a", "b"}}
	tb.AddRow("x,y", `quote"inside`)
	tb.CSV(&b)
	want := "a,b\n\"x,y\",\"quote\"\"inside\"\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:        "0.00",
		1.234:    "1.23",
		99.99:    "99.99",
		123.456:  "123.5",
		12345678: "1.23e+07",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
