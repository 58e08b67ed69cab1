package experiments

import (
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tb := newTable("name", "value")
	tb.row("alpha", 1)
	tb.row("a-much-longer-name", 3.14159)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines", len(lines))
	}
	// Columns align: every line has the value column at the same offset.
	idx := strings.Index(lines[1], "1")
	if idx < 0 || !strings.HasPrefix(lines[2][idx:], "3.14") {
		t.Errorf("columns misaligned:\n%s", out)
	}
	// Floats rendered compactly.
	if !strings.Contains(out, "3.14") || strings.Contains(out, "3.14159265") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
}

func TestTableGrowsColumns(t *testing.T) {
	tb := newTable("a")
	tb.row("x", "extra", "cols")
	if out := tb.String(); !strings.Contains(out, "extra") {
		t.Errorf("extra columns dropped:\n%s", out)
	}
}

func TestHelpers(t *testing.T) {
	if frac(3, 4) != "3/4" {
		t.Error("frac wrong")
	}
	if pct(0.125) != "12.5%" {
		t.Error("pct wrong")
	}
	if ratio(4, 2) != 2 || ratio(0, 0) != 1 || ratio(3, 0) != 3 {
		t.Error("ratio wrong")
	}
	if b2f(true) != 1 || b2f(false) != 0 {
		t.Error("b2f wrong")
	}
}
