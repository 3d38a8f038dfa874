// Package experiments regenerates every quantitative artifact of the
// paper's evaluation (§6) plus the design figures, as data tables
// (E1..E11), printed by cmd/lofat-bench. Each table's notes quote the
// paper's claim beside the measured rows.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one regenerated evaluation artifact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Format renders the table as GitHub markdown.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}

// Experiment couples an ID with its generator.
type Experiment struct {
	ID  string
	Run func() (Table, error)
}

// All lists every experiment in evaluation order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1Capture},
		{"E2", E2PathEncoding},
		{"E3", E3Overhead},
		{"E4", E4Latency},
		{"E5", E5HashEngine},
		{"E6", E6Area},
		{"E7", E7Attacks},
		{"E8", E8Indirect},
		{"E9", E9Protocol},
		{"E10", E10Metadata},
		{"E11", E11Heuristic},
	}
}

// RunAll executes every experiment, failing fast.
func RunAll() ([]Table, error) {
	var out []Table
	for _, e := range All() {
		t, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		out = append(out, t)
	}
	return out, nil
}

func u(v uint64) string   { return fmt.Sprintf("%d", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
