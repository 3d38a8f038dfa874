// Command lofat-bench regenerates the paper's evaluation artifacts
// (tables E1..E11 of internal/experiments) and prints them as markdown.
// Use -id to select experiments and -o to write a file:
//
//	lofat-bench              # all experiment tables
//	lofat-bench -id E3,E7    # selected tables
//
// Host-side performance is measured by the benchmark/ program, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lofat/internal/experiments"
)

func main() {
	ids := flag.String("id", "", "comma-separated experiment IDs (default: all)")
	out := flag.String("o", "", "output file (default: stdout)")
	flag.Parse()
	if err := run(*ids, *out); err != nil {
		fmt.Fprintf(os.Stderr, "lofat-bench: %v\n", err)
		os.Exit(1)
	}
}

// selectExperiments resolves a comma-separated, case-insensitive ID list
// against experiments.All(), keeping evaluation order. An empty list
// selects every experiment; an ID that names none is an error.
func selectExperiments(ids string) ([]experiments.Experiment, error) {
	all := experiments.All()
	if ids == "" {
		return all, nil
	}
	known := make([]string, len(all))
	want := make(map[string]bool, len(all))
	for i, e := range all {
		known[i] = e.ID
		want[e.ID] = false
	}
	for _, id := range strings.Split(ids, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if _, ok := want[id]; !ok {
			return nil, fmt.Errorf("bad -id: unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
		}
		want[id] = true
	}
	var sel []experiments.Experiment
	for _, e := range all {
		if want[e.ID] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

func run(ids, out string) error {
	sel, err := selectExperiments(ids)
	if err != nil {
		return err
	}
	var b strings.Builder
	for _, e := range sel {
		t, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		b.WriteString(t.Format())
		b.WriteString("\n")
	}
	if out == "" {
		fmt.Print(b.String())
		return nil
	}
	return os.WriteFile(out, []byte(b.String()), 0o644)
}
