package main

import (
	"strings"
	"testing"

	"lofat/internal/experiments"
)

func TestSelectExperiments(t *testing.T) {
	var all []string
	for _, e := range experiments.All() {
		all = append(all, e.ID)
	}
	cases := []struct {
		name, ids string
		want      []string
		errHas    string
	}{
		{name: "empty selects all", ids: "", want: all},
		{name: "known", ids: "E3,E7", want: []string{"E3", "E7"}},
		{name: "evaluation order, duplicates folded", ids: "E7,E3,E7", want: []string{"E3", "E7"}},
		{name: "mixed case and spaces", ids: " e1 ,E10, e11", want: []string{"E1", "E10", "E11"}},
		{name: "unknown", ids: "E99", errHas: `"E99"`},
		{name: "unknown beside known", ids: "E1,E99", errHas: `"E99"`},
		{name: "typo", ids: "F1", errHas: `"F1"`},
		{name: "empty element", ids: "E1,", errHas: `""`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sel, err := selectExperiments(tc.ids)
			if tc.errHas != "" {
				if err == nil {
					t.Fatalf("selectExperiments(%q) = %d experiments, want an error", tc.ids, len(sel))
				}
				msg := err.Error()
				if !strings.Contains(msg, tc.errHas) {
					t.Errorf("error %q does not name the bad ID %s", msg, tc.errHas)
				}
				if !strings.Contains(msg, strings.Join(all, ", ")) {
					t.Errorf("error %q does not list the known IDs", msg)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range sel {
				got = append(got, e.ID)
			}
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Errorf("selectExperiments(%q) = %v, want %v", tc.ids, got, tc.want)
			}
		})
	}
}
