package main

import (
	"strings"
	"testing"

	"lofat/internal/workloads"
)

func TestAttackByName(t *testing.T) {
	var valid []string
	for _, a := range workloads.Attacks() {
		valid = append(valid, a.Name)
	}
	cases := []struct {
		name, attack string
		want         string // armed attack; "" = none
		wantErr      bool
	}{
		{name: "known", attack: "loop-counter", want: "loop-counter"},
		{name: "unknown", attack: "typo", wantErr: true},
		{name: "empty arms nothing", attack: ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			atk, err := attackByName(tc.attack)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("attackByName(%q) = %v, want an error", tc.attack, atk)
				}
				msg := err.Error()
				if !strings.Contains(msg, `"`+tc.attack+`"`) {
					t.Errorf("error %q does not name the bad attack", msg)
				}
				if !strings.Contains(msg, strings.Join(valid, ", ")) {
					t.Errorf("error %q does not list the valid attacks %v", msg, valid)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := ""
			if atk != nil {
				got = atk.Name
			}
			if got != tc.want {
				t.Errorf("attackByName(%q) armed %q, want %q", tc.attack, got, tc.want)
			}
		})
	}
}
