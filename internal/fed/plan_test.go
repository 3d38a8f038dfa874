package fed

import (
	"reflect"
	"testing"

	"lofat/internal/fleet"
)

func TestPlanWave(t *testing.T) {
	type devs = []fleet.DeviceID
	up := nodeView{}
	cases := []struct {
		name      string
		remaining devs
		owners    map[fleet.DeviceID][]NodeID
		next      map[fleet.DeviceID]int
		nodes     map[NodeID]nodeView
		probeIdle bool
		want      wavePlan
	}{
		{
			name:      "dead primary goes to the next replica",
			remaining: devs{"d1", "d2"},
			owners:    map[fleet.DeviceID][]NodeID{"d1": {"a", "b"}, "d2": {"b", "c"}},
			nodes:     map[NodeID]nodeView{"a": {dead: true}, "b": up, "c": up},
			want: wavePlan{
				groups: map[NodeID]devs{"b": {"d1", "d2"}},
				picked: map[fleet.DeviceID]int{"d1": 1, "d2": 0},
			},
		},
		{
			name:      "cursor skips replicas already tried",
			remaining: devs{"d1"},
			owners:    map[fleet.DeviceID][]NodeID{"d1": {"a", "b", "c"}},
			next:      map[fleet.DeviceID]int{"d1": 2},
			nodes:     map[NodeID]nodeView{"a": up, "b": up, "c": up},
			want: wavePlan{
				groups: map[NodeID]devs{"c": {"d1"}},
				picked: map[fleet.DeviceID]int{"d1": 2},
			},
		},
		{
			name:      "a lame replica is passed over while a healthy one is left",
			remaining: devs{"d1"},
			owners:    map[fleet.DeviceID][]NodeID{"d1": {"a", "b"}},
			nodes:     map[NodeID]nodeView{"a": {lame: true}, "b": up},
			want: wavePlan{
				groups: map[NodeID]devs{"b": {"d1"}},
				picked: map[fleet.DeviceID]int{"d1": 1},
			},
		},
		{
			name:      "a lame replica is the last resort",
			remaining: devs{"d1"},
			owners:    map[fleet.DeviceID][]NodeID{"d1": {"a", "b", "gone"}},
			nodes:     map[NodeID]nodeView{"a": {lame: true}, "b": {dead: true}},
			want: wavePlan{
				groups: map[NodeID]devs{"a": {"d1"}},
				picked: map[fleet.DeviceID]int{"d1": 0},
			},
		},
		{
			name:      "every owner dead gives uncovered",
			remaining: devs{"d1", "d2"},
			owners:    map[fleet.DeviceID][]NodeID{"d1": {"a", "b"}, "d2": {"c"}},
			nodes:     map[NodeID]nodeView{"a": {dead: true}, "b": {dead: true}, "c": up},
			want: wavePlan{
				groups:    map[NodeID]devs{"c": {"d2"}},
				picked:    map[fleet.DeviceID]int{"d2": 0},
				uncovered: devs{"d1"},
			},
		},
		{
			name:      "an owner-less member still gets its wave-1 probe",
			remaining: devs{"d1"},
			owners:    map[fleet.DeviceID][]NodeID{"d1": {"a"}},
			nodes:     map[NodeID]nodeView{"a": up, "idle": up, "idle-lame": {lame: true}, "down": {dead: true}},
			probeIdle: true,
			want: wavePlan{
				groups: map[NodeID]devs{"a": {"d1"}, "idle": nil, "idle-lame": nil},
				picked: map[fleet.DeviceID]int{"d1": 0},
			},
		},
		{
			name:      "later waves contact only acting nodes",
			remaining: devs{"d1"},
			owners:    map[fleet.DeviceID][]NodeID{"d1": {"a"}},
			nodes:     map[NodeID]nodeView{"a": up, "idle": up},
			want: wavePlan{
				groups: map[NodeID]devs{"a": {"d1"}},
				picked: map[fleet.DeviceID]int{"d1": 0},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := planWave(tc.remaining, tc.owners, tc.next, tc.nodes, tc.probeIdle)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("planWave\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// A breaker-open node is never placed on, and is handed back as skipped
// exactly once: the caller marks it dead, which is all a later wave of
// the same sweep sees.
func TestPlanWaveBreakerSkippedOnce(t *testing.T) {
	remaining := []fleet.DeviceID{"d1"}
	owners := map[fleet.DeviceID][]NodeID{"d1": {"a", "b"}}
	nodes := map[NodeID]nodeView{"a": {open: true}, "b": {}, "z": {open: true}}

	p := planWave(remaining, owners, nil, nodes, true)
	if want := []NodeID{"a", "z"}; !reflect.DeepEqual(p.skipped, want) {
		t.Fatalf("wave 1 skipped %v, want %v", p.skipped, want)
	}
	if want := map[NodeID][]fleet.DeviceID{"b": {"d1"}}; !reflect.DeepEqual(p.groups, want) {
		t.Fatalf("wave 1 groups %v, want %v (no exchange with a skipped node)", p.groups, want)
	}
	for _, n := range p.skipped { // what Coordinator.Sweep does with them
		v := nodes[n]
		v.dead = true
		nodes[n] = v
	}
	if p = planWave(remaining, owners, nil, nodes, false); len(p.skipped) != 0 {
		t.Fatalf("wave 2 skipped %v again", p.skipped)
	}
}
