package fed

import (
	"reflect"
	"testing"

	"lofat/internal/fleet"
)

// TestPayloadRoundTrip drives every control-plane payload shape
// through encodePayload/decodePayload and requires the decoded value
// to match exactly — the round-trip witness the walcodec analyzer
// demands for the gob payload layer.
func TestPayloadRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   any
		out  func() any
	}{
		{
			name: "sweepReq",
			in: &sweepReq{
				Devices:   []fleet.DeviceID{"pump-1", "pump-2"},
				WantDelta: true,
			},
			out: func() any { return new(sweepReq) },
		},
		{
			name: "deviceReq",
			in:   &deviceReq{Device: "pump-7"},
			out:  func() any { return new(deviceReq) },
		},
		{
			name: "fetchReq",
			in:   &fetchReq{Devices: []fleet.DeviceID{"a", "b", "c"}},
			out:  func() any { return new(fetchReq) },
		},
		{
			name: "okResp",
			in:   &okResp{Node: "node-3"},
			out:  func() any { return new(okResp) },
		},
		{
			name: "stateResp",
			in:   &stateResp{Found: true, State: fleet.DeviceState{ID: "pump-7", Quarantined: true, Rounds: 4}},
			out:  func() any { return new(stateResp) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := encodePayload(tc.in)
			if err != nil {
				t.Fatalf("encodePayload: %v", err)
			}
			got := tc.out()
			if err := decodePayload(b, got); err != nil {
				t.Fatalf("decodePayload: %v", err)
			}
			if !reflect.DeepEqual(got, tc.in) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tc.in)
			}
		})
	}
}

// TestDecodePayloadCorrupt requires decodePayload to fail cleanly, not
// panic, on truncated and garbage input.
func TestDecodePayloadCorrupt(t *testing.T) {
	b, err := encodePayload(&sweepReq{Devices: []fleet.DeviceID{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(b) / 2, len(b) - 1} {
		if err := decodePayload(b[:cut], new(sweepReq)); err == nil {
			t.Errorf("decodePayload accepted %d/%d truncated bytes", cut, len(b))
		}
	}
	if err := decodePayload([]byte("not a gob stream"), new(sweepReq)); err == nil {
		t.Error("decodePayload accepted garbage")
	}
}
