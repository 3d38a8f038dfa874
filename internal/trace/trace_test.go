package trace

import (
	"testing"

	"lofat/internal/isa"
)

func TestIsBackward(t *testing.T) {
	cases := []struct {
		e    Event
		want bool
	}{
		{Event{PC: 0x120, NextPC: 0x100, Kind: isa.KindCondBr, Taken: true}, true},
		{Event{PC: 0x100, NextPC: 0x120, Kind: isa.KindCondBr, Taken: true}, false},
		{Event{PC: 0x120, NextPC: 0x100, Kind: isa.KindCondBr, Taken: false}, false},
		{Event{PC: 0x120, NextPC: 0x100, Kind: isa.KindNone, Taken: true}, false},
		{Event{PC: 0x120, NextPC: 0x100, Kind: isa.KindJump, Taken: true}, true},
		{Event{PC: 0x120, NextPC: 0x120, Kind: isa.KindJump, Taken: true}, false}, // self is not backward
	}
	for i, c := range cases {
		if got := c.e.IsBackward(); got != c.want {
			t.Errorf("case %d: IsBackward = %v, want %v", i, got, c.want)
		}
	}
}

func TestSrcDest(t *testing.T) {
	e := Event{PC: 0xAAAA, NextPC: 0xBBBB}
	s, d := e.SrcDest()
	if s != 0xAAAA || d != 0xBBBB {
		t.Errorf("SrcDest = %#x, %#x", s, d)
	}
}

func TestIsInterrupt(t *testing.T) {
	cases := []struct {
		kind isa.ControlFlowKind
		want bool
	}{
		{isa.KindNone, false},
		{isa.KindCondBr, false},
		{isa.KindJump, false},
		{isa.KindIndirect, false},
		{isa.KindReturn, false},
		{isa.KindIRQEnter, true},
		{isa.KindIRQRet, true},
	}
	for _, c := range cases {
		if got := (Event{Kind: c.kind}).IsInterrupt(); got != c.want {
			t.Errorf("IsInterrupt() = %v for %v, want %v", got, c.kind, c.want)
		}
	}
}
