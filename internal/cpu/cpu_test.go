package cpu

import (
	"strings"
	"testing"

	"lofat/internal/isa"
	"lofat/internal/trace"
)

// run assembles, loads and runs a program to completion, returning the CPU.
func run(t *testing.T, src string) *CPU {
	t.Helper()
	m := MustLoadSource(src)
	if err := m.CPU.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m.CPU
}

const exitSeq = `
	li a7, 93
	ecall
`

func TestArithmetic(t *testing.T) {
	c := run(t, `
	main:
		li   a0, 7
		li   a1, 5
		add  a2, a0, a1    # 12
		sub  a3, a0, a1    # 2
		mul  a4, a0, a1    # 35
		div  a5, a0, a1    # 1
		rem  t0, a0, a1    # 2
		xor  t1, a0, a1    # 2
		or   t2, a0, a1    # 7
		and  t3, a0, a1    # 5
		slli t4, a0, 2     # 28
		srai t5, a3, 1     # 1
	`+exitSeq)
	checks := map[isa.Reg]uint32{
		isa.A2: 12, isa.A3: 2, isa.A4: 35, isa.A5: 1,
		isa.T0: 2, isa.T1: 2, isa.T2: 7, isa.T3: 5,
		isa.T4: 28, isa.T5: 1,
	}
	for r, want := range checks {
		if got := c.Regs[r]; got != want {
			t.Errorf("%s = %d, want %d", r.Name(), got, want)
		}
	}
}

func TestSignedUnsignedCompares(t *testing.T) {
	c := run(t, `
	main:
		li   a0, -1
		li   a1, 1
		slt  a2, a0, a1    # -1 < 1 signed: 1
		sltu a3, a0, a1    # 0xFFFFFFFF < 1 unsigned: 0
		slti a4, a0, 0     # 1
		sltiu a5, a1, 2    # 1
	`+exitSeq)
	if c.Regs[isa.A2] != 1 || c.Regs[isa.A3] != 0 || c.Regs[isa.A4] != 1 || c.Regs[isa.A5] != 1 {
		t.Errorf("compare results = %d %d %d %d",
			c.Regs[isa.A2], c.Regs[isa.A3], c.Regs[isa.A4], c.Regs[isa.A5])
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	c := run(t, `
	main:
		li   a0, 10
		li   a1, 0
		div  a2, a0, a1    # div by zero: -1
		rem  a3, a0, a1    # rem by zero: dividend
		divu a4, a0, a1    # 0xFFFFFFFF
		li   a0, 0x80000000
		li   a1, -1
		div  a5, a0, a1    # overflow: 0x80000000
		rem  t0, a0, a1    # overflow: 0
	`+exitSeq)
	if c.Regs[isa.A2] != 0xFFFFFFFF {
		t.Errorf("div/0 = %#x", c.Regs[isa.A2])
	}
	if c.Regs[isa.A3] != 10 {
		t.Errorf("rem/0 = %d", c.Regs[isa.A3])
	}
	if c.Regs[isa.A4] != 0xFFFFFFFF {
		t.Errorf("divu/0 = %#x", c.Regs[isa.A4])
	}
	if c.Regs[isa.A5] != 0x80000000 {
		t.Errorf("div overflow = %#x", c.Regs[isa.A5])
	}
	if c.Regs[isa.T0] != 0 {
		t.Errorf("rem overflow = %d", c.Regs[isa.T0])
	}
}

func TestMulh(t *testing.T) {
	c := run(t, `
	main:
		li a0, 0x40000000
		li a1, 4
		mulh   a2, a0, a1   # (2^30 * 4) >> 32 = 1
		mulhu  a3, a0, a1   # 1
		li a0, -1
		li a1, -1
		mulh   a4, a0, a1   # (-1 * -1) >> 32 = 0
		mulhu  a5, a0, a1   # (2^32-1)^2 >> 32 = 0xFFFFFFFE
		mulhsu t0, a0, a1   # -1 * (2^32-1) >> 32 = 0xFFFFFFFF
	`+exitSeq)
	if c.Regs[isa.A2] != 1 || c.Regs[isa.A3] != 1 {
		t.Errorf("mulh/mulhu = %d, %d", c.Regs[isa.A2], c.Regs[isa.A3])
	}
	if c.Regs[isa.A4] != 0 {
		t.Errorf("mulh(-1,-1) = %#x", c.Regs[isa.A4])
	}
	if c.Regs[isa.A5] != 0xFFFFFFFE {
		t.Errorf("mulhu(-1,-1) = %#x", c.Regs[isa.A5])
	}
	if c.Regs[isa.T0] != 0xFFFFFFFF {
		t.Errorf("mulhsu(-1,-1) = %#x", c.Regs[isa.T0])
	}
}

func TestLoadsStores(t *testing.T) {
	c := run(t, `
		.data
	buf:
		.space 16
		.text
	main:
		la   a0, buf
		li   a1, 0x80FF1234
		sw   a1, 0(a0)
		lw   a2, 0(a0)
		lb   a3, 3(a0)     # 0x80 sign-extended
		lbu  a4, 3(a0)     # 0x80
		lh   a5, 0(a0)     # 0x1234
		lhu  t0, 2(a0)     # 0x80FF
		sb   a1, 8(a0)
		lbu  t1, 8(a0)     # 0x34
		sh   a1, 12(a0)
		lhu  t2, 12(a0)    # 0x1234
	`+exitSeq)
	if c.Regs[isa.A2] != 0x80FF1234 {
		t.Errorf("lw = %#x", c.Regs[isa.A2])
	}
	if c.Regs[isa.A3] != 0xFFFFFF80 {
		t.Errorf("lb sign = %#x", c.Regs[isa.A3])
	}
	if c.Regs[isa.A4] != 0x80 {
		t.Errorf("lbu = %#x", c.Regs[isa.A4])
	}
	if c.Regs[isa.A5] != 0x1234 {
		t.Errorf("lh = %#x", c.Regs[isa.A5])
	}
	if c.Regs[isa.T0] != 0x80FF {
		t.Errorf("lhu = %#x", c.Regs[isa.T0])
	}
	if c.Regs[isa.T1] != 0x34 || c.Regs[isa.T2] != 0x1234 {
		t.Errorf("sb/sh = %#x, %#x", c.Regs[isa.T1], c.Regs[isa.T2])
	}
}

func TestLoopAndCall(t *testing.T) {
	// sum 1..10 via a helper function.
	c := run(t, `
	main:
		li   a0, 10
		call sum
		mv   s0, a0
	`+exitSeq+`
	sum:                    # a0 = n -> a0 = sum(1..n)
		li   t0, 0
		li   t1, 1
	sum_loop:
		bgt  t1, a0, sum_done
		add  t0, t0, t1
		addi t1, t1, 1
		j    sum_loop
	sum_done:
		mv   a0, t0
		ret
	`)
	if c.Regs[isa.S0] != 55 {
		t.Errorf("sum(10) = %d, want 55", c.Regs[isa.S0])
	}
}

func TestX0IsHardwiredZero(t *testing.T) {
	c := run(t, `
	main:
		li   t0, 99
		add  zero, t0, t0
		mv   a0, zero
	`+exitSeq)
	if c.Regs[isa.Zero] != 0 || c.Regs[isa.A0] != 0 {
		t.Errorf("x0 = %d, a0 = %d", c.Regs[isa.Zero], c.Regs[isa.A0])
	}
}

func TestEcallIO(t *testing.T) {
	m := MustLoadSource(`
	main:
		li   a7, 63        # getword
		ecall
		mv   s0, a0
		ecall              # second word
		mv   s1, a0
		ecall              # exhausted: 0
		mv   s2, a0
		li   a0, 'h'
		li   a7, 64        # putchar
		ecall
		li   a0, 'i'
		ecall
		li   a0, 7
		li   a7, 93
		ecall
	`)
	m.CPU.Input = []uint32{111, 222}
	if err := m.CPU.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if m.CPU.Regs[isa.S0] != 111 || m.CPU.Regs[isa.S1] != 222 || m.CPU.Regs[isa.S2] != 0 {
		t.Errorf("getword = %d, %d, %d", m.CPU.Regs[isa.S0], m.CPU.Regs[isa.S1], m.CPU.Regs[isa.S2])
	}
	if string(m.CPU.Output) != "hi" {
		t.Errorf("output = %q", m.CPU.Output)
	}
	if m.CPU.ExitCode != 7 || !m.CPU.Halted {
		t.Errorf("exit = %d, halted = %v", m.CPU.ExitCode, m.CPU.Halted)
	}
}

func TestTraceEvents(t *testing.T) {
	m := MustLoadSource(`
	main:
		li   a0, 2
	loop:
		addi a0, a0, -1
		bnez a0, loop
		call f
	` + exitSeq + `
	f:
		ret
	`)
	rec := &batchRecorder{}
	m.CPU.TraceBatch = rec
	if err := m.CPU.Run(10_000); err != nil {
		t.Fatal(err)
	}
	events := rec.events

	var kinds []isa.ControlFlowKind
	for _, e := range events {
		if e.Kind != isa.KindNone {
			kinds = append(kinds, e.Kind)
		}
	}
	// bnez taken, bnez not-taken, call, ret.
	want := []isa.ControlFlowKind{isa.KindCondBr, isa.KindCondBr, isa.KindJump, isa.KindReturn}
	if len(kinds) != len(want) {
		t.Fatalf("control-flow events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}

	// The taken bnez must be a backward event (loop back-edge).
	var takenBr *trace.Event
	for i := range events {
		if events[i].Kind == isa.KindCondBr && events[i].Taken {
			takenBr = &events[i]
			break
		}
	}
	if takenBr == nil || !takenBr.IsBackward() {
		t.Errorf("taken bnez not detected as backward: %+v", takenBr)
	}

	// Call is linking, ret is not.
	var call, ret *trace.Event
	for i := range events {
		switch events[i].Kind {
		case isa.KindJump:
			call = &events[i]
		case isa.KindReturn:
			ret = &events[i]
		}
	}
	if call == nil || !call.Linking {
		t.Errorf("call not linking: %+v", call)
	}
	if ret == nil || ret.Linking {
		t.Errorf("ret is linking: %+v", ret)
	}
}

func TestCycleModel(t *testing.T) {
	m := MustLoadSource(`
	main:
		addi a0, a0, 1
		addi a0, a0, 1
	` + exitSeq)
	if err := m.CPU.Run(100); err != nil {
		t.Fatal(err)
	}
	// 2x addi (base) + li a7 (base) + ecall (base+ecall extra)
	want := 4*DefaultCostModel.Base + DefaultCostModel.EcallExtra
	if m.CPU.Cycle != want {
		t.Errorf("cycles = %d, want %d", m.CPU.Cycle, want)
	}
	if m.CPU.Retired != 4 {
		t.Errorf("retired = %d, want 4", m.CPU.Retired)
	}
}

func TestFaults(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string
	}{
		{"store to code", "main:\n la t0, main\n sw t0, 0(t0)\n" + exitSeq, "fault"},
		{"unmapped load", "main:\n li t0, 0x40000000\n lw t1, 0(t0)\n" + exitSeq, "fault"},
		{"unknown ecall", "main:\n li a7, 999\n ecall\n" + exitSeq, "unknown ecall"},
		{"ebreak", "main:\n ebreak\n" + exitSeq, "ebreak"},
		{"runaway", "main:\n j main\n", "budget"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := MustLoadSource(c.src)
			err := m.CPU.Run(10_000)
			if err == nil {
				t.Fatal("run succeeded, want error")
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("error %q does not contain %q", err, c.frag)
			}
		})
	}
}

func TestIndirectJumpTable(t *testing.T) {
	// Classic switch dispatch through a jump table: jalr through a
	// loaded function pointer (KindIndirect for LO-FAT).
	c := run(t, `
		.data
	table:
		.word f0, f1
		.text
	main:
		li   s0, 1          # select f1
		la   t0, table
		slli t1, s0, 2
		add  t0, t0, t1
		lw   t2, 0(t0)
		jalr ra, 0(t2)
		mv   s1, a0
	`+exitSeq+`
	f0:
		li a0, 100
		ret
	f1:
		li a0, 200
		ret
	`)
	if c.Regs[isa.S1] != 200 {
		t.Errorf("indirect dispatch = %d, want 200", c.Regs[isa.S1])
	}
}

func TestStepAfterHalt(t *testing.T) {
	m := MustLoadSource("main:" + exitSeq)
	if err := m.CPU.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := m.CPU.Step(); err == nil {
		t.Error("Step after halt succeeded")
	}
}

func TestReset(t *testing.T) {
	m := MustLoadSource(`
	main:
		li a0, 5
	` + exitSeq)
	if err := m.CPU.Run(100); err != nil {
		t.Fatal(err)
	}
	c1, r1 := m.CPU.Cycle, m.CPU.Retired
	m.CPU.Reset(m.Entry, m.StackTop)
	if m.CPU.Halted || m.CPU.Cycle != 0 || m.CPU.Retired != 0 || m.CPU.Regs[isa.A0] != 0 {
		t.Error("Reset did not clear state")
	}
	if err := m.CPU.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.CPU.Cycle != c1 || m.CPU.Retired != r1 {
		t.Errorf("re-run diverged: %d/%d vs %d/%d", m.CPU.Cycle, m.CPU.Retired, c1, r1)
	}
}
