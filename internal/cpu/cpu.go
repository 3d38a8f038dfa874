// Package cpu is a behavioural model of the Pulpino-class 32-bit RISC-V
// core the paper prototypes on: a single in-order RV32IM core for
// low-end embedded systems. It executes one instruction per Step with a
// simple cycle-cost model (§6.1 cares about *relative* overheads — the
// C-FLAT baseline's instrumentation cycles vs. LO-FAT's zero stalls —
// not absolute IPC), and publishes every retired instruction on a trace
// port that LO-FAT taps in parallel, exactly as the hardware does.
//
// The one trace port (TraceBatch) buffers events and delivers them in
// batches, optionally masked to control-flow events only (TraceCFOnly),
// and Syncs the observer clock at flush points (halt included, even when
// the exit ecall is masked). An event is built only if the port takes it:
// the millions of ALU retirements a branch filter would discard anyway,
// and every retirement of an unobserved core, never become one. Driven
// by Step with FlushTrace after every step and left unmasked, the port
// delivers every event before the next instruction retires; that is the
// per-event reference the differential tests compare Run's batches
// against.
package cpu

import (
	"fmt"

	"lofat/internal/isa"
	"lofat/internal/mem"
	"lofat/internal/trace"
)

// CostModel holds per-instruction-class cycle costs for the in-order
// pipeline. Defaults approximate the 4-stage Pulpino RI5CY core.
type CostModel struct {
	Base       uint64 // every instruction
	TakenExtra uint64 // extra cycles for a taken control transfer (flush)
	LoadExtra  uint64 // extra cycles for loads (use-stall upper bound)
	MulExtra   uint64 // extra cycles for multiply
	DivExtra   uint64 // extra cycles for divide/remainder
	EcallExtra uint64 // privileged-trap entry cost
	IRQExtra   uint64 // interrupt-entry cost (pipeline flush + vector fetch)
}

// DefaultCostModel approximates the Pulpino RI5CY timing.
var DefaultCostModel = CostModel{
	Base:       1,
	TakenExtra: 2,
	LoadExtra:  1,
	MulExtra:   0,
	DivExtra:   34,
	EcallExtra: 4,
	IRQExtra:   4,
}

// IRQSchedule is a deterministic model of the core's single external
// interrupt line: the line asserts at cycle Phase and every Period
// cycles thereafter, and each assertion dispatches to Vector as soon as
// the core is between instructions and not already in a handler (the
// model has one privilege level and no nesting, like the Pulpino event
// unit configured for a single line). A zero Vector disables the line
// entirely; interrupt-free runs are bit-identical to a core without the
// feature. Determinism is the point: the same schedule against the same
// program and input replays the identical interleaving, so golden
// measurements of ISR-driven firmware are reproducible.
type IRQSchedule struct {
	Vector uint32 // handler entry address; 0 disables the interrupt line
	Phase  uint64 // cycle at which the line first asserts
	Period uint64 // cycles between assertions; 0 means assert exactly once
	Count  uint64 // maximum number of assertions; 0 means unlimited
}

// Ecall numbers understood by the simulator (a7 selects the call).
const (
	EcallExit    = 93 // a0 = exit code
	EcallPutchar = 64 // a0 = byte to append to console output
	EcallGetword = 63 // returns next verifier-input word in a0 (0 when exhausted)
)

// TraceBatchSize is how many buffered events the batched trace port
// delivers per RetireBatch call.
const TraceBatchSize = 256

// ExecError wraps a fault with the PC and cycle at which it occurred.
type ExecError struct {
	PC    uint32
	Cycle uint64
	Err   error
}

// Error implements error.
func (e *ExecError) Error() string {
	return fmt.Sprintf("cpu: at pc=%#08x cycle=%d: %v", e.PC, e.Cycle, e.Err)
}

// Unwrap exposes the underlying fault.
func (e *ExecError) Unwrap() error { return e.Err }

// predecoded is one instruction-cache line: the decoded instruction plus
// the control-flow metadata the trace port publishes, computed once at
// load time instead of per retirement.
type predecoded struct {
	inst    isa.Inst
	word    uint32
	kind    isa.ControlFlowKind
	linking bool
	valid   bool // false: the word does not decode (error surfaced on execution)
}

// CPU is the architectural state of the core.
type CPU struct {
	Regs [isa.NumRegs]uint32
	PC   uint32
	Mem  *mem.Memory

	// Cycle is the current clock cycle (monotonic; includes cost-model
	// stalls).
	Cycle uint64
	// Retired counts retired instructions.
	Retired uint64

	// Halted is set once the program executes the exit ecall.
	Halted   bool
	ExitCode uint32

	// Costs is the pipeline cycle-cost model.
	Costs CostModel

	// TraceBatch is the trace port: events are buffered and delivered in
	// batches of up to TraceBatchSize, with a clock Sync at halt. Nil
	// disables it.
	TraceBatch trace.BatchSink
	// TraceCFOnly masks the port to control-flow events: no
	// event is even built for any other retirement. Only exact for
	// observers that do not key internal state to non-control-flow
	// retirements (see core.Device.CFOnlyCompatible).
	TraceCFOnly bool

	// Input is the verifier-supplied input word stream i (§3), consumed
	// by EcallGetword.
	Input []uint32
	// Output accumulates EcallPutchar bytes.
	Output []byte

	// IRQ configures the deterministic interrupt line; the zero value
	// disables it.
	IRQ IRQSchedule

	inputPos int

	// Interrupt state: epc is the PC the handler returns to via mret,
	// inISR blocks nested dispatch, irqTaken counts dispatches so the
	// next assertion cycle (Phase + irqTaken*Period) needs no timer
	// state that could drift across Reset.
	epc      uint32
	inISR    bool
	irqTaken uint64

	// Predecoded instruction cache over the rx text segment (immutable
	// after load: the adversary cannot write executable memory, so the
	// cache can never go stale). PCs outside it fall back to
	// Mem.Fetch + isa.Decode.
	icache     []predecoded
	icacheBase uint32

	batch []trace.Event
}

// New returns a CPU over the given memory with the default cost model.
// The stack pointer must be set by the caller (or via Reset).
func New(m *mem.Memory) *CPU {
	return &CPU{Mem: m, Costs: DefaultCostModel, batch: make([]trace.Event, 0, TraceBatchSize)}
}

// Reset prepares the core to run from entry with the given stack top.
// The instruction cache, if any, is retained: the rx image is unchanged.
//
//lofat:zeroalloc
func (c *CPU) Reset(entry, stackTop uint32) {
	c.Regs = [isa.NumRegs]uint32{}
	c.Regs[isa.SP] = stackTop
	c.PC = entry
	c.Cycle = 0
	c.Retired = 0
	c.Halted = false
	c.ExitCode = 0
	c.Output = c.Output[:0]
	c.inputPos = 0
	c.batch = c.batch[:0]
	c.epc = 0
	c.inISR = false
	c.irqTaken = 0
}

// InISR reports whether the core is currently executing an interrupt
// handler (between vector dispatch and mret).
//
//lofat:zeroalloc
func (c *CPU) InISR() bool { return c.inISR }

// IRQsTaken reports how many interrupt dispatches have occurred since
// Reset.
//
//lofat:zeroalloc
func (c *CPU) IRQsTaken() uint64 { return c.irqTaken }

// Predecode decodes a text image once into the instruction cache. base
// must be 4-byte aligned. Words that do not decode are cached as invalid
// and surface the identical decode error if the PC ever reaches them.
func (c *CPU) Predecode(base uint32, text []byte) {
	n := len(text) / 4
	c.icacheBase = base
	if cap(c.icache) >= n {
		c.icache = c.icache[:n]
	} else {
		c.icache = make([]predecoded, n)
	}
	for i := 0; i < n; i++ {
		word := uint32(text[4*i]) | uint32(text[4*i+1])<<8 |
			uint32(text[4*i+2])<<16 | uint32(text[4*i+3])<<24
		p := predecoded{word: word}
		if in, err := isa.Decode(word); err == nil {
			p.inst = in
			p.kind = isa.Classify(in)
			p.linking = isa.IsLinking(in)
			p.valid = true
		}
		c.icache[i] = p
	}
}

// ClearPredecode drops the instruction cache, forcing a fetch+decode per
// step. Kept so differential tests can pin the seed slow path.
func (c *CPU) ClearPredecode() {
	c.icache = nil
	c.icacheBase = 0
}

// Step fetches, decodes and executes one instruction, advancing the
// cycle counter per the cost model and publishing the retirement event.
func (c *CPU) Step() error {
	if c.Halted {
		return fmt.Errorf("cpu: step after halt")
	}
	return c.step()
}

// step is Step without the halt guard (hoisted by Run's loop condition).
//
//lofat:zeroalloc
func (c *CPU) step() error {
	if c.IRQ.Vector != 0 && c.pendingIRQ() {
		c.takeIRQ()
	}
	pc := c.PC
	if off := pc - c.icacheBase; off&3 == 0 && uint64(off)>>2 < uint64(len(c.icache)) {
		p := &c.icache[off>>2]
		if !p.valid {
			//lofat:ignore zeroalloc cold fault path: re-decoding an invalid word ends the run
			_, err := isa.Decode(p.word)
			//lofat:ignore zeroalloc cold fault path: the run is over once an ExecError exists
			return &ExecError{PC: pc, Cycle: c.Cycle, Err: err}
		}
		return c.exec(pc, p)
	}
	word, err := c.Mem.Fetch(pc)
	if err != nil {
		//lofat:ignore zeroalloc cold fault path: the run is over once an ExecError exists
		return &ExecError{PC: pc, Cycle: c.Cycle, Err: err}
	}
	//lofat:ignore zeroalloc uncached decode is the pinned slow path (ClearPredecode harnesses only)
	in, err := isa.Decode(word)
	if err != nil {
		//lofat:ignore zeroalloc cold fault path: the run is over once an ExecError exists
		return &ExecError{PC: pc, Cycle: c.Cycle, Err: err}
	}
	p := predecoded{
		inst:    in,
		word:    word,
		kind:    isa.Classify(in),
		linking: isa.IsLinking(in),
		valid:   true,
	}
	return c.exec(pc, &p)
}

// pendingIRQ reports whether the interrupt line is asserted and
// dispatchable. The check is stateless over (Cycle, irqTaken) so the
// schedule replays identically no matter when IRQ was assigned relative
// to Reset: the nth dispatch is due once Cycle reaches
// Phase + n*Period, dispatch is blocked inside a handler, and Count
// (when non-zero) caps the total. Period 0 degenerates to a one-shot.
//
//lofat:zeroalloc
func (c *CPU) pendingIRQ() bool {
	if c.inISR {
		return false
	}
	if c.IRQ.Count != 0 && c.irqTaken >= c.IRQ.Count {
		return false
	}
	if c.IRQ.Period == 0 {
		return c.irqTaken == 0 && c.Cycle >= c.IRQ.Phase
	}
	return c.Cycle >= c.IRQ.Phase+c.irqTaken*c.IRQ.Period
}

// takeIRQ performs the hardware vector dispatch: save the interrupted
// PC, redirect to the vector, charge the entry cost, and publish a
// KindIRQEnter pseudo-event on the trace port. The event's (PC, NextPC)
// pair is (interrupted PC, vector) — the asynchronous edge the branch
// filter measures, bound to the exact interruption point. No
// instruction retires: Retired is untouched and Word/Inst are zero.
//
//lofat:zeroalloc
func (c *CPU) takeIRQ() {
	epc := c.PC
	c.epc = epc
	c.inISR = true
	c.irqTaken++
	c.Cycle += c.Costs.IRQExtra
	c.PC = c.IRQ.Vector
	if c.takes(isa.KindIRQEnter) {
		c.emit(trace.Event{
			Cycle:  c.Cycle,
			PC:     epc,
			Kind:   isa.KindIRQEnter,
			Taken:  true,
			NextPC: c.IRQ.Vector,
		})
	}
}

// set writes a register, honouring the hardwired x0.
//
//lofat:zeroalloc
func (c *CPU) set(r isa.Reg, v uint32) {
	if r != isa.Zero {
		c.Regs[r] = v
	}
}

// exec executes one predecoded instruction at pc: the flattened hot
// loop body, reading and writing the register file directly.
//
//lofat:zeroalloc
func (c *CPU) exec(pc uint32, p *predecoded) error {
	in := p.inst
	cost := c.Costs.Base
	nextPC := pc + 4
	taken := false
	var err error

	switch in.Op {
	case isa.OpLUI:
		c.set(in.Rd, uint32(in.Imm))
	case isa.OpAUIPC:
		c.set(in.Rd, pc+uint32(in.Imm))

	case isa.OpJAL:
		c.set(in.Rd, pc+4)
		nextPC = pc + uint32(in.Imm)
		taken = true
		cost += c.Costs.TakenExtra
	case isa.OpJALR:
		t := (c.Regs[in.Rs1] + uint32(in.Imm)) &^ 1
		c.set(in.Rd, pc+4)
		nextPC = t
		taken = true
		cost += c.Costs.TakenExtra

	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		a, b := c.Regs[in.Rs1], c.Regs[in.Rs2]
		switch in.Op {
		case isa.OpBEQ:
			taken = a == b
		case isa.OpBNE:
			taken = a != b
		case isa.OpBLT:
			taken = int32(a) < int32(b)
		case isa.OpBGE:
			taken = int32(a) >= int32(b)
		case isa.OpBLTU:
			taken = a < b
		case isa.OpBGEU:
			taken = a >= b
		}
		if taken {
			nextPC = pc + uint32(in.Imm)
			cost += c.Costs.TakenExtra
		}

	case isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLBU, isa.OpLHU:
		addr := c.Regs[in.Rs1] + uint32(in.Imm)
		var v uint32
		switch in.Op {
		case isa.OpLB:
			b, e := c.Mem.LoadByte(addr)
			v, err = uint32(int32(int8(b))), e
		case isa.OpLBU:
			b, e := c.Mem.LoadByte(addr)
			v, err = uint32(b), e
		case isa.OpLH:
			h, e := c.Mem.LoadHalf(addr)
			v, err = uint32(int32(int16(h))), e
		case isa.OpLHU:
			h, e := c.Mem.LoadHalf(addr)
			v, err = uint32(h), e
		case isa.OpLW:
			v, err = c.Mem.LoadWord(addr)
		}
		if err != nil {
			//lofat:ignore zeroalloc cold fault path: the run is over once an ExecError exists
			return &ExecError{PC: pc, Cycle: c.Cycle, Err: err}
		}
		c.set(in.Rd, v)
		cost += c.Costs.LoadExtra

	case isa.OpSB, isa.OpSH, isa.OpSW:
		addr := c.Regs[in.Rs1] + uint32(in.Imm)
		v := c.Regs[in.Rs2]
		switch in.Op {
		case isa.OpSB:
			err = c.Mem.StoreByte(addr, byte(v))
		case isa.OpSH:
			err = c.Mem.StoreHalf(addr, uint16(v))
		case isa.OpSW:
			err = c.Mem.StoreWord(addr, v)
		}
		if err != nil {
			//lofat:ignore zeroalloc cold fault path: the run is over once an ExecError exists
			return &ExecError{PC: pc, Cycle: c.Cycle, Err: err}
		}

	case isa.OpADDI:
		c.set(in.Rd, c.Regs[in.Rs1]+uint32(in.Imm))
	case isa.OpSLTI:
		c.set(in.Rd, boolToU32(int32(c.Regs[in.Rs1]) < in.Imm))
	case isa.OpSLTIU:
		c.set(in.Rd, boolToU32(c.Regs[in.Rs1] < uint32(in.Imm)))
	case isa.OpXORI:
		c.set(in.Rd, c.Regs[in.Rs1]^uint32(in.Imm))
	case isa.OpORI:
		c.set(in.Rd, c.Regs[in.Rs1]|uint32(in.Imm))
	case isa.OpANDI:
		c.set(in.Rd, c.Regs[in.Rs1]&uint32(in.Imm))
	case isa.OpSLLI:
		c.set(in.Rd, c.Regs[in.Rs1]<<uint(in.Imm))
	case isa.OpSRLI:
		c.set(in.Rd, c.Regs[in.Rs1]>>uint(in.Imm))
	case isa.OpSRAI:
		c.set(in.Rd, uint32(int32(c.Regs[in.Rs1])>>uint(in.Imm)))

	case isa.OpADD:
		c.set(in.Rd, c.Regs[in.Rs1]+c.Regs[in.Rs2])
	case isa.OpSUB:
		c.set(in.Rd, c.Regs[in.Rs1]-c.Regs[in.Rs2])
	case isa.OpSLL:
		c.set(in.Rd, c.Regs[in.Rs1]<<(c.Regs[in.Rs2]&31))
	case isa.OpSLT:
		c.set(in.Rd, boolToU32(int32(c.Regs[in.Rs1]) < int32(c.Regs[in.Rs2])))
	case isa.OpSLTU:
		c.set(in.Rd, boolToU32(c.Regs[in.Rs1] < c.Regs[in.Rs2]))
	case isa.OpXOR:
		c.set(in.Rd, c.Regs[in.Rs1]^c.Regs[in.Rs2])
	case isa.OpSRL:
		c.set(in.Rd, c.Regs[in.Rs1]>>(c.Regs[in.Rs2]&31))
	case isa.OpSRA:
		c.set(in.Rd, uint32(int32(c.Regs[in.Rs1])>>(c.Regs[in.Rs2]&31)))
	case isa.OpOR:
		c.set(in.Rd, c.Regs[in.Rs1]|c.Regs[in.Rs2])
	case isa.OpAND:
		c.set(in.Rd, c.Regs[in.Rs1]&c.Regs[in.Rs2])

	case isa.OpMUL:
		c.set(in.Rd, c.Regs[in.Rs1]*c.Regs[in.Rs2])
		cost += c.Costs.MulExtra
	case isa.OpMULH:
		c.set(in.Rd, uint32(uint64(int64(int32(c.Regs[in.Rs1]))*int64(int32(c.Regs[in.Rs2])))>>32))
		cost += c.Costs.MulExtra
	case isa.OpMULHSU:
		c.set(in.Rd, uint32(uint64(int64(int32(c.Regs[in.Rs1]))*int64(uint64(c.Regs[in.Rs2])))>>32))
		cost += c.Costs.MulExtra
	case isa.OpMULHU:
		c.set(in.Rd, uint32(uint64(c.Regs[in.Rs1])*uint64(c.Regs[in.Rs2])>>32))
		cost += c.Costs.MulExtra
	case isa.OpDIV:
		a, b := int32(c.Regs[in.Rs1]), int32(c.Regs[in.Rs2])
		switch {
		case b == 0:
			c.set(in.Rd, 0xFFFFFFFF)
		case a == -1<<31 && b == -1:
			c.set(in.Rd, uint32(a))
		default:
			c.set(in.Rd, uint32(a/b))
		}
		cost += c.Costs.DivExtra
	case isa.OpDIVU:
		a, b := c.Regs[in.Rs1], c.Regs[in.Rs2]
		if b == 0 {
			c.set(in.Rd, 0xFFFFFFFF)
		} else {
			c.set(in.Rd, a/b)
		}
		cost += c.Costs.DivExtra
	case isa.OpREM:
		a, b := int32(c.Regs[in.Rs1]), int32(c.Regs[in.Rs2])
		switch {
		case b == 0:
			c.set(in.Rd, uint32(a))
		case a == -1<<31 && b == -1:
			c.set(in.Rd, 0)
		default:
			c.set(in.Rd, uint32(a%b))
		}
		cost += c.Costs.DivExtra
	case isa.OpREMU:
		a, b := c.Regs[in.Rs1], c.Regs[in.Rs2]
		if b == 0 {
			c.set(in.Rd, a)
		} else {
			c.set(in.Rd, a%b)
		}
		cost += c.Costs.DivExtra

	case isa.OpFENCE:
		// no-op in a single-core model

	case isa.OpECALL:
		cost += c.Costs.EcallExtra
		switch c.Regs[isa.A7] {
		case EcallExit:
			c.Halted = true
			c.ExitCode = c.Regs[isa.A0]
		case EcallPutchar:
			c.Output = append(c.Output, byte(c.Regs[isa.A0]))
		case EcallGetword:
			var v uint32
			if c.inputPos < len(c.Input) {
				v = c.Input[c.inputPos]
				c.inputPos++
			}
			c.set(isa.A0, v)
		default:
			//lofat:ignore zeroalloc cold fault path: unknown ecall halts the run
			err = fmt.Errorf("unknown ecall %d", c.Regs[isa.A7])
			//lofat:ignore zeroalloc cold fault path: the run is over once an ExecError exists
			return &ExecError{PC: pc, Cycle: c.Cycle, Err: err}
		}

	case isa.OpEBREAK:
		//lofat:ignore zeroalloc cold fault path: ebreak halts the run
		return &ExecError{PC: pc, Cycle: c.Cycle, Err: fmt.Errorf("ebreak")}

	case isa.OpMRET:
		if !c.inISR {
			//lofat:ignore zeroalloc cold fault path: mret outside a handler halts the run
			return &ExecError{PC: pc, Cycle: c.Cycle, Err: fmt.Errorf("mret outside interrupt handler")}
		}
		nextPC = c.epc
		c.inISR = false
		taken = true
		cost += c.Costs.TakenExtra

	default:
		//lofat:ignore zeroalloc cold fault path: an unimplemented opcode halts the run
		return &ExecError{PC: pc, Cycle: c.Cycle, Err: fmt.Errorf("unimplemented opcode %v", in.Op)}
	}

	c.Cycle += cost
	c.Retired++
	c.PC = nextPC

	if c.takes(p.kind) {
		c.emit(trace.Event{
			Cycle:   c.Cycle,
			PC:      pc,
			Word:    p.word,
			Inst:    in,
			Kind:    p.kind,
			Taken:   taken,
			NextPC:  nextPC,
			Linking: p.linking,
		})
	}
	if c.Halted {
		// Even when the mask withheld the exit ecall itself.
		c.FlushTrace()
	}
	return nil
}

// takes is the one rule for whether an event of kind k is built at all:
// only if the port is wired and its mask admits k.
//
//lofat:zeroalloc
func (c *CPU) takes(k isa.ControlFlowKind) bool {
	return c.TraceBatch != nil && (!c.TraceCFOnly || k != isa.KindNone)
}

// emit buffers an event takes admitted, delivering a full batch. Shared
// by the instruction hot loop and takeIRQ so instruction and interrupt
// events reach the port in retirement order.
//
//lofat:zeroalloc
func (c *CPU) emit(e trace.Event) {
	c.batch = append(c.batch, e)
	if len(c.batch) >= TraceBatchSize {
		c.flushBatch()
	}
}

//lofat:zeroalloc
func (c *CPU) flushBatch() {
	if len(c.batch) > 0 {
		c.TraceBatch.RetireBatch(c.batch)
		c.batch = c.batch[:0]
	}
}

// FlushTrace delivers any buffered batched-trace events and syncs the
// observer clock to the core clock. Called automatically at halt;
// callers that stop stepping before the exit ecall (fixed-step harnesses)
// must call it before finalizing the observer, and a caller that needs
// its observer current after every instruction (a streamed prover
// polling for an abort) calls it after every Step.
//
//lofat:zeroalloc
func (c *CPU) FlushTrace() {
	if c.TraceBatch == nil {
		return
	}
	c.flushBatch()
	c.TraceBatch.Sync(c.Cycle)
}

// Run executes until the program halts or maxInstructions retire.
func (c *CPU) Run(maxInstructions uint64) error {
	budget := maxInstructions
	for !c.Halted {
		if budget == 0 {
			return fmt.Errorf("cpu: instruction budget %d exhausted at pc=%#08x", maxInstructions, c.PC)
		}
		budget--
		if err := c.step(); err != nil {
			return err
		}
	}
	return nil
}

//lofat:zeroalloc
func boolToU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
