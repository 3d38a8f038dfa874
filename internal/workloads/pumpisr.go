package workloads

import (
	"fmt"

	"lofat/internal/asm"
	"lofat/internal/core"
	"lofat/internal/cpu"
)

// PumpISR is the interrupt-driven variant of the syringe pump — the
// shape the real Open Syringe Pump firmware actually has: the main
// context is an idle polling loop and ALL motor actuation happens in a
// timer interrupt handler. Each timer tick drives two motor steps; the
// main loop watches the tick counter and reports the total steps
// dispensed once the programmed infusion completes. The workload's
// fixed IRQ schedule (phase 64, period 96, exactly 6 ticks) makes the
// measurement deterministic: 6 ticks × 2 steps = exit code 12.
func PumpISR() Workload {
	return Workload{
		Name:        "pump-isr",
		Description: "interrupt-driven syringe pump: timer ISR steps the motor, main loop idles",
		WantExit:    12,
		ISRLabel:    "isr_timer",
		IRQPhase:    64,
		IRQPeriod:   96,
		IRQCount:    6,
		Source: `
	.data
ticks:
	.word 0                 # timer interrupts serviced
dispensed:
	.word 0                 # motor steps driven, all from ISR context
	.text
main:
	li   s0, 6              # infusion program: run for 6 timer ticks
	li   s1, 0
wait:
	la   t0, ticks
	lw   t1, 0(t0)
	bge  t1, s0, done
	# idle work between ticks: keeps the main context retiring
	# instructions so dispatch edges land on varied interrupted PCs
	addi s1, s1, 1
	andi s1, s1, 255
	j    wait
done:
	la   t0, dispensed
	lw   a0, 0(t0)
	li   a7, 93
	ecall
isr_timer:
	la   t4, ticks
	lw   t5, 0(t4)
	addi t5, t5, 1
	sw   t5, 0(t4)
	la   t4, dispensed
	lw   t5, 0(t4)
	addi t5, t5, 2          # two motor half-steps per tick
	sw   t5, 0(t4)
	mret
`,
	}
}

// Schedule resolves the workload's interrupt schedule against its
// assembled image. Interrupt-free workloads (no ISRLabel) resolve to
// the zero schedule — a disabled interrupt line.
func (w Workload) Schedule(prog *asm.Program) (cpu.IRQSchedule, error) {
	if w.ISRLabel == "" {
		return cpu.IRQSchedule{}, nil
	}
	vector, ok := prog.Entry(w.ISRLabel)
	if !ok {
		return cpu.IRQSchedule{}, fmt.Errorf("workloads: %s: no %q label", w.Name, w.ISRLabel)
	}
	return cpu.IRQSchedule{
		Vector: vector,
		Phase:  w.IRQPhase,
		Period: w.IRQPeriod,
		Count:  w.IRQCount,
	}, nil
}

// DeviceConfig builds the device configuration the workload expects:
// paper defaults, plus its interrupt schedule when it is
// interrupt-driven (pump-isr). Prover and verifier must derive it the
// same way or the expected measurement diverges.
func (w Workload) DeviceConfig(prog *asm.Program) (core.Config, error) {
	sched, err := w.Schedule(prog)
	return core.Config{IRQ: sched}, err
}
