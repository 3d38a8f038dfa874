// Package workloads provides the embedded programs the evaluation runs
// under LO-FAT: an Open Syringe Pump firmware analogue (the paper's §6.1
// demo application), a set of embedded kernels with the control-flow
// shapes that stress the design (data-dependent branches, deep loop
// nests, recursion, indirect dispatch), and the run-time attack
// scenarios of Figure 1 (non-control data, loop counter, code pointer).
//
// All programs are written in RV32IM assembly and assembled by
// internal/asm; this substitutes for the paper's GCC-built binaries.
package workloads

import (
	"fmt"

	"lofat/internal/asm"
)

// Workload is a runnable attested program.
type Workload struct {
	// Name is a short identifier ("syringe-pump").
	Name string
	// Description says what the program computes and why it is in the
	// evaluation set.
	Description string
	// Source is the RV32IM assembly.
	Source string
	// Input is the benign verifier input i.
	Input []uint32
	// WantExit is the expected exit code under Input (functional
	// ground truth for the simulator tests).
	WantExit uint32
	// ISRLabel, when set, names the interrupt handler label; the
	// workload then expects the fixed IRQPhase/IRQPeriod/IRQCount
	// schedule (resolved by Schedule) on the device's interrupt line.
	// WantExit is the exit code UNDER that schedule.
	ISRLabel  string
	IRQPhase  uint64
	IRQPeriod uint64
	IRQCount  uint64
}

// Assemble builds the workload's program image.
func (w Workload) Assemble() (*asm.Program, error) {
	p, err := asm.Assemble(w.Source)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", w.Name, err)
	}
	return p, nil
}

// All returns the full evaluation set, syringe pump first.
func All() []Workload {
	return []Workload{
		SyringePump(),
		BubbleSort(),
		CRC32(),
		MatMul(),
		FibRecursive(),
		Dispatch(),
		StringSearch(),
	}
}

// ByName looks a workload up in the extended suite (All2).
func ByName(name string) (Workload, bool) {
	for _, w := range All2() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// BubbleSort sorts an 8-element array: quadratic nest with
// data-dependent swap branches — many distinct loop paths.
func BubbleSort() Workload {
	return Workload{
		Name:        "bubble-sort",
		Description: "bubble sort of 8 words; data-dependent branch per comparison",
		WantExit:    218, // sum(arr[i]*(i+1)) over sorted {1,2,2,3,5,7,8,9}
		Source: `
	.data
arr:
	.word 5, 2, 9, 1, 7, 3, 8, 2
	.equ N, 8
	.text
main:
	li   s1, N
	addi s1, s1, -1        # passes = N-1
pass_loop:
	la   s2, arr
	li   s3, 0             # j = 0
	li   s4, N
	addi s4, s4, -1        # N-1
cmp_loop:
	slli t0, s3, 2
	add  t0, s2, t0
	lw   t1, 0(t0)
	lw   t2, 4(t0)
	ble  t1, t2, no_swap
	sw   t2, 0(t0)
	sw   t1, 4(t0)
no_swap:
	addi s3, s3, 1
	blt  s3, s4, cmp_loop
	addi s1, s1, -1
	bnez s1, pass_loop
	# exit code: sum(arr[i] * (i+1)) to pin the final order
	la   s2, arr
	li   s3, 0
	li   s5, 0
sum_loop:
	slli t0, s3, 2
	add  t0, s2, t0
	lw   t1, 0(t0)
	addi t2, s3, 1
	mul  t1, t1, t2
	add  s5, s5, t1
	addi s3, s3, 1
	li   t3, N
	blt  s3, t3, sum_loop
	mv   a0, s5
	li   a7, 93
	ecall
`,
	}
}

// CRC32 computes a bitwise CRC-32 (poly 0xEDB88320) over 16 bytes:
// a tight inner 8-iteration loop with a data-dependent XOR branch.
func CRC32() Workload {
	return Workload{
		Name:        "crc32",
		Description: "bitwise CRC-32 over 16 bytes; dense 8-bit inner loops",
		WantExit:    1554196281, // crc32.ChecksumIEEE("1234567890abcdef")
		Source: `
	.data
buf:
	.byte 0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38
	.byte 0x39, 0x30, 0x61, 0x62, 0x63, 0x64, 0x65, 0x66
	.equ LEN, 16
	.text
main:
	li   s0, -1            # crc = 0xFFFFFFFF
	la   s1, buf
	li   s2, 0             # i
	li   s3, LEN
	li   s4, 0xEDB88320
byte_loop:
	add  t0, s1, s2
	lbu  t1, 0(t0)
	xor  s0, s0, t1
	li   s5, 8             # bit counter
bit_loop:
	andi t2, s0, 1
	srli s0, s0, 1
	beqz t2, no_xor
	xor  s0, s0, s4
no_xor:
	addi s5, s5, -1
	bnez s5, bit_loop
	addi s2, s2, 1
	blt  s2, s3, byte_loop
	not  a0, s0
	li   a7, 93
	ecall
`,
	}
}

// MatMul multiplies two 4x4 matrices: a three-deep loop nest, exactly
// the paper's supported nesting depth.
func MatMul() Workload {
	return Workload{
		Name:        "matmul",
		Description: "4x4 integer matrix multiply; 3-deep loop nest (paper's max depth)",
		WantExit:    466, // C[0][0] + C[3][3]
		Source: `
	.data
A:
	.word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
B:
	.word 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1
C:
	.space 64
	.equ N, 4
	.text
main:
	li   s0, 0             # i
i_loop:
	li   s1, 0             # j
j_loop:
	li   s2, 0             # k
	li   s3, 0             # acc
k_loop:
	# acc += A[i][k] * B[k][j]
	slli t0, s0, 2
	add  t0, t0, s2        # i*4 + k
	slli t0, t0, 2
	la   t1, A
	add  t1, t1, t0
	lw   t2, 0(t1)
	slli t3, s2, 2
	add  t3, t3, s1        # k*4 + j
	slli t3, t3, 2
	la   t4, B
	add  t4, t4, t3
	lw   t5, 0(t4)
	mul  t2, t2, t5
	add  s3, s3, t2
	addi s2, s2, 1
	li   t6, N
	blt  s2, t6, k_loop
	# C[i][j] = acc
	slli t0, s0, 2
	add  t0, t0, s1
	slli t0, t0, 2
	la   t1, C
	add  t1, t1, t0
	sw   s3, 0(t1)
	addi s1, s1, 1
	li   t6, N
	blt  s1, t6, j_loop
	addi s0, s0, 1
	li   t6, N
	blt  s0, t6, i_loop
	# exit: C[0][0] + C[3][3]
	la   t1, C
	lw   a0, 0(t1)
	lw   t2, 60(t1)
	add  a0, a0, t2
	li   a7, 93
	ecall
`,
	}
}

// FibRecursive computes fib(10) by naive recursion: a call tree with no
// loops — exercises linking-call/return handling outside loops.
func FibRecursive() Workload {
	return Workload{
		Name:        "fib-recursive",
		Description: "naive recursive fib(10); deep call tree, returns everywhere",
		WantExit:    55,
		Source: `
main:
	li   a0, 10
	call fib
	li   a7, 93
	ecall
fib:                        # a0 = n -> a0 = fib(n)
	li   t0, 2
	blt  a0, t0, fib_base
	addi sp, sp, -12
	sw   ra, 8(sp)
	sw   a0, 4(sp)
	addi a0, a0, -1
	call fib
	sw   a0, 0(sp)          # fib(n-1)
	lw   a0, 4(sp)
	addi a0, a0, -2
	call fib
	lw   t1, 0(sp)
	add  a0, a0, t1
	lw   ra, 8(sp)
	addi sp, sp, 12
	ret
fib_base:
	ret                     # fib(0)=0, fib(1)=1: a0 already correct
`,
	}
}

// Dispatch is an input-driven command interpreter: a loop around an
// indirect call through a jump table — the §5.2 scenario (indirect
// branches inside loops, CAM-encoded targets).
func Dispatch() Workload {
	return Workload{
		Name:        "dispatch",
		Description: "command interpreter: loop + jump-table indirect calls (CAM path)",
		Input:       []uint32{2, 1, 0, 2, 1, 99}, // commands; 99 = stop
		WantExit:    21,                          // 7+3+1+7+3
		Source: `
	.data
table:
	.word cmd_inc, cmd_add3, cmd_add7
	.text
main:
	li   s0, 0             # accumulator
cmd_loop:
	li   a7, 63
	ecall                  # next command word
	li   t0, 3
	bgeu a0, t0, done      # >= 3 (or input exhausted -> 0? 0 is cmd) stop on >=3
	slli t1, a0, 2
	la   t2, table
	add  t2, t2, t1
	lw   t3, 0(t2)
	mv   a0, s0
	jalr ra, 0(t3)
	mv   s0, a0
	j    cmd_loop
done:
	mv   a0, s0
	li   a7, 93
	ecall
cmd_inc:
	addi a0, a0, 1
	ret
cmd_add3:
	addi a0, a0, 3
	ret
cmd_add7:
	addi a0, a0, 7
	ret
`,
	}
}

// StringSearch scans a haystack for a needle byte sequence: nested loop
// with early-exit inner comparisons.
func StringSearch() Workload {
	return Workload{
		Name:        "string-search",
		Description: "naive substring search; early-exit inner loop",
		WantExit:    10, // index of "fox"
		Source: `
	.data
hay:
	.byte 't','h','e',' ','q','u','i','c','k',' ','f','o','x',' ','r','u','n','s', 0
ndl:
	.byte 'f','o','x', 0
	.text
main:
	la   s0, hay
	li   s1, 0             # i
	li   s2, 19            # haystack length (incl NUL)
outer:
	li   s3, 0             # j
inner:
	la   t0, ndl
	add  t0, t0, s3
	lbu  t1, 0(t0)
	beqz t1, found         # end of needle: match at i
	add  t2, s0, s1
	add  t2, t2, s3
	lbu  t3, 0(t2)
	bne  t1, t3, advance
	addi s3, s3, 1
	j    inner
advance:
	addi s1, s1, 1
	blt  s1, s2, outer
	li   a0, -1
	li   a7, 93
	ecall
found:
	mv   a0, s1
	li   a7, 93
	ecall
`,
	}
}
