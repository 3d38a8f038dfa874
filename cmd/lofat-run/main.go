// Command lofat-run executes a workload (or an assembly file) on the
// simulated Pulpino-class core with the LO-FAT device attached and
// prints the resulting measurement: the cumulative hash A, the loop
// metadata L, and the device statistics of §6.1.
//
// Usage:
//
//	lofat-run -w syringe-pump                 # built-in workload
//	lofat-run -w dispatch -input 2,1,0,99     # custom input words
//	lofat-run -f prog.s -input 5              # assemble and run a file
//	lofat-run -list                           # list built-in workloads
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"lofat"
	"lofat/internal/core"
	"lofat/internal/cpu"
	"lofat/internal/trace"
)

func main() {
	name := flag.String("w", "", "built-in workload name")
	file := flag.String("f", "", "assembly source file")
	inputStr := flag.String("input", "", "comma-separated input words (decimal or 0x hex)")
	list := flag.Bool("list", false, "list built-in workloads")
	traceFlag := flag.Bool("trace", false, "print the retired control-flow event stream")
	region := flag.String("region", "", "attest only label range START,END (function-granular mode)")
	flag.Parse()

	if *list {
		for _, w := range lofat.Workloads() {
			fmt.Printf("%-16s %s\n", w.Name, w.Description)
		}
		return
	}

	input, err := parseInput(*inputStr)
	if err != nil {
		fatal(err)
	}

	var prog *lofat.Program
	var devCfg lofat.DeviceConfig
	switch {
	case *name != "":
		sys, w, err := lofat.BuildWorkload(*name, lofat.Options{})
		if err != nil {
			fatal(err)
		}
		prog, devCfg = sys.Program, sys.Prover.DeviceConfig()
		if input == nil {
			input = w.Input
		}
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		prog, err = lofat.Assemble(string(src))
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("need -w <workload> or -f <file>; see -list"))
	}

	if *traceFlag {
		if err := dumpTrace(prog, devCfg, input); err != nil {
			fatal(err)
		}
	}

	if *region != "" {
		r, err := parseRegion(prog, *region)
		if err != nil {
			fatal(err)
		}
		devCfg.Region = r
		fmt.Printf("attested region: [%#x, %#x)\n", r.Start, r.End)
	}

	m, err := lofat.Measure(prog, devCfg, input)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("measurement hash A: %x\n\n", m.Hash)
	fmt.Printf("loop metadata L (%d records, %d bytes encoded):\n",
		len(m.Loops), lofat.MetadataSize(m.Loops))
	for i, r := range m.Loops {
		fmt.Printf("  %2d: %s\n", i, r)
	}
	st := m.Stats
	fmt.Printf(`
device statistics:
  control-flow events     %d
  in-loop events          %d
  hashed pairs            %d
  deduplicated pairs      %d
  new / repeated paths    %d / %d
  loops detected / exits  %d / %d
  processor stall cycles  %d
  max device lag cycles   %d
  engine dropped pairs    %d
`,
		st.ControlFlowEvents, st.LoopEvents, st.HashedPairs, st.DedupedPairs,
		st.NewPaths, st.RepeatedPaths, st.LoopsDetected, st.LoopExits,
		st.ProcessorStallCycles, st.MaxLagCycles, st.Engine.Dropped)
}

// dumpTrace runs the program once and prints every control-flow event
// as the branch filter sees it — the ModelSim-style debugging view.
func dumpTrace(prog *lofat.Program, devCfg lofat.DeviceConfig, input []uint32) error {
	mach, err := cpu.Load(prog, cpu.LoadOptions{})
	if err != nil {
		return err
	}
	mach.CPU.Input = input
	mach.CPU.IRQ = devCfg.IRQ
	mach.CPU.TraceBatch = eventPrinter{}
	mach.CPU.TraceCFOnly = true
	fmt.Println("cycle      pc        kind          taken  ->dest     linking")
	if err := mach.CPU.Run(50_000_000); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// eventPrinter is dumpTrace's observer on the batched, control-flow-only
// trace port.
type eventPrinter struct{}

func (eventPrinter) RetireBatch(events []trace.Event) {
	for _, e := range events {
		fmt.Printf("%-10d %#08x  %-12s  %-5v  %#08x  %v\n",
			e.Cycle, e.PC, e.Kind, e.Taken, e.NextPC, e.Linking)
	}
}

func (eventPrinter) Sync(uint64) {}

// parseRegion resolves "startLabel,endLabel" (or hex addresses) into an
// attested code range.
func parseRegion(prog *lofat.Program, s string) (core.Region, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return core.Region{}, fmt.Errorf("region wants START,END")
	}
	resolve := func(name string) (uint32, error) {
		if a, ok := prog.Labels[strings.TrimSpace(name)]; ok {
			return a, nil
		}
		v, err := strconv.ParseUint(strings.TrimSpace(name), 0, 32)
		if err != nil {
			return 0, fmt.Errorf("region bound %q: not a label or address", name)
		}
		return uint32(v), nil
	}
	start, err := resolve(parts[0])
	if err != nil {
		return core.Region{}, err
	}
	end, err := resolve(parts[1])
	if err != nil {
		return core.Region{}, err
	}
	if end <= start {
		return core.Region{}, fmt.Errorf("region end %#x <= start %#x", end, start)
	}
	return core.Region{Start: start, End: end}, nil
}

func parseInput(s string) ([]uint32, error) {
	if s == "" {
		return nil, nil
	}
	var out []uint32
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 0, 32)
		if err != nil {
			return nil, fmt.Errorf("bad input word %q: %v", part, err)
		}
		out = append(out, uint32(v))
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lofat-run: %v\n", err)
	os.Exit(1)
}
