// Command benchmark is the attestation-round benchmark: six workloads
// over the whole stack, the end-to-end metrics of BENCHMARK.json measured
// with tracing off, and a separate traced pass that fills the per-layer
// ledger from outside the product packages — by timing calls into each
// layer's public functions and wrapping the hooks the code already
// exposes. See README.md in this directory.
//
//	go run ./benchmark                              # every workload, both passes
//	go run ./benchmark -workload fleet_warm         # one workload, end to end
//	go run ./benchmark -workload fleet_warm -trace 1
//	go run ./benchmark -repeat 5 -json new.json     # a run set for -compare
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// errFailedRounds makes the command exit non-zero after the report has
// been printed: some round failed or was misclassified.
var errFailedRounds = errors.New("failed_round_share is not 0")

// report is the JSON document -json writes and -compare reads: every
// run of a run set, in the order they ran.
type report struct {
	Schema     int          `json:"schema"`
	Go         string       `json:"go"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Runs       []*runResult `json:"runs"`
}

func writeReport(path string, rep *report) error {
	raw, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (default: all of BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "derives generated programs, inputs, keys and which devices are attacked")
	seconds := fs.Float64("seconds", 0, "length of one run's measured part (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics (default: both)")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans as trace-event JSON to this file")
	jsonOut := fs.String("json", "", "write every run of this invocation to this report file")
	repeat := fs.Int("repeat", 1, "run the selected workloads this many times (a run set for -compare)")
	smoke := fs.Bool("smoke", false, "200 ms per workload, one set-up: checks the harness, not the system")
	compare := fs.Bool("compare", false, "compare two run sets: -compare old.json new.json (each side one file, or several separated by commas)")
	specFile := fs.String("spec", specPath, "path of BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(*specFile)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two report files: old.json new.json")
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	rc := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke}
	if rc.seconds <= 0 {
		rc.seconds = float64(spec.RunSeconds)
	}
	if rc.smoke {
		rc.seconds = 0.2
	}
	var defs []workloadDef
	for _, w := range spec.Workloads {
		def, ok := findWorkload(w.Name)
		if !ok {
			return fmt.Errorf("BENCHMARK.json lists workload %q, which the harness does not have", w.Name)
		}
		if *workload == "" || *workload == w.Name {
			defs = append(defs, def)
		}
	}
	if len(defs) == 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	var modes []bool
	switch *trace {
	case -1:
		modes = []bool{false, true}
	case 0:
		modes = []bool{false}
	case 1:
		modes = []bool{true}
	default:
		return fmt.Errorf("-trace is 0 or 1, not %d", *trace)
	}

	defer os.Remove(scratchRoot) // only when no other run shares it
	tr := newTraceLog(*traceOut != "")
	rep := report{Schema: 1, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var last *runResult
	for i := 0; i < *repeat; i++ {
		for _, def := range defs {
			for _, traced := range modes {
				rc.trace = traced
				var res *runResult
				if traced {
					res, err = runTraced(def, rc, spec, tr)
				} else {
					res, err = runUntraced(def, rc, spec)
				}
				if err != nil {
					return err
				}
				res.print(spec)
				rep.Runs = append(rep.Runs, res)
				last = res
			}
		}
	}
	if *traceOut != "" {
		if err := tr.writeFile(*traceOut); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, &rep); err != nil {
			return err
		}
	}
	// The contract's result line: the last line of standard output of a
	// single run is one JSON object with exactly these keys.
	if len(rep.Runs) == 1 {
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted uint64                 `json:"attempted"`
			Failed    uint64                 `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	for _, r := range rep.Runs {
		if r.Failed != 0 {
			return fmt.Errorf("%s: %w (%d of %d rounds)", r.Workload, errFailedRounds, r.Failed, r.Attempted)
		}
	}
	return nil
}
