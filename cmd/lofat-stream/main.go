// Command lofat-stream demonstrates streaming (segmented) attestation:
// the prover emits chained sub-measurements every N control-flow
// events, the verifier checks each segment against golden-run
// checkpoints as it arrives, and an injected attack is rejected at the
// FIRST divergent segment — mid-run — with the offending control-flow
// edge localized and classified, instead of a bare hash mismatch after
// the run completes.
//
// Usage:
//
//	lofat-stream                            # honest syringe-pump run
//	lofat-stream -attack loop-counter       # rejected mid-run, class 2
//	lofat-stream -attack code-pointer       # rejected mid-run, class 3
//	lofat-stream -attack auth-bypass -segment 4
//	lofat-stream -trace-out stream.trace.json  # Perfetto trace of the run
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"time"

	"lofat/internal/attest"
	"lofat/internal/obs"
	"lofat/internal/sig"
	"lofat/internal/stream"
	"lofat/internal/workloads"
)

func main() {
	workload := flag.String("w", "syringe-pump", "workload to attest")
	attackName := flag.String("attack", "", "attack to arm (loop-counter, auth-bypass, code-pointer, dop-data-only; empty = honest)")
	segment := flag.Int("segment", 8, "checkpoint window N (control-flow events per segment)")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace of the run to this file")
	flag.Parse()

	if err := run(*workload, *attackName, *segment, *traceOut); err != nil {
		fmt.Fprintf(os.Stderr, "lofat-stream: %v\n", err)
		os.Exit(1)
	}
}

func run(workload, attackName string, segment int, traceOut string) error {
	w, ok := workloads.ByName(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	input := w.Input
	var atk workloads.Attack
	if attackName != "" {
		atk, ok = workloads.AttackByName(attackName)
		if !ok {
			return fmt.Errorf("unknown attack %q", attackName)
		}
		w = atk.Workload
		input = w.Input
	}
	prog, err := w.Assemble()
	if err != nil {
		return err
	}
	keys, err := sig.GenerateKeyStore(rand.Reader)
	if err != nil {
		return err
	}
	devCfg, err := w.DeviceConfig(prog)
	if err != nil {
		return err
	}
	ap := attest.NewProver(prog, devCfg, keys)
	av, err := attest.NewVerifier(prog, devCfg, keys.Public(), rand.Reader)
	if err != nil {
		return err
	}
	if attackName != "" {
		ap.Adversary = atk.Build(prog)
		fmt.Printf("armed attack %q (class %d): %s\n", atk.Name, atk.Class, atk.Description)
	}

	// Per-segment verify latencies always feed a histogram (it is one
	// atomic-array, effectively free); the trace is opt-in via the flag.
	segHist := new(obs.Histogram)
	scfg := stream.Config{SegmentEvents: segment, SegmentHist: segHist}
	var tracer *obs.Tracer
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		tracer = obs.NewTracer(f)
		scfg.Trace = obs.Scope{T: tracer, TID: tracer.NextTID()}
	}

	sp := stream.NewProver(ap)
	sv := stream.NewVerifier(av, scfg)
	fmt.Printf("streaming %q with window N=%d control-flow events\n\n", w.Name, segment)

	res, err := stream.AttestOnce(sp, sv, input, func(sr *stream.SegmentReport) {
		fmt.Printf("  segment %3d: %3d events, chain %x...\n", sr.Index, sr.Events, sr.Chain[:8])
	})
	if tracer != nil {
		if cerr := tracer.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "lofat-stream: trace: %v\n", cerr)
		} else {
			fmt.Printf("\ntrace written to %s (load in ui.perfetto.dev)\n", traceOut)
		}
	}
	if err != nil {
		return err
	}
	if h := segHist.Snapshot(); h.Count > 0 {
		fmt.Printf("\nsegment verify latency: %d segments, mean %v, p50/p95/p99 %v/%v/%v\n",
			h.Count, time.Duration(h.Mean()),
			time.Duration(h.Quantile(0.5)), time.Duration(h.Quantile(0.95)), time.Duration(h.Quantile(0.99)))
	}

	fmt.Println()
	if res.Accepted {
		fmt.Printf("ACCEPTED after %d segments (full stream verified, close report checked)\n", res.Segments)
		return nil
	}
	fmt.Printf("REJECTED (%v) after %d segments\n", res.Class, res.Segments)
	if res.EarlyAbort {
		fmt.Println("early abort: the device was cut off MID-RUN at the first divergent segment")
	}
	if d := res.Divergence; d != nil {
		fmt.Printf("forensics: %s\n", d)
	}
	for _, f := range res.Findings {
		fmt.Printf("  - %s\n", f)
	}
	return nil
}
