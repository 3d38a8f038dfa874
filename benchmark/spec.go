package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer
// list. Bound is the share of the baseline median by which an end-to-end
// metric may get worse; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json. The harness reads it for the metric
// names, units, directions and bounds, so the file stays the one place
// they are fixed.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// specPath is where the harness looks for BENCHMARK.json: the command
// runs from the root of the checkout.
const specPath = "BENCHMARK.json"

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must all be non-empty", path)
	}
	return &s, nil
}

func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// exactMetrics are the per-layer metrics that count simulated or
// protocol-level events: for one seed they repeat exactly, so -compare
// fails hard when one differs instead of weighing it against noise.
var exactMetrics = map[string]bool{
	"cpu.retired_per_pass":             true,
	"cpu.sim_cycles_per_pass":          true,
	"filter.cf_events_per_pass":        true,
	"monitor.dedup_ratio":              true,
	"hashengine.hashed_pairs_per_pass": true,
	"hashengine.fifo_dropped":          true,
	"core.stall_cycles":                true,
	"core.max_lag_cycles":              true,
	"core.sim_fingerprint":             true,
	"attest.report_bytes":              true,
	"stream.segment_bytes":             true,
	"stream.segments_per_round":        true,
	"stream.abort_segment_ratio":       true,
	"fleet.dials_per_round":            true,
	"fleet.wire_bytes_per_round":       true,
	"fleet.retries":                    true,
	"fleet.transport_failures":         true,
	"fed.waves_per_sweep":              true,
	"fed.failed_over":                  true,
}

// zeroMetrics must read 0 on every workload: the paper's headline (the
// device never stalls the processor, the FIFO never drops) and the
// fault-free run (nothing retried, nothing failed over).
var zeroMetrics = []string{
	"core.stall_cycles",
	"hashengine.fifo_dropped",
	"fleet.retries",
	"fleet.transport_failures",
	"fed.failed_over",
}
