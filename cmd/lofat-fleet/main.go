// Command lofat-fleet demonstrates the fleet attestation service: it
// spins up K simulated LO-FAT devices — each an attest.Server on a
// loopback TCP port with its own hardware key, all running the same
// firmware — enrols them in a fleet.Service, and drives attestation
// sweeps through the worker-pool verification pipeline. A fraction of
// the fleet can be armed with a Figure 1 attack to exercise detection
// and quarantine, and another fraction can be degraded at the transport
// layer (stalling mid-frame or dropping connections, via the faultconn
// harness) to exercise the deadline / retry / circuit-breaker
// resilience path.
//
// Usage:
//
//	lofat-fleet                                  # 100 devices, 2 sweeps
//	lofat-fleet -devices 250 -attacked 10
//	lofat-fleet -attack auth-bypass -attacked 3
//	lofat-fleet -stalled 5 -dropping 5 -sweeps 4 # transport chaos
//	lofat-fleet -read-timeout 500ms -retries 3 -breaker 2
//	lofat-fleet -nocache                         # per-device golden runs
//	lofat-fleet -interval 500ms -duration 3s     # scheduler-driven sweeps
//	lofat-fleet -metrics-addr 127.0.0.1:9464     # live /metrics + pprof
//	lofat-fleet -trace-out sweep.trace.json      # Perfetto trace of the run
//
// Federated mode shards the same fleet across several verifier nodes
// behind one coordinator (internal/fed), optionally with persistent
// per-node registries and chaos:
//
//	lofat-fleet -nodes 3                         # 3 verifier nodes, ring-sharded
//	lofat-fleet -nodes 3 -replicas 2             # every device held by 2 nodes (warm standby)
//	lofat-fleet -nodes 3 -snapshot-dir /tmp/fed  # snapshot/WAL-persistent registries
//	lofat-fleet -nodes 3 -kill                   # crash node-0 mid-run, warm-restart, rejoin
//	lofat-fleet -nodes 3 -replicas 2 -kill-during-sweep  # crash node-0 MID-sweep; replicas fail over
//	lofat-fleet -nodes 3 -join                   # join a 4th node after the sweeps, rebalance
//	lofat-fleet -nodes 3 -disk-fault fsync       # node-0's disk dies; lame-duck read-only mode
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"lofat/internal/fleet"
	"lofat/internal/obs"
)

func main() {
	devices := flag.Int("devices", 100, "number of simulated devices")
	attacked := flag.Int("attacked", 4, "devices armed with the attack")
	attackName := flag.String("attack", "loop-counter", "attack scenario for armed devices (loop-counter, auth-bypass, code-pointer, dop-data-only)")
	workload := flag.String("w", "syringe-pump", "shared firmware workload")
	sweeps := flag.Int("sweeps", 2, "attestation sweeps to run")
	workers := flag.Int("workers", 0, "verification workers (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 16, "device registry shards")
	nocache := flag.Bool("nocache", false, "disable the shared measurement cache")
	interval := flag.Duration("interval", 0, "run the periodic scheduler at this interval instead of manual sweeps")
	duration := flag.Duration("duration", 2*time.Second, "how long to run the scheduler (with -interval)")

	stalled := flag.Int("stalled", 0, "devices whose transport stalls mid-frame (chaos)")
	dropping := flag.Int("dropping", 0, "devices whose connection drops mid-exchange (chaos)")
	dialTO := flag.Duration("dial-timeout", 5*time.Second, "transport dial timeout")
	readTO := flag.Duration("read-timeout", 30*time.Second, "per-phase read deadline (negative disables)")
	writeTO := flag.Duration("write-timeout", 30*time.Second, "per-phase write deadline (negative disables)")
	retries := flag.Int("retries", 2, "total transport attempts per round")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "base retry backoff (doubled per attempt, jittered)")
	breaker := flag.Int("breaker", 3, "consecutive failed rounds that trip a device's circuit breaker (negative disables)")

	nodes := flag.Int("nodes", 0, "federate across this many verifier nodes (0 = single service)")
	replicas := flag.Int("replicas", 1, "distinct verifier nodes holding each device's state (federated mode)")
	snapDir := flag.String("snapshot-dir", "", "persist each node's registry (snapshot + WAL) under this directory")
	killNode := flag.Bool("kill", false, "crash node-0 after the sweeps, then warm-restart and rejoin it (federated mode)")
	killMid := flag.Bool("kill-during-sweep", false, "crash node-0 in the middle of a sweep; surviving replicas take over (federated mode)")
	joinNode := flag.Bool("join", false, "join one extra node after the sweeps and rebalance (federated mode)")
	diskFault := flag.String("disk-fault", "", "inject a storage fault into node-0: fsync (lame-duck path) or enospc (federated mode)")

	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /flight and pprof on this address (empty = off)")
	pprofOn := flag.Bool("pprof", true, "mount /debug/pprof/ on the metrics server (with -metrics-addr)")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace of the run to this file")
	flightCap := flag.Int("flight", obs.DefaultFlightCapacity, "flight recorder capacity in events (0 disables)")
	flag.Parse()

	cfg := fleet.Config{
		Workers:          *workers,
		Shards:           *shards,
		DisableCache:     *nocache,
		DialTimeout:      *dialTO,
		ReadTimeout:      *readTO,
		WriteTimeout:     *writeTO,
		RetryAttempts:    *retries,
		RetryBackoff:     *backoff,
		BreakerThreshold: *breaker,
	}
	shape := fleetShape{
		devices: *devices, attacked: *attacked, stalled: *stalled, dropping: *dropping,
		attack: *attackName, workload: *workload,
	}
	o := obsConfig{metricsAddr: *metricsAddr, pprof: *pprofOn, traceOut: *traceOut, flightCap: *flightCap}
	var err error
	if *nodes > 0 {
		if *killNode && *killMid {
			fmt.Fprintln(os.Stderr, "lofat-fleet: -kill and -kill-during-sweep both crash node-0; pick one")
			os.Exit(2)
		}
		fc := fedConfig{
			nodes: *nodes, replicas: *replicas, snapDir: *snapDir,
			kill: *killNode, killMid: *killMid, join: *joinNode, diskFault: *diskFault,
		}
		err = runFederated(shape, *sweeps, cfg, fc, o)
	} else {
		if *killNode || *killMid || *joinNode || *snapDir != "" || *replicas != 1 || *diskFault != "" {
			fmt.Fprintln(os.Stderr, "lofat-fleet: -kill/-kill-during-sweep/-join/-snapshot-dir/-replicas/-disk-fault need federated mode (-nodes N)")
			os.Exit(2)
		}
		err = run(shape, *sweeps, cfg, *interval, *duration, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lofat-fleet: %v\n", err)
		os.Exit(1)
	}
}

// obsConfig bundles the observability flags.
type obsConfig struct {
	metricsAddr string
	pprof       bool
	traceOut    string
	flightCap   int
}

// setupObs builds the observability hub from the flags and starts the
// metrics server when requested. It returns the hub (never nil — a hub
// with only the registry is effectively free) and a teardown that
// flushes the trace file and stops the server.
func setupObs(o obsConfig) (*obs.Hub, func(), error) {
	hub := obs.NewHub()
	var teardown []func()

	var traceFile *os.File
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return nil, nil, err
		}
		traceFile = f
		hub.Tracer = obs.NewTracer(f)
		teardown = append(teardown, func() {
			if err := hub.Tracer.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "lofat-fleet: trace: %v\n", err)
			}
			traceFile.Close()
			fmt.Printf("trace written to %s (load in ui.perfetto.dev)\n", o.traceOut)
		})
	}
	if o.flightCap > 0 {
		hub.Flight = obs.NewFlight(o.flightCap)
	}
	if o.metricsAddr != "" {
		ln, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			if traceFile != nil {
				traceFile.Close()
			}
			return nil, nil, fmt.Errorf("metrics listener: %w", err)
		}
		srv := &http.Server{Handler: hub.Handler(o.pprof)}
		go srv.Serve(ln)
		fmt.Printf("metrics on http://%s/metrics", ln.Addr())
		if o.pprof {
			fmt.Printf(" (pprof on /debug/pprof/)")
		}
		fmt.Println()
		teardown = append(teardown, func() { srv.Close() })
	}
	return hub, func() {
		for i := len(teardown) - 1; i >= 0; i-- {
			teardown[i]()
		}
	}, nil
}

func run(shape fleetShape, sweeps int, cfg fleet.Config, interval, duration time.Duration, o obsConfig) error {
	w, atk, prog, devCfg, err := shape.resolve()
	if err != nil {
		return err
	}

	hub, obsDone, err := setupObs(o)
	if err != nil {
		return err
	}
	defer obsDone()
	cfg.Obs = hub

	var devs simDevices
	cfg.Dial = devs.dialer(cfg.DialTimeout)

	svc := fleet.NewService(cfg)
	defer svc.Close()
	progID, err := svc.RegisterProgram(prog, devCfg, [][]uint32{w.Input})
	if err != nil {
		return err
	}
	fmt.Printf("registered firmware %q as program %v\n", w.Name, progID)

	defer devs.close()
	start := time.Now()
	if err := devs.spawn(shape, prog, devCfg, atk, proverIdleTimeout(cfg), progID, svc.Enroll); err != nil {
		return err
	}
	fmt.Printf("enrolled %d devices (%d armed with %q, %d stalled, %d dropping) in %v\n",
		shape.devices, shape.attacked, atk.Name, shape.stalled, shape.dropping, time.Since(start).Round(time.Millisecond))

	if interval > 0 {
		fmt.Printf("scheduler sweeping every %v for %v\n", interval, duration)
		stop := svc.StartScheduler(interval)
		time.Sleep(duration)
		stop()
		for i, rep := range svc.Reports() {
			fmt.Printf("sweep %d: %v\n", i+1, rep)
		}
	} else {
		for i := 0; i < sweeps; i++ {
			reports, err := svc.Sweep()
			if err != nil {
				fmt.Printf("sweep %d: partial failure: %v\n", i+1, err)
				dumpFlight(svc, "sweep failure")
			}
			for _, rep := range reports {
				fmt.Printf("sweep %d: %v\n", i+1, rep)
			}
		}
	}

	snap := svc.Metrics()
	fmt.Println(snap)
	if snap.Errors > 0 {
		dumpFlight(svc, fmt.Sprintf("%d transport error(s)", snap.Errors))
	}
	if q := svc.Quarantined(); len(q) > 0 {
		fmt.Printf("quarantined devices:\n")
		for _, id := range q {
			st, _ := svc.Device(id)
			fmt.Printf("  %s: %v", id, st.LastClass)
			if len(st.LastFindings) > 0 {
				fmt.Printf(" (%s)", st.LastFindings[0])
			}
			fmt.Println()
		}
	}
	if tr := svc.Tripped(); len(tr) > 0 {
		fmt.Printf("tripped breakers (transport-faulty, not quarantined):\n")
		for _, id := range tr {
			st, _ := svc.Device(id)
			fmt.Printf("  %s: %d transport errors, last: %s\n", id, st.TransportErrors, st.LastError)
		}
	}
	return nil
}

// dumpFlight writes the flight-recorder ring to stderr, once per cause,
// so a failed run leaves the per-device event history in the log.
func dumpFlight(svc *fleet.Service, cause string) {
	fr := svc.Flight()
	if fr == nil || fr.Len() == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "--- flight recorder dump (%s) ---\n", cause)
	if err := fr.Dump(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "lofat-fleet: flight dump: %v\n", err)
	}
}
