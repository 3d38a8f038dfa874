package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lofat/internal/fed"
	"lofat/internal/fed/faultfs"
	"lofat/internal/fleet"
	"lofat/internal/obs"
)

// fedConfig bundles the federated-mode flags.
type fedConfig struct {
	nodes    int
	replicas int
	snapDir  string
	kill     bool
	killMid  bool
	join     bool
	// diskFault injects a storage fault into node-0's persistence:
	// "fsync" (every fsync fails — the lame-duck path) or "enospc"
	// (the disk fills mid-write).
	diskFault string
}

// nodeHandle wraps an in-process verifier node with the connection
// bookkeeping a kill needs: crashing a real node severs its TCP
// connections, so the demo kill closes every open control-plane pipe
// alongside abandoning the WAL.
type nodeHandle struct {
	node *fed.Node

	mu    sync.Mutex
	conns []net.Conn
	down  bool
}

func (h *nodeHandle) dial() (io.ReadWriteCloser, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.down {
		return nil, fmt.Errorf("node %s is down", h.node.ID())
	}
	client, server := net.Pipe()
	h.conns = append(h.conns, server)
	go func() {
		defer server.Close()
		_ = h.node.ServeConn(server)
	}()
	return client, nil
}

// sever marks the node down and closes its open control-plane pipes.
func (h *nodeHandle) sever() {
	h.mu.Lock()
	h.down = true
	conns := h.conns
	h.conns = nil
	h.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (h *nodeHandle) kill() {
	h.sever()
	h.node.Kill()
}

func (h *nodeHandle) close() {
	h.sever()
	if err := h.node.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "lofat-fleet: close node %s: %v\n", h.node.ID(), err)
	}
}

// runFederated is the multi-verifier variant of run: the same simulated
// TCP device fleet, but sharded by the placement ring across fc.nodes
// verifier nodes behind one coordinator, with optional persistent
// registries and kill/rejoin or join/rebalance chaos.
func runFederated(shape fleetShape, sweeps int, cfg fleet.Config, fc fedConfig, o obsConfig) error {
	w, atk, prog, devCfg, err := shape.resolve()
	if err != nil {
		return err
	}
	if (fc.kill || fc.diskFault != "") && fc.snapDir == "" {
		dir, err := os.MkdirTemp("", "lofat-fed-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		fc.snapDir = dir
		fmt.Printf("persisting node registries under %s (needed by -kill / -disk-fault)\n", dir)
	}
	// The fault is armed only after enrollment (below), so the demo
	// always shows a warmed node losing its disk — never a node that
	// cannot even enroll its shard.
	var diskInj *faultfs.Injector
	var diskPlan faultfs.Plan
	switch fc.diskFault {
	case "":
	case "fsync":
		diskPlan = faultfs.Plan{SyncErrOn: 1, Err: errors.New("injected: fsync: input/output error")}
	case "enospc":
		diskPlan = faultfs.Plan{WriteErrAfter: 1, Err: errors.New("injected: no space left on device")}
	default:
		return fmt.Errorf("unknown -disk-fault %q (want fsync or enospc)", fc.diskFault)
	}

	hub, obsDone, err := setupObs(o)
	if err != nil {
		return err
	}
	defer obsDone()

	var devs simDevices
	cfg.Dial = devs.dialer(cfg.DialTimeout)

	nodeCfg := func(i int) fed.NodeConfig {
		nc := fed.NodeConfig{ID: fed.NodeID(fmt.Sprintf("node-%d", i)), Fleet: cfg}
		if fc.snapDir != "" {
			nc.Dir = filepath.Join(fc.snapDir, string(nc.ID))
		}
		if i == 0 && fc.diskFault != "" {
			diskInj = faultfs.New(faultfs.OS{}, faultfs.Plan{})
			nc.FS = diskInj
		}
		return nc
	}
	startNode := func(i int) (*nodeHandle, error) {
		n, err := fed.NewNode(nodeCfg(i))
		if err != nil {
			return nil, err
		}
		return &nodeHandle{node: n}, nil
	}

	coord := fed.NewCoordinator(fed.Config{Obs: hub, Replicas: fc.replicas})
	defer coord.Close()
	handles := make([]*nodeHandle, fc.nodes)
	for i := range handles {
		h, err := startNode(i)
		if err != nil {
			return err
		}
		handles[i] = h
		defer h.close()
		if _, err := coord.Join(h.node.ID(), h.dial); err != nil {
			return err
		}
	}
	persisted := "ephemeral"
	if fc.snapDir != "" {
		persisted = "snapshot/WAL under " + fc.snapDir
	}
	replicas := fc.replicas
	if replicas <= 0 {
		replicas = 1
	}
	fmt.Printf("federation: %d verifier nodes, %d replica(s) per device (%s)\n", fc.nodes, replicas, persisted)

	progID, err := coord.RegisterProgram(prog, devCfg, [][]uint32{w.Input})
	if err != nil {
		return err
	}
	fmt.Printf("registered firmware %q as program %v on every node\n", w.Name, progID)

	defer devs.close()
	start := time.Now()
	if err := devs.spawn(shape, prog, devCfg, atk, proverIdleTimeout(cfg), progID, coord.Enroll); err != nil {
		return err
	}
	fmt.Printf("enrolled %d devices across %d nodes (%d armed with %q, %d stalled, %d dropping) in %v\n",
		shape.devices, fc.nodes, shape.attacked, atk.Name, shape.stalled, shape.dropping, time.Since(start).Round(time.Millisecond))
	if diskInj != nil {
		diskInj.Arm(diskPlan)
		fmt.Printf("armed disk fault %q on %s (%d bytes already durable)\n",
			fc.diskFault, handles[0].node.ID(), diskInj.Stats().BytesWritten)
	}

	sweep := func(label string) error {
		v, err := coord.Sweep(progID, w.Input, false)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %v\n", label, v)
		return nil
	}
	for i := 0; i < sweeps; i++ {
		if err := sweep(fmt.Sprintf("sweep %d", i+1)); err != nil {
			return err
		}
	}

	if fc.killMid {
		victim := handles[0]
		fmt.Printf("\n--- chaos: killing %s DURING the next sweep (failover needs -replicas >= 2) ---\n", victim.node.ID())
		timer := time.AfterFunc(2*time.Millisecond, victim.kill)
		v, err := coord.Sweep(progID, w.Input, false)
		timer.Stop()
		if err != nil {
			return err
		}
		fmt.Printf("mid-sweep-kill sweep: %v\n", v)
		if len(v.FailedOver) > 0 {
			fmt.Printf("failed over %d device(s) to surviving replicas in %d wave(s):\n", len(v.FailedOver), v.Waves)
			shown := 0
			for id, to := range v.FailedOver {
				fmt.Printf("  %s → %s\n", id, to)
				if shown++; shown >= 10 {
					fmt.Println("  ...")
					break
				}
			}
		}
		if len(v.Uncovered) > 0 {
			fmt.Printf("UNCOVERED after failover: %d device(s) — no live replica held them\n", len(v.Uncovered))
		}
		if err := sweep("post-failover sweep"); err != nil {
			return err
		}
	}

	if fc.diskFault != "" {
		n := handles[0].node
		fmt.Printf("\n--- disk fault %q on %s ---\n", fc.diskFault, n.ID())
		if lame, reason := n.Health(); lame {
			fmt.Printf("%s is a lame duck (read-only): %s\n", n.ID(), reason)
		} else {
			fmt.Printf("%s still reports healthy storage (fault not yet hit; reason=%q)\n", n.ID(), reason)
		}
		if err := sweep("degraded-storage sweep"); err != nil {
			return err
		}
		if err := coord.Enroll("probe-enroll", progID, nil, "127.0.0.1:1"); err != nil {
			fmt.Printf("enroll on the degraded federation refused: %v\n", err)
		} else {
			fmt.Println("enroll on the degraded federation accepted (device placed on a healthy replica)")
		}
	}

	if fc.kill {
		victim := handles[0]
		fmt.Printf("\n--- chaos: killing %s (no final sync; WAL abandoned as-is) ---\n", victim.node.ID())
		victim.kill()
		if err := sweep("degraded sweep"); err != nil {
			return err
		}
		restarted, err := startNode(0)
		if err != nil {
			return fmt.Errorf("warm restart: %w", err)
		}
		handles[0] = restarted
		defer restarted.close()
		fmt.Printf("warm restart: %s recovered %d pending devices from snapshot+WAL\n",
			restarted.node.ID(), restarted.node.PendingDevices())
		if err := coord.Rejoin(restarted.node.ID(), restarted.dial); err != nil {
			return err
		}
		if err := sweep("post-rejoin sweep"); err != nil {
			return err
		}
	}

	if fc.join {
		h, err := startNode(fc.nodes)
		if err != nil {
			return err
		}
		defer h.close()
		fmt.Printf("\n--- joining %s ---\n", h.node.ID())
		rep, err := coord.Join(h.node.ID(), h.dial)
		if err != nil {
			return err
		}
		fmt.Printf("rebalance: %d devices moved (%d with full state, %d re-enrolled fresh), %d errors\n",
			rep.Moved, rep.Transferred, rep.Recovered, len(rep.Errors))
		if err := sweep("post-join sweep"); err != nil {
			return err
		}
	}

	if fr := hub.Flight; fr != nil && fr.Len() > 0 {
		fmt.Println("\ncoordinator flight recorder (topology, rebalance, failover, lame-duck events):")
		topo := 0
		for _, e := range fr.Events() {
			switch e.Kind {
			case obs.KindNodeJoin, obs.KindNodeLeave, obs.KindRebalance, obs.KindFailover, obs.KindLameDuck:
				fmt.Printf("  #%d %s %s %s\n", e.Seq, e.Kind, e.Device, e.Detail)
				topo++
			}
			if topo >= 20 {
				fmt.Println("  ...")
				break
			}
		}
	}
	return nil
}
