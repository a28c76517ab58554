package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"rocesim/internal/core"
	"rocesim/internal/experiments"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/topology"
	wl "rocesim/internal/workload"
)

// ---- transports ----

// The transports workload runs experiments.RunTransportMatrix's
// pfc-storm, incast and loss-recovery scenarios under every transport
// stack, composed from core.New, Deployment.Connect and Kernel.RunUntil
// with shorter simulated intervals. The matrix runs its cells for 80 ms
// to 120 ms and exposes no kernel: its quick grid alone takes over 40 s
// a pass and can be neither split into set-up and run nor traced.
// transportCell at the matrix's own intervals reproduces the matrix cell
// for cell (TestTransportCellsMatchMatrix). Its pause-propagation
// scenario is left out: the other three already run every stack's pause,
// drop and repair paths.

// transportScale divides the matrix's simulated intervals. At 1/8 the
// pfc+dcqcn storm cell still pauses (about 200 pause frames) and the IRN
// loss cells repair hundreds of corrupted frames through NAK-with-SACK.
// The IRN storm cells drop frames only at 1/4 and longer, and those are
// the rogue NIC's receive overflows, repaired by timeout.
const transportScale = 8

// transportScenarios are the workload's scenarios in matrix order with
// their full simulated length.
var transportScenarios = []struct {
	name  string
	total simtime.Duration
}{
	{"pfc-storm", 120 * simtime.Millisecond},
	{"incast", 80 * simtime.Millisecond},
	{"loss-recovery", 80 * simtime.Millisecond},
}

// transportCell runs one (scenario, mode) cell for total simulated time,
// the way the matrix's runTransportStorm, runTransportIncast and
// runTransportLoss do, and returns the cell and the cell as one
// simulation of the workload.
func transportCell(scenario string, mode core.TransportMode, seed int64, total simtime.Duration, tr *tracer) (experiments.TransportCell, simRun) {
	if tr != nil {
		tr.setPhase("setup")
	}
	start := time.Now()
	var k *sim.Kernel
	var spec topology.Spec
	switch scenario {
	case "pfc-storm":
		k = sim.NewKernel(seed)
		spec = transportSpec()
	case "incast":
		k = sim.NewKernel(seed + 1)
		spec = topology.RackSpec(8)
	case "loss-recovery":
		k = sim.NewKernel(seed + 3)
		spec = topology.RackSpec(4)
	default:
		panic("perfbench: unknown transport scenario " + scenario)
	}
	dcfg := core.DefaultConfig(spec)
	dcfg.Transport = mode
	dcfg.MonitorInterval = 10 * simtime.Millisecond
	var d *core.Deployment
	if tr != nil {
		d = tr.build(k, dcfg)
		tr.attach(k)
	} else {
		var err error
		if d, err = core.New(k, dcfg); err != nil {
			panic(err)
		}
	}
	net := d.Net
	connectStart := time.Now()
	stream := func(a, b *topology.Server, size int) *wl.Streamer {
		qa, _ := d.Connect(a, b, core.ClassBulk)
		st := &wl.Streamer{QP: qa, Size: size}
		st.Start(2)
		return st
	}

	var cell experiments.TransportCell
	var size int
	var run func()
	switch scenario {
	case "pfc-storm":
		const pairs = 3
		size = 1 << 20
		var streams []*wl.Streamer
		for i := 0; i < pairs; i++ {
			streams = append(streams, stream(net.Server(0, 0, i), net.Server(0, 1, i), size))
		}
		rogue := net.Server(0, 0, 4)
		for i := 3; i < 5; i++ {
			stream(net.Server(0, 1, i), rogue, size)
		}
		run = func() {
			phase := total / 4
			k.RunUntil(simtime.Time(phase))
			rogue.NIC.SetMalfunction(true)
			k.RunUntil(simtime.Time(3 * phase))
			rogue.NIC.SetMalfunction(false)
			pre := make([]uint64, pairs)
			for i, st := range streams {
				pre[i] = st.Done
			}
			k.RunUntil(simtime.Time(total))
			cell.Recovered = true
			for i, st := range streams {
				cell.Completed += st.Done
				if st.Done == pre[i] {
					cell.Recovered = false
				}
			}
		}
	case "incast":
		const senders = 6
		size = 256 << 10
		var streams []*wl.Streamer
		sink := net.Server(0, 0, 7)
		for i := 0; i < senders; i++ {
			streams = append(streams, stream(net.Server(0, 0, i), sink, size))
		}
		run = func() {
			k.RunUntil(simtime.Time(total))
			cell.Recovered = true
			for _, st := range streams {
				cell.Completed += st.Done
				if st.Done == 0 {
					cell.Recovered = false
				}
			}
		}
	case "loss-recovery":
		// The receiver's cable corrupts 1 % of frames.
		cable := net.Links[1].L
		cable.FCSErrorRate = 0.01
		size = 512 << 10
		st := stream(net.Server(0, 0, 0), net.Server(0, 0, 1), size)
		run = func() {
			k.RunUntil(simtime.Time(total))
			cell.Completed = st.Done
			cell.Recovered = st.Done > 0
			cell.FCSErrors = cable.FCSErrors
		}
	}
	if tr != nil {
		tr.connectS += time.Since(connectStart).Seconds()
		tr.setPhase("run")
	}
	wall := time.Now()
	run()
	runS := time.Since(wall).Seconds()

	cell.Scenario, cell.Mode = scenario, mode.String()
	cell.GoodputGbps = float64(cell.Completed) * float64(size) * 8 / total.Seconds() / 1e9
	snap := k.Metrics().Snapshot()
	cell.PauseTx = uint64(snap.SumSuffix("/pause_tx"))
	cell.Drops = uint64(snap.SumSuffix("/drops")) + uint64(snap.SumSuffix("/rx_overflow_drops"))
	cell.Retx = uint64(snap.SumSuffix("/qp_retx_packets"))
	if tr != nil {
		if mode.IRN() {
			tr.counts["irn/rx_packets"] += snap.SumSuffix("/qp_tx_packets")
			tr.counts["irn/ooo_arrivals"] += snap.SumSuffix("/naks_tx")
		}
		tr.finish(k)
	}
	r := simRun{setup: wall.Sub(start).Seconds(), run: runS, events: k.EventsFired(),
		text: transportText(cell) + snap.Text(), problems: transportCheck(cell, snap.SumSuffix("/lossless_drops"))}
	return cell, r
}

func transportText(c experiments.TransportCell) string {
	return fmt.Sprintf("%s %s goodput=%v pause_tx=%d drops=%d fcs=%d retx=%d done=%d recovered=%v\n",
		c.Scenario, c.Mode, c.GoodputGbps, c.PauseTx, c.Drops, c.FCSErrors, c.Retx, c.Completed, c.Recovered)
}

// transportCheck holds each cell to the matrix's contract: the IRN
// stacks never pause, no stack drops a lossless frame, and every cell
// moves its victims' traffic.
func transportCheck(c experiments.TransportCell, losslessDrops float64) []string {
	var p []string
	name := c.Scenario + "/" + c.Mode
	if c.Mode != core.TransportPFCDCQCN.String() && c.PauseTx != 0 {
		p = append(p, fmt.Sprintf("transports %s: %d pause frames on a lossy fabric", name, c.PauseTx))
	}
	if losslessDrops != 0 {
		p = append(p, fmt.Sprintf("transports %s: %v lossless drops", name, losslessDrops))
	}
	if c.Completed == 0 {
		p = append(p, fmt.Sprintf("transports %s: no message completed", name))
	}
	return p
}

// transportBatch is the number of grids in one pass. A grid's host time
// depends on its seeds' ECMP draws (7.9 M to 11.1 M events and 2.7 s to
// 4.4 s on seeds 1-12 on a 2-CPU host), so one pass averages several
// grids, and each cell of a grid draws its own seed: the matrix runs the
// three stacks of a scenario on one seed, which makes their host times
// rise and fall together (events per pass spread 0.11 over ten seeds).
// The pfc-storm cells alone vary from 0.6 M to 3.5 M events with their
// seeds; at four grids a pass, run_s spread 0.11 to 0.24 over ten seeds
// on a 2-CPU Xeon VM. At eight, a traced run took 93 s there, too close
// to the 180 s a run may take on a host that slows by half.
const transportBatch = 6

// transportSeeds are the cell seeds of one pass, grid-major and then
// in experiments.TransportModes order.
func transportSeeds(seed int64) []int64 {
	n := transportBatch * len(experiments.TransportModes)
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*int64(n) + int64(i)
	}
	return out
}

// transportSpec is the storm scenario's fabric, the larger of the two:
// the route-table sizes the route-install replay uses.
func transportSpec() topology.Spec {
	return topology.Spec{
		Name: "storm", Podsets: 1, LeafsPerPod: 2, TorsPerPod: 2,
		ServersPerTor: 6, LinkRate: 40 * simtime.Gbps,
		ServerCableM: 2, LeafCableM: 20,
	}
}

func transportHeadline(runs []simRun) []string {
	out := []string{fmt.Sprintf("transports-short: %d grids (cell seeds seed*%d+i) at 1/%d of RunTransportMatrix's intervals; first grid:",
		len(runs)/(len(transportScenarios)*len(experiments.TransportModes)), transportBatch*len(experiments.TransportModes), transportScale)}
	for _, r := range runs[:len(transportScenarios)*len(experiments.TransportModes)] {
		head, _, _ := strings.Cut(r.text, "\n")
		out = append(out, "  "+head)
	}
	return out
}

// runTransports runs one grid per len(experiments.TransportModes) seeds,
// scenario-major and in TransportModes order, at 1/transportScale of the
// matrix's simulated intervals. Every cell of a grid's mode column uses
// that mode's seed.
func runTransports(seeds []int64, tr *tracer) []simRun {
	var runs []simRun
	modes := experiments.TransportModes
	for g := 0; g+len(modes) <= len(seeds); g += len(modes) {
		for _, sc := range transportScenarios {
			for m, mode := range modes {
				// As in runStorms: each cell starts from a collected heap.
				runtime.GC()
				_, r := transportCell(sc.name, mode, seeds[g+m], sc.total/transportScale, tr)
				runs = append(runs, r)
			}
		}
	}
	return runs
}
