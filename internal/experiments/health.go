package experiments

import (
	"fmt"

	"rocesim/internal/core"
	"rocesim/internal/faults"
	"rocesim/internal/health"
	"rocesim/internal/monitor"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/topology"
	"rocesim/internal/workload"
)

// HealthConfig shapes a fleet-health scenario run: a fabric under
// traffic and pingmesh, scraped into the health plane, with a fault in
// the middle of the run and SLO objectives watching for it.
type HealthConfig struct {
	// Scenario selects the fabric and fault; see HealthScenarios.
	Scenario string
	Seed     int64
	// Duration of the whole run; the fault occupies [T/4, 3T/4).
	Duration simtime.Duration
	// Observe, when set, runs after the fabric is built and before
	// traffic starts (external tooling attaches here).
	Observe func(*sim.Kernel)
}

// HealthScenarios lists the runnable scenarios:
//
//   - "pfc-storm": the Figure 9 fabric (two ToRs behind two leafs at
//     40G) with watchdogs disabled and a NIC pause storm — the SLOs
//     must breach.
//   - "rack-pair-irn": the chaos campaign's rack pair at 10G on the
//     IRN (no-PFC) transport with a corrupted server cable — selective
//     repeat absorbs the fault and the SLOs must hold.
func HealthScenarios() []string { return []string{"pfc-storm", "rack-pair-irn"} }

// DefaultHealth returns the scenario's stock parameters.
func DefaultHealth(scenario string) HealthConfig {
	cfg := HealthConfig{Scenario: scenario, Seed: 1, Duration: 200 * simtime.Millisecond}
	if scenario == "rack-pair-irn" {
		cfg.Duration = 160 * simtime.Millisecond
	}
	return cfg
}

// RunHealth builds the scenario fabric, wires the full health plane —
// registry sketches fed by pingmesh RTTs, per-flow FCTs and MMU buffer
// watermarks; a scraper on the monitor cadence; SLO objectives with
// multi-window burn alerting; a ToR×ToR heatmap — injects the
// scenario's fault, and returns the end-of-run health report.
func RunHealth(cfg HealthConfig) (*health.Report, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = DefaultHealth(cfg.Scenario).Duration
	}
	k := sim.NewKernel(cfg.Seed)

	var spec topology.Spec
	var schedule faults.Schedule
	phase := cfg.Duration / 4
	dcfg := core.Config{}
	switch cfg.Scenario {
	case "pfc-storm":
		spec = topology.Spec{
			Name: "storm", Podsets: 1, LeafsPerPod: 2, TorsPerPod: 2,
			ServersPerTor: 8, LinkRate: 40 * simtime.Gbps,
			ServerCableM: 2, LeafCableM: 20,
		}
		dcfg = core.DefaultConfig(spec)
		// No watchdogs: the health plane is the only thing watching.
		dcfg.Safety.NICWatchdog = false
		dcfg.Safety.SwitchWatchdog = false
		schedule = faults.Schedule{{
			At: simtime.Time(phase), Duration: 2 * phase,
			Kind: faults.NICPauseStorm, Target: "nic:srv-0-0-6",
		}}
	case "rack-pair-irn":
		spec = topology.Spec{
			Name: "rack-pair", Podsets: 1, LeafsPerPod: 2, TorsPerPod: 2,
			ServersPerTor: 5, LinkRate: 10 * simtime.Gbps,
			ServerCableM: 2, LeafCableM: 20,
		}
		dcfg = core.DefaultConfig(spec)
		dcfg.Transport = core.TransportIRNNoPFC
		schedule = faults.Schedule{{
			At: simtime.Time(phase), Duration: 2 * phase,
			Kind: faults.LinkCorrupt, Target: "link:tor-0-0~srv-0-0-0", Param: 0.02,
		}}
	default:
		return nil, fmt.Errorf("health: unknown scenario %q (have %v)", cfg.Scenario, HealthScenarios())
	}
	dcfg.MonitorInterval = 10 * simtime.Millisecond

	// The injector resolves its targets from the network announcement,
	// so it must exist before core.New builds the fabric.
	faults.NewInjector(k, schedule)
	d, err := core.New(k, dcfg)
	if err != nil {
		return nil, err
	}
	net := d.Net
	if cfg.Observe != nil {
		cfg.Observe(k)
	}

	// Distribution sketches in the registry: pingmesh RTTs, per-flow
	// FCTs, and switch shared-buffer watermarks.
	rttSk := k.Metrics().Sketch("health/pingmesh_rtt_ps")
	fctSk := k.Metrics().Sketch("health/fct_ps")
	bufSk := k.Metrics().Sketch("health/buffer_shared_bytes")

	// Bulk traffic: pair server i of ToR 0 with server i of ToR 1, both
	// directions through the victim server so every scenario's fault sits
	// on a loaded path.
	pairs := 3
	var streams []*workload.Streamer
	var delivered uint64
	size := 1 << 20
	for i := 0; i < pairs; i++ {
		qa, _ := d.Connect(net.Server(0, 0, i), net.Server(0, 1, i), core.ClassBulk)
		st := &workload.Streamer{QP: qa, Size: size}
		st.OnDone = func(posted, completed simtime.Time) {
			fctSk.Observe(float64(completed.Sub(posted)))
			delivered += uint64(size)
		}
		streams = append(streams, st)
		st.Start(2)
	}
	if cfg.Scenario == "pfc-storm" {
		// The rogue NIC only turns into a storm when peers stream at it:
		// their frames back up through the fabric once it starts pausing
		// (the head-of-line blocking of §6.2). Same wiring as RunStorm.
		rogue := net.Server(0, 0, 6)
		for i := 4; i < 7; i++ {
			qa, _ := d.Connect(net.Server(0, 1, i), rogue, core.ClassBulk)
			(&workload.Streamer{QP: qa, Size: size}).Start(2)
		}
	}

	// Pingmesh across and within the two ToRs, feeding the RTT sketch
	// and the ToR×ToR heatmap.
	pm := monitor.NewPingmesh(k, monitor.DefaultPingmesh())
	pm.OnResult = func(a, b *topology.Server, scope monitor.ProbeScope, rtt simtime.Duration, ok bool) {
		if ok {
			rttSk.Observe(float64(rtt))
		}
	}
	heat := health.NewHeatmap(2,
		func(s *topology.Server) int { return s.TorIdx },
		func(i int) string { return fmt.Sprintf("tor-0-%d", i) },
	).Attach(pm)
	pm.AddPair(net, net.Server(0, 0, 1), net.Server(0, 0, 2))
	pm.AddPair(net, net.Server(0, 1, 1), net.Server(0, 1, 2))
	pm.AddPair(net, net.Server(0, 0, 2), net.Server(0, 1, 2))
	pm.AddPair(net, net.Server(0, 1, 3), net.Server(0, 0, 3))
	pm.Start()

	// The deployment's scraper samples pause/drop counters as deltas;
	// the MMU watermark probes join it here, feeding the watermark sketch
	// as a side effect so the distribution and the time series stay in
	// lockstep.
	sc := d.Health
	for _, sw := range net.Switches() {
		mmu := sw.MMU()
		sc.Probe("health/buffer_shared_bytes/"+sw.Name(), func() float64 {
			v := float64(mmu.SharedUsed())
			bufSk.Observe(v)
			return v
		})
	}

	// SLO objectives, evaluated on every scrape in this order.
	eng := health.NewEngine(k, sc)
	// The cold-start incast transient spikes pause counters for one
	// interval; the multi-window burn normalization keeps that from
	// paging, so the ceiling only needs to sit below a storm interval's
	// sustained count (~1300 at the victim servers).
	eng.Add(health.Objective{
		Name: "pause-rate-ceiling",
		Bad:  health.OverDelta(sc, "/pause_rx", 500),
	})
	eng.Add(health.Objective{
		Name: "lossless-drop-ceiling",
		Bad:  health.OverDelta(sc, "/lossless_drops", 1),
	})
	eng.Add(health.Objective{
		Name: "p99-rtt-1ms",
		Bad:  health.LatencyOver(rttSk, float64(simtime.Millisecond)),
		// Latency budget: up to 25% of probes per window may run long
		// before the burn alert pages.
	})
	var lastDelivered uint64
	lastRate := func() float64 {
		delta := delivered - lastDelivered
		lastDelivered = delivered
		return float64(delta) * 8 / dcfg.MonitorInterval.Seconds() / 1e9 // Gb/s
	}
	eng.Add(health.Objective{
		Name: "goodput-floor-500mbps",
		Bad:  health.Below(lastRate, 0.5),
	})

	k.RunUntil(simtime.Time(cfg.Duration))

	rep := health.NewReport(cfg.Scenario, cfg.Seed)
	rep.DurationNs = int64(cfg.Duration / simtime.Nanosecond)
	rep.AddScraper(sc)
	rep.AddEngine(eng)
	rep.AddSketch("health/pingmesh_rtt_ps", rttSk)
	rep.AddSketch("health/fct_ps", fctSk)
	rep.AddSketch("health/buffer_shared_bytes", bufSk)
	rep.AddHeatmap(heat)
	return rep, nil
}
