package experiments

import (
	"fmt"

	"rocesim/internal/core"
	"rocesim/internal/flighttrace"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/stats"
	"rocesim/internal/topology"
	"rocesim/internal/workload"
)

// AlphaConfig shapes the Figure 10 incident: chatty front-end servers
// fan queries out to many backends; the synchronized responses incast
// into the front ends' ToR. With the intended α=1/16 the dynamic buffer
// absorbs the bursts; with the new switch model's silent α=1/64 the
// ingress thresholds are four times smaller and pause frames flood the
// podset, hurting innocent latency-sensitive services.
type AlphaConfig struct {
	Seed     int64
	Alpha    float64
	Chatty   int // front-end servers issuing fan-out queries
	Backends int
	Duration simtime.Duration
	// Observe, when set, runs after the fabric is built and before
	// traffic starts (external tracer/recorder attachment point).
	Observe func(*sim.Kernel)
	// Shards partitions the fabric across parallel event-kernel shards
	// (<=1 runs the classic single kernel). Results are byte-identical
	// for any value.
	Shards int
}

// DefaultAlpha returns the scenario at the given alpha.
func DefaultAlpha(alpha float64) AlphaConfig {
	return AlphaConfig{Seed: 51, Alpha: alpha, Chatty: 2, Backends: 12, Duration: 400 * simtime.Millisecond}
}

// AlphaResult reports pause volume and victim latency.
type AlphaResult struct {
	Cfg AlphaConfig
	// PauseTx is the total pause frames generated by the ToRs.
	PauseTx uint64
	// PausePeak is the max pause frames in one collection interval
	// (Figure 10(b)).
	PausePeak float64
	// VictimLat is the innocent service's latency distribution (ps).
	VictimLat *stats.Histogram
	ChattyOps uint64
	// PFC is the pause-propagation analysis: with the misconfigured α
	// the over-pausing ToR must rank as top root cause.
	PFC *flighttrace.PFCReport
}

// Table renders the comparison row.
func (r AlphaResult) Table() string {
	return row(
		fmt.Sprintf("alpha=1/%-3d", int(1/r.Cfg.Alpha+0.5)),
		fmt.Sprintf("pauseTx=%-7d", r.PauseTx),
		fmt.Sprintf("pausePeak=%-6.0f", r.PausePeak),
		fmt.Sprintf("victim p99=%-8s p99.9=%-8s", us(r.VictimLat.Quantile(0.99)), us(r.VictimLat.Quantile(0.999))),
		fmt.Sprintf("chattyOps=%d", r.ChattyOps),
	)
}

// RunAlpha executes the incident scenario at one alpha.
func RunAlpha(cfg AlphaConfig) AlphaResult {
	k := sim.NewRoot(cfg.Seed, cfg.Shards)
	spec := topology.Spec{
		Name: "fig10", Podsets: 1, LeafsPerPod: 2, TorsPerPod: 2,
		ServersPerTor: cfg.Chatty + cfg.Backends + 2, LinkRate: 40 * simtime.Gbps,
		ServerCableM: 2, LeafCableM: 20,
	}
	dcfg := core.DefaultConfig(spec)
	dcfg.Alpha = cfg.Alpha
	dcfg.MonitorInterval = 10 * simtime.Millisecond
	d, err := core.New(k, dcfg)
	if err != nil {
		panic(err)
	}
	net := d.Net
	pfc := tracePFC(k, net)
	if cfg.Observe != nil {
		cfg.Observe(k)
	}
	var peak float64
	onPauseRx(d, func(_, max float64) {
		if max > peak {
			peak = max
		}
	})

	// Chatty front ends on ToR 0, backends on ToR 1. Large synchronized
	// responses incast into the front ends.
	svcCfg := workload.ServiceConfig{
		QuerySize:    512,
		ResponseSize: 128 << 10,
		Fanout:       cfg.Backends,
		Interval:     3 * simtime.Millisecond,
	}
	var chatty []*workload.Service
	for c := 0; c < cfg.Chatty; c++ {
		client := net.Server(0, 0, c)
		var chans []workload.PingPong
		for b := 0; b < cfg.Backends; b++ {
			qc, qs := d.Connect(client, net.Server(0, 1, b), core.ClassBulk)
			// RTTs are clocked on the client NIC's kernel: the answer
			// callback runs on that shard, where the global clock may be a
			// window behind. Identical to k.Now unsharded.
			chans = append(chans, workload.NewRDMAPingPong(qc, qs, client.NIC.Kernel().Now))
		}
		svc := workload.NewService(k, fmt.Sprintf("chatty-%d", c), svcCfg, chans)
		svc.Start()
		chatty = append(chatty, svc)
	}

	// The victim: an innocent latency-sensitive service sharing ToR 0.
	va := net.Server(0, 0, cfg.Chatty)
	vb := net.Server(0, 1, cfg.Backends)
	qc, qs := d.Connect(va, vb, core.ClassBulk)
	victim := workload.NewService(k, "victim", workload.ServiceConfig{
		QuerySize: 512, ResponseSize: 8 << 10, Fanout: 1, Interval: simtime.Millisecond,
	}, []workload.PingPong{workload.NewRDMAPingPong(qc, qs, va.NIC.Kernel().Now)})
	victim.Start()

	k.RunUntil(simtime.Time(cfg.Duration))

	snap := k.Metrics().Snapshot()
	var pauseTx uint64
	for _, sw := range net.Tors {
		pauseTx += snap.Counter(sw.Name() + "/pause_tx")
	}
	var ops uint64
	for _, svc := range chatty {
		ops += svc.Ops
	}
	pfc.Finish(k.Now())
	return AlphaResult{
		Cfg:       cfg,
		PauseTx:   pauseTx,
		PausePeak: peak,
		VictimLat: victim.Lat,
		ChattyOps: ops,
		PFC:       pfc.Report(),
	}
}

// AlphaIncident runs both alphas over the given shard count and renders
// the Figure 10 comparison. The output is byte-identical for any shards
// value.
func AlphaIncident(shards int) string {
	out := "Figure 10 — dynamic-buffer misconfiguration (α silently 1/64 instead of 1/16)\n"
	good := DefaultAlpha(1.0 / 16)
	good.Shards = shards
	out += RunAlpha(good).Table()
	badCfg := DefaultAlpha(1.0 / 64)
	badCfg.Shards = shards
	bad := RunAlpha(badCfg)
	out += bad.Table()
	out += "paper: pause frames flooded the podset and latency-sensitive services suffered;\n"
	out += "tuning α back to 1/16 resolved the incident\n"
	out += pfcSection(bad.PFC)
	return out
}
