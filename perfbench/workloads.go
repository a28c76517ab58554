package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rocesim/internal/core"
	"rocesim/internal/experiments"
	"rocesim/internal/monitor"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/topology"
	wl "rocesim/internal/workload"
)

// simRun is one simulation of a workload: its host-time split, the
// canonical text of its simulated output (host-time fields removed) and
// the problems its output check found.
type simRun struct {
	setup, run float64
	text       string
	problems   []string
	events     uint64
	// vals carries workload-specific headline numbers.
	vals []float64
}

// workload is one named benchmark input. run drives the program's public
// entry point (experiments.Run*) with no observer attached; traced runs
// the same simulation with tr attached to its kernel, through the same
// entry point where it exposes the kernel and through a composition of
// core.New, Deployment.Connect and Kernel.RunUntil where it does not.
type workload struct {
	name        string
	defaultSeed int64
	shards      int
	// sharded, when above shards, is the shard count a traced run also
	// makes an untraced pass at, for sim.shard_speedup.
	sharded int
	run     func(seed int64, shards int) []simRun
	traced  func(seed int64, shards int, tr *tracer) []simRun
	// spec is the workload's fabric (one storm's, for the batch): the
	// route-table sizes the route-install replay uses.
	spec     func() topology.Spec
	headline func(runs []simRun) []string
}

var workloads = []*workload{
	{
		name: "storm", defaultSeed: 11,
		run:    func(seed int64, _ int) []simRun { return runStorms(stormSeeds(seed), nil) },
		traced: func(seed int64, _ int, tr *tracer) []simRun { return runStorms(stormSeeds(seed), tr) },
		spec:   stormSpec, headline: stormHeadline,
	},
	{
		name: "fig7-1152", defaultSeed: 41, shards: 1, sharded: 2,
		run: func(seed int64, shards int) []simRun { return runFig7(fig7Config(seed, shards)) },
		traced: func(seed int64, shards int, tr *tracer) []simRun {
			return tracedFig7(fig7Config(seed, shards), tr)
		},
		spec: func() topology.Spec { return fig7Spec(fig7Config(0, 0)) }, headline: fig7Headline,
	},
	{
		name: "pingmesh-20k", defaultSeed: 7,
		run: func(seed int64, _ int) []simRun {
			_, r := pingmeshSweep(pingmeshConfig(seed), nil)
			return []simRun{r}
		},
		traced: func(seed int64, _ int, tr *tracer) []simRun {
			_, r := pingmeshSweep(pingmeshConfig(seed), tr)
			return []simRun{r}
		},
		spec: func() topology.Spec { return pingmeshSpec(pingmeshConfig(0)) }, headline: pingmeshHeadline,
	},
	{
		name: "transports-short", defaultSeed: 61,
		run:    func(seed int64, _ int) []simRun { return runTransports(transportSeeds(seed), nil) },
		traced: func(seed int64, _ int, tr *tracer) []simRun { return runTransports(transportSeeds(seed), tr) },
		spec:   transportSpec, headline: transportHeadline,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- storm ----

// The storm workload is a batch of short storms, each from its own seed
// derived from the run's seed. One storm's host time depends strongly on
// its ECMP draws (0.25 s to 0.6 s at 10 ms simulated on a 2-CPU host),
// so a single storm per run would measure the seed, not the program.
const (
	stormBatch    = 50
	stormDuration = 10 * simtime.Millisecond
)

func stormSeeds(seed int64) []int64 {
	out := make([]int64, stormBatch)
	for i := range out {
		out[i] = seed*stormBatch + int64(i)
	}
	return out
}

func stormConfig(seed int64) experiments.StormConfig {
	cfg := experiments.DefaultStorm(false)
	cfg.Seed = seed
	cfg.Duration = stormDuration
	return cfg
}

// stormSpec mirrors the fabric RunStorm builds.
func stormSpec() topology.Spec {
	return topology.Spec{
		Name: "storm", Podsets: 1, LeafsPerPod: 2, TorsPerPod: 2,
		ServersPerTor: 8, LinkRate: 40 * simtime.Gbps,
		ServerCableM: 2, LeafCableM: 20,
	}
}

// stormDeployConfig mirrors the deployment configuration RunStorm builds
// with watchdogs off (TestStormBuildMatchesRunStorm).
func stormDeployConfig() core.Config {
	dcfg := core.DefaultConfig(stormSpec())
	dcfg.Safety = core.Recommended()
	dcfg.Safety.NICWatchdog, dcfg.Safety.SwitchWatchdog = false, false
	dcfg.MonitorInterval = 10 * simtime.Millisecond
	return dcfg
}

// stormBuild times core.New and the seven Connect calls of one storm
// fabric, which RunStorm performs without exposing them.
func stormBuild(seed int64, tr *tracer) {
	d := tr.build(sim.NewRoot(seed, 0), stormDeployConfig())
	net := d.Net
	start := time.Now()
	for i := 0; i < 4; i++ {
		d.Connect(net.Server(0, 0, i), net.Server(0, 1, i), core.ClassBulk)
	}
	for i := 4; i < 7; i++ {
		d.Connect(net.Server(0, 1, i), net.Server(0, 0, 6), core.ClassBulk)
	}
	tr.connectS = time.Since(start).Seconds()
}

// runStorms runs one storm per seed through experiments.RunStorm, with tr
// (when set) attached through the Observe hook. RunStorm calls that hook
// right after core.New, so a storm's setup time is the fabric build and
// its seven Connect calls and the streams' start count toward its run
// time.
func runStorms(seeds []int64, tr *tracer) []simRun {
	if tr != nil {
		stormBuild(seeds[0], tr)
	}
	var runs []simRun
	for _, s := range seeds {
		// Each storm starts from a collected heap, so the pass's peak
		// memory does not depend on where the GC cycle stood when the
		// previous storm ended.
		runtime.GC()
		cfg := stormConfig(s)
		var k *sim.Kernel
		var built time.Time
		cfg.Observe = func(kk *sim.Kernel) {
			k = kk
			if tr != nil {
				tr.attach(kk)
				tr.setPhase("run")
			}
			built = time.Now()
		}
		if tr != nil {
			tr.setPhase("setup")
		}
		start := time.Now()
		r := experiments.RunStorm(cfg)
		end := time.Now()
		if tr != nil {
			tr.finish(k)
		}
		run := simRun{setup: built.Sub(start).Seconds(), run: end.Sub(built).Seconds(), events: k.EventsFired(),
			vals: []float64{r.ThroughputBefore, r.ThroughputDuring, r.ThroughputAfter}}
		run.text = experiments.StormIncident(r) + r.Snapshot.Text()
		if r.ServersTotal != 4 {
			run.problems = append(run.problems, fmt.Sprintf("storm seed %d: %d victim servers, want 4", s, r.ServersTotal))
		}
		if r.PauseRxPeak <= 0 {
			run.problems = append(run.problems, fmt.Sprintf("storm seed %d: no pause frames received", s))
		}
		if n := r.Snapshot.SumSuffix("/lossless_drops"); n != 0 {
			run.problems = append(run.problems, fmt.Sprintf("storm seed %d: %v lossless drops", s, n))
		}
		if r.WatchdogTripped {
			run.problems = append(run.problems, fmt.Sprintf("storm seed %d: watchdog tripped with watchdogs off", s))
		}
		runs = append(runs, run)
	}
	return runs
}

func stormHeadline(runs []simRun) []string {
	var before, during, after []float64
	for _, r := range runs {
		before, during, after = append(before, r.vals[0]), append(during, r.vals[1]), append(after, r.vals[2])
	}
	return []string{
		fmt.Sprintf("storm: %d storms of %v simulated, watchdogs off; median victim Gb/s before=%.1f during=%.1f after=%.1f",
			len(runs), stormDuration, median(before), median(during), median(after)),
		"  docs/results/storm.txt (one 300 ms storm, seed 11): " + docsLine("storm.txt", "watchdogs="),
		fmt.Sprintf("  each storm lasts %v, below the 100 ms watchdog window: pfc.watchdog_trips is 0 by construction", stormDuration),
	}
}

// ---- fig7-1152 ----

// fig7Config is Figure 7 at 1152 servers (24 ToR pairs x 24 servers, 2
// QPs per server pair in both directions). 64 KB messages complete
// inside the 1 ms window; the aggregate is a DCQCN-transient figure
// after 0.5 ms of warm-up, not the paper's 60 % steady state.
func fig7Config(seed int64, shards int) experiments.Fig7Config {
	cfg := experiments.DefaultFig7()
	cfg.Seed = seed
	cfg.ServersPerTor = 24
	cfg.QPsPerServer = 2
	cfg.MessageSize = 64 << 10
	cfg.Warmup = 500 * simtime.Microsecond
	cfg.Measure = 1 * simtime.Millisecond
	cfg.Shards = shards
	return cfg
}

// fig7Spec mirrors the fabric RunFig7 builds from cfg.
func fig7Spec(cfg experiments.Fig7Config) topology.Spec {
	spec := topology.Fig7Spec(cfg.ServersPerTor)
	if cfg.TorPairs < spec.TorsPerPod {
		spec.TorsPerPod = cfg.TorPairs
	}
	spec.Spines = spec.TorsPerPod * 64 / 24
	spec.Spines -= spec.Spines % spec.LeafsPerPod
	if spec.Spines < spec.LeafsPerPod {
		spec.Spines = spec.LeafsPerPod
	}
	return spec
}

func fig7Text(r experiments.Fig7Result) string {
	return fmt.Sprintf("conns=%d links=%d agg=%v frames/s=%v capacity=%v util=%v lossless=%d drops=%d events=%d\n",
		r.Connections, r.BottleneckLinks, r.AggregateGbps, r.FramesPerSec, r.CapacityGbps,
		r.Utilization, r.LosslessDrops, r.Drops, r.EventsFired)
}

func fig7Check(r experiments.Fig7Result) []string {
	var p []string
	if r.Connections != 2304 {
		p = append(p, fmt.Sprintf("fig7: %d connections, want 2304", r.Connections))
	}
	if !(r.AggregateGbps > 0) {
		p = append(p, "fig7: no message completed in the measurement window")
	}
	if r.LosslessDrops != 0 {
		p = append(p, fmt.Sprintf("fig7: %d lossless drops", r.LosslessDrops))
	}
	if r.Utilization > 1 {
		p = append(p, fmt.Sprintf("fig7: utilization %v above capacity", r.Utilization))
	}
	return p
}

func runFig7(cfg experiments.Fig7Config) []simRun {
	start := time.Now()
	r := experiments.RunFig7(cfg)
	wall := time.Since(start).Seconds()
	return []simRun{{setup: wall - r.RunSeconds, run: r.RunSeconds, text: fig7Text(r),
		problems: fig7Check(r), events: r.EventsFired}}
}

// tracedFig7 is RunFig7 composed from its public parts, so the tracer
// can attach to the kernel and core.New and Connect are timed apart. Its
// output must digest identically to runFig7's.
func tracedFig7(cfg experiments.Fig7Config, tr *tracer) []simRun {
	tr.setPhase("setup")
	start := time.Now()
	k := sim.NewRoot(cfg.Seed, cfg.Shards)
	spec := fig7Spec(cfg)
	d := tr.build(k, core.DefaultConfig(spec))
	tr.attach(k)
	net := d.Net
	var streams []*wl.Streamer
	conns := 0
	connectStart := time.Now()
	for t := 0; t < spec.TorsPerPod; t++ {
		for s := 0; s < cfg.ServersPerTor; s++ {
			a := net.Server(0, t, s)
			b := net.Server(1, t, s)
			for q := 0; q < cfg.QPsPerServer; q++ {
				qa, _ := d.Connect(a, b, core.ClassBulk)
				qb, _ := d.Connect(b, a, core.ClassBulk)
				for _, st := range []*wl.Streamer{
					{QP: qa, Size: cfg.MessageSize},
					{QP: qb, Size: cfg.MessageSize},
				} {
					st.Start(2)
					streams = append(streams, st)
				}
				conns += 2
			}
		}
	}
	tr.connectS = time.Since(connectStart).Seconds()
	tr.setPhase("run")
	wall := time.Now()
	k.RunUntil(simtime.Time(cfg.Warmup))
	first := make([]uint64, len(streams))
	for i, st := range streams {
		first[i] = st.Done
	}
	k.RunUntil(simtime.Time(cfg.Warmup + cfg.Measure))
	runSeconds := time.Since(wall).Seconds()

	var msgs float64
	for i, st := range streams {
		msgs += float64(st.Done - first[i])
	}
	agg := msgs * float64(cfg.MessageSize) * 8 / cfg.Measure.Seconds() / 1e9
	capacity := float64(len(net.LeafSpineLinks)) * 40
	snap := k.Metrics().Snapshot()
	r := experiments.Fig7Result{
		Connections:     conns,
		AggregateGbps:   agg,
		FramesPerSec:    msgs * float64(cfg.MessageSize) / 1024 / cfg.Measure.Seconds(),
		CapacityGbps:    capacity,
		Utilization:     agg / capacity,
		BottleneckLinks: len(net.LeafSpineLinks),
		LosslessDrops:   uint64(snap.SumSuffix("/lossless_drops")),
		Drops:           uint64(snap.SumSuffix("/drops")),
		EventsFired:     k.EventsFired(),
	}
	tr.finish(k)
	return []simRun{{setup: wall.Sub(start).Seconds(), run: runSeconds, text: fig7Text(r),
		problems: fig7Check(r), events: r.EventsFired}}
}

func fig7Headline(runs []simRun) []string {
	return []string{
		"fig7-1152 (DCQCN transient: 64 KB messages, 1 ms window after 0.5 ms warm-up; the paper's 60 % is a steady state): " +
			strings.TrimSpace(runs[0].text),
	}
}

// ---- pingmesh-20k ----

// pingmeshConfig is the stock 20,160-server sweep: 2000 sampled pairs
// probed for 100 ms.
func pingmeshConfig(seed int64) experiments.PingmeshSweepConfig {
	cfg := experiments.DefaultPingmeshSweep()
	cfg.Seed = seed
	return cfg
}

// pingmeshSpec mirrors the fabric RunPingmeshSweep builds from cfg.
func pingmeshSpec(cfg experiments.PingmeshSweepConfig) topology.Spec {
	spec := topology.Fig7Spec(cfg.ServersPerTor)
	spec.Name = fmt.Sprintf("fleet-%dx%dx%d", cfg.Podsets, cfg.TorsPerPod, cfg.ServersPerTor)
	spec.Podsets = cfg.Podsets
	spec.TorsPerPod = cfg.TorsPerPod
	return spec
}

var scopes = []monitor.ProbeScope{monitor.ScopeToR, monitor.ScopePodset, monitor.ScopeDC}

func pingmeshText(r experiments.PingmeshSweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "servers=%d switches=%d probes=%d events=%d\n", r.Servers, r.Switches, r.Probes, r.EventsFired)
	for _, s := range scopes {
		fmt.Fprintf(&b, "%s pairs=%d p50=%v p99=%v failures=%d\n", s, r.PairsByScope[s], r.P50us[s], r.P99us[s], r.Failures[s])
	}
	return b.String()
}

func pingmeshCheck(r experiments.PingmeshSweepResult) []string {
	var p []string
	if r.Servers != 20160 {
		p = append(p, fmt.Sprintf("pingmesh: %d servers, want 20160", r.Servers))
	}
	if r.Probes == 0 {
		p = append(p, "pingmesh: no probes sent")
	}
	last := 0.0
	for _, s := range scopes {
		if r.PairsByScope[s] == 0 {
			continue
		}
		if r.Failures[s] != 0 {
			p = append(p, fmt.Sprintf("pingmesh: %d probe failures at scope %s on a healthy fabric", r.Failures[s], s))
		}
		if !(r.P50us[s] > last) {
			p = append(p, fmt.Sprintf("pingmesh: %s p50 %vus not above the narrower scope's %vus", s, r.P50us[s], last))
		}
		last = r.P50us[s]
	}
	return p
}

// pingmeshSweep is RunPingmeshSweep composed from its public parts, so
// the registry snapshot and every probe's outcome can be read and tr
// (when set) can attach to the kernel. Its result must equal
// RunPingmeshSweep's (TestPingmeshMatchesSweep). The simulated output is
// the result, every scope's RTT distribution at percentile resolution,
// each settled probe in order, and the registry snapshot.
func pingmeshSweep(cfg experiments.PingmeshSweepConfig, tr *tracer) (experiments.PingmeshSweepResult, simRun) {
	if tr != nil {
		tr.setPhase("setup")
	}
	start := time.Now()
	k := sim.NewRoot(cfg.Seed, cfg.Shards)
	dcfg := core.DefaultConfig(pingmeshSpec(cfg))
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
	pm := monitor.NewPingmesh(k, monitor.DefaultPingmesh())
	probes := sha256.New()
	if cfg.Shards <= 1 {
		// A sharded mesh settles probes on worker goroutines; the
		// workload runs unsharded, where they settle in kernel order.
		pm.OnResult = func(a, b *topology.Server, scope monitor.ProbeScope, rtt simtime.Duration, ok bool) {
			fmt.Fprintf(probes, "%d %s %s %s %d %v\n", k.Now(), a.NIC.Name(), b.NIC.Name(), scope, rtt, ok)
		}
	}
	rng := k.Rand("pingmesh/sweep")
	n := len(net.Servers)
	seen := make(map[[2]int]bool, cfg.Pairs)
	pairsByScope := make(map[monitor.ProbeScope]int)
	for len(seen) < cfg.Pairs {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		sa, sb := net.Servers[a], net.Servers[b]
		pm.AddPair(net, sa, sb)
		switch {
		case sa.Podset == sb.Podset && sa.TorIdx == sb.TorIdx:
			pairsByScope[monitor.ScopeToR]++
		case sa.Podset == sb.Podset:
			pairsByScope[monitor.ScopePodset]++
		default:
			pairsByScope[monitor.ScopeDC]++
		}
	}
	pm.Start()
	if tr != nil {
		tr.setPhase("run")
	}
	wall := time.Now()
	k.RunUntil(simtime.Time(cfg.Duration))
	runSeconds := time.Since(wall).Seconds()
	pm.Fold()

	r := experiments.PingmeshSweepResult{
		Cfg:          cfg,
		Servers:      len(net.Servers),
		Switches:     len(net.Switches()),
		Probes:       pm.Probes,
		PairsByScope: pairsByScope,
		P50us:        make(map[monitor.ProbeScope]float64),
		P99us:        make(map[monitor.ProbeScope]float64),
		Failures:     make(map[monitor.ProbeScope]uint64),
		EventsFired:  k.EventsFired(),
	}
	var text strings.Builder
	for s, h := range pm.RTT {
		r.P50us[s] = h.Quantile(0.50) / 1e6
		r.P99us[s] = h.Quantile(0.99) / 1e6
		r.Failures[s] = pm.Failures[s]
	}
	text.WriteString(pingmeshText(r))
	for _, s := range scopes {
		h := pm.RTT[s]
		if h == nil {
			continue
		}
		fmt.Fprintf(&text, "%s rtt count=%d min=%v max=%v mean=%v q=", s, h.Count(), h.Min(), h.Max(), h.Mean())
		for q := 1; q <= 100; q++ {
			fmt.Fprintf(&text, " %v", h.Quantile(float64(q)/100))
		}
		text.WriteString("\n")
	}
	fmt.Fprintf(&text, "probe outcomes sha256=%x\n", probes.Sum(nil))
	if tr != nil {
		tr.probes = r.Probes
		for _, f := range r.Failures {
			tr.probeFailures += f
		}
		tr.finish(k)
	}
	// The snapshot of a 20K-server fabric is large: it enters the
	// output by its digest.
	snap := sha256.New()
	for _, e := range k.Metrics().Snapshot().Entries {
		fmt.Fprintf(snap, "%s %v %v", e.Key, e.Kind, e.Value)
		if e.Hist != nil {
			fmt.Fprintf(snap, " %+v", *e.Hist)
		}
		snap.Write([]byte{'\n'})
	}
	fmt.Fprintf(&text, "snapshot sha256=%x\n", snap.Sum(nil))
	return r, simRun{setup: wall.Sub(start).Seconds(), run: runSeconds, text: text.String(),
		problems: pingmeshCheck(r), events: r.EventsFired}
}

func pingmeshHeadline(runs []simRun) []string {
	head, _, _ := strings.Cut(runs[0].text, " rtt count=")
	out := []string{"pingmesh-20k p50 by scope: " + strings.ReplaceAll(strings.TrimSpace(head[:strings.LastIndex(head, "\n")]), "\n", "; ")}
	for _, s := range scopes {
		out = append(out, fmt.Sprintf("  docs/results/pingmesh.txt %s: %s", s, docsLine("pingmesh.txt", "  "+s.String()+" ")))
	}
	return out
}

// docsLine returns the first line of docs/results/<file> containing
// marker, trimmed, or a note that the file is absent.
func docsLine(file, marker string) string {
	b, err := os.ReadFile(filepath.Join("docs", "results", file))
	if err != nil {
		return "(not available: " + err.Error() + ")"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.Contains(l, marker) {
			return strings.TrimSpace(l)
		}
	}
	return "(no line with " + fmt.Sprintf("%q", marker) + ")"
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// memDelta is the allocation volume and GC cycle count between two
// runtime.MemStats readings.
func memDelta(a, b *runtime.MemStats) (allocMB float64, gcs uint32) {
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), b.NumGC - a.NumGC
}
