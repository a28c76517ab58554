package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rocesim/internal/core"
	"rocesim/internal/experiments"
	"rocesim/internal/fabric"
	"rocesim/internal/nic"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// Scaled-down inputs: the same code paths as the benchmark workloads in
// seconds rather than minutes.

func smallFig7(seed int64, shards int) experiments.Fig7Config {
	cfg := fig7Config(seed, shards)
	cfg.TorPairs, cfg.ServersPerTor = 2, 4
	cfg.Warmup, cfg.Measure = 200*simtime.Microsecond, 300*simtime.Microsecond
	return cfg
}

func smallPingmesh(seed int64) experiments.PingmeshSweepConfig {
	cfg := pingmeshConfig(seed)
	cfg.Podsets, cfg.TorsPerPod, cfg.ServersPerTor = 2, 4, 4
	cfg.Pairs, cfg.Duration = 40, 5*simtime.Millisecond
	return cfg
}

func texts(runs []simRun) string {
	var b bytes.Buffer
	for _, r := range runs {
		b.WriteString(r.text)
	}
	return b.String()
}

// smallCell is one transport cell at a length that runs in about a
// second.
func smallCell(scenario string, mode core.TransportMode, seed int64, tr *tracer) simRun {
	_, r := transportCell(scenario, mode, seed, 10*simtime.Millisecond, tr)
	return r
}

func smallSweep(seed int64, tr *tracer) simRun {
	_, r := pingmeshSweep(smallPingmesh(seed), tr)
	return r
}

func TestSeedChangesDigest(t *testing.T) {
	cases := map[string][2]string{
		"storm":      {texts(runStorms([]int64{1}, nil)), texts(runStorms([]int64{2}, nil))},
		"fig7":       {texts(runFig7(smallFig7(1, 0))), texts(runFig7(smallFig7(2, 0)))},
		"pingmesh":   {smallSweep(1, nil).text, smallSweep(2, nil).text},
		"transports": {smallCell("pfc-storm", core.TransportIRNNoPFC, 1, nil).text, smallCell("pfc-storm", core.TransportIRNNoPFC, 2, nil).text},
	}
	for name, c := range cases {
		if c[0] == c[1] {
			t.Errorf("%s: seeds 1 and 2 produced the same output:\n%s", name, c[0])
		}
	}
}

// TestRefsDistinct checks that no two recorded seeds of a workload share
// a digest, so the output check tells their simulations apart.
func TestRefsDistinct(t *testing.T) {
	var refs map[string]map[string]string
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if _, ok := refs[w.name][strconv.FormatInt(w.defaultSeed, 10)]; !ok {
			t.Errorf("%s: no reference for the default seed %d", w.name, w.defaultSeed)
		}
		seen := map[string]string{}
		for seed, d := range refs[w.name] {
			if other, ok := seen[d]; ok {
				t.Errorf("%s: seeds %s and %s share digest %s", w.name, seed, other, d)
			}
			seen[d] = seed
		}
	}
}

// TestTracedMatchesUntraced pins the traced passes (the tracer attached,
// and for fig7 the composition of core.New, Connect and RunUntil) to the
// untraced ones.
func TestTracedMatchesUntraced(t *testing.T) {
	cases := map[string][2]string{
		"storm":         {texts(runStorms([]int64{3, 4}, nil)), texts(runStorms([]int64{3, 4}, newTracer()))},
		"fig7/shards=2": {texts(runFig7(smallFig7(5, 2))), texts(tracedFig7(smallFig7(5, 2), newTracer()))},
		"fig7/shards=1": {texts(runFig7(smallFig7(5, 2))), texts(runFig7(smallFig7(5, 1)))},
		"pingmesh":      {smallSweep(6, nil).text, smallSweep(6, newTracer()).text},
		"transports":    {smallCell("pfc-storm", core.TransportIRNECN, 7, nil).text, smallCell("pfc-storm", core.TransportIRNECN, 7, newTracer()).text},
	}
	for name, c := range cases {
		if c[0] != c[1] {
			t.Errorf("%s: traced output differs:\nuntraced:\n%s\ntraced:\n%s", name, c[0], c[1])
		}
	}
}

// TestPingmeshMatchesSweep pins the composed sweep to
// experiments.RunPingmeshSweep.
func TestPingmeshMatchesSweep(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		want := pingmeshText(experiments.RunPingmeshSweep(smallPingmesh(seed)))
		got, _ := pingmeshSweep(smallPingmesh(seed), nil)
		if g := pingmeshText(got); g != want {
			t.Errorf("seed %d: composed sweep\n%s\nRunPingmeshSweep\n%s", seed, g, want)
		}
	}
}

// TestTransportCellsMatchMatrix pins transportCell, at the matrix's own
// intervals, to experiments.RunTransportMatrix cell for cell. It runs
// the full matrix and the composed cells (a few minutes on a 2-CPU
// host).
func TestTransportCellsMatchMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full transport matrix")
	}
	m := experiments.RunTransportMatrix(experiments.DefaultTransportMatrix(false))
	compared := 0
	for _, want := range m.Cells {
		for _, sc := range transportScenarios {
			if sc.name != want.Scenario {
				continue
			}
			mode := experiments.TransportModes[compared%len(experiments.TransportModes)]
			got, _ := transportCell(sc.name, mode, m.Cfg.Seed, sc.total, nil)
			if got != want {
				t.Errorf("composed %+v\nmatrix   %+v", got, want)
			}
			compared++
		}
	}
	if want := len(transportScenarios) * len(experiments.TransportModes); compared != want {
		t.Errorf("compared %d cells, want %d", compared, want)
	}
}

// devices describes every switch and NIC announced on k.
func devices(k *sim.Kernel) []string {
	var out []string
	k.OnAnnounce(func(v any) {
		switch d := v.(type) {
		case *fabric.Switch:
			out = append(out, fmt.Sprintf("switch %s %+v %+v", d.Name(), d.Config(), d.MMU().Config()))
		case *nic.NIC:
			out = append(out, "nic "+d.Name())
		}
	})
	sort.Strings(out)
	return out
}

// TestStormBuildMatchesRunStorm pins stormDeployConfig, which times the
// storm's core.New and Connect calls in the traced run, to the fabric
// RunStorm builds.
func TestStormBuildMatchesRunStorm(t *testing.T) {
	cfg := stormConfig(1)
	cfg.Duration = simtime.Millisecond
	var want []string
	cfg.Observe = func(k *sim.Kernel) { want = devices(k) }
	experiments.RunStorm(cfg)
	k := sim.NewRoot(1, 0)
	if _, err := core.New(k, stormDeployConfig()); err != nil {
		t.Fatal(err)
	}
	got := devices(k)
	if len(want) == 0 {
		t.Fatal("RunStorm announced no devices")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("stormDeployConfig builds\n%s\nRunStorm builds\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestCountsReconcile(t *testing.T) {
	tr := newTracer()
	runs := runStorms([]int64{7, 8}, tr)
	for _, r := range runs {
		for _, p := range r.problems {
			t.Error(p)
		}
	}
	if n := tr.counts["switch/lossless_drops"]; n != 0 {
		t.Errorf("lossless storm: %v lossless drops", n)
	}
	if tx, rx := tr.sum("pause_tx"), tr.sum("pause_rx"); tx == 0 || tx != rx {
		t.Errorf("storm: pause_tx %v, pause_rx %v; want equal and nonzero", tx, rx)
	}
	if tr.swEvents[telemetry.EvDrop] != uint64(tr.counts["switch/drops"]) {
		t.Errorf("storm: %d drop trace events, %v switch drops", tr.swEvents[telemetry.EvDrop], tr.counts["switch/drops"])
	}

	// The IRN stacks never pause, and at the workload's length their
	// loss cell repairs corrupted frames selectively.
	for _, mode := range []core.TransportMode{core.TransportIRNNoPFC, core.TransportIRNECN} {
		irn := newTracer()
		for _, sc := range transportScenarios {
			_, r := transportCell(sc.name, mode, 2, sc.total/transportScale, irn)
			for _, p := range r.problems {
				t.Error(p)
			}
		}
		if n := irn.sum("pause_tx"); n != 0 {
			t.Errorf("%s: %v pause frames sent", mode, n)
		}
		if n := irn.swEvents[telemetry.EvPauseXOFF]; n != 0 {
			t.Errorf("%s: %d XOFF edges", mode, n)
		}
		if irn.counts["irn/ooo_arrivals"] == 0 || irn.counts["nic/qp_retx_packets"] == 0 {
			t.Errorf("%s: %v out-of-order arrivals, %v retransmits; want both nonzero",
				mode, irn.counts["irn/ooo_arrivals"], irn.counts["nic/qp_retx_packets"])
		}
	}
}

func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	replaySim(1000, 3_000_000)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ps := summarize(samples)
	if len(samples) < 10 {
		t.Skipf("only %d samples", len(samples))
	}
	if s := ps.share("sim"); s < 0.5 {
		t.Errorf("heap replay: sim share %.2f of %d samples, want most", s, len(samples))
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapassign", "rocesim/internal/buffer.(*MMU).Admit", "rocesim/internal/fabric.(*Switch).Receive"}, "buffer"},
		{[]string{"runtime.mallocgc", "main.(*tracer).onEvent", "rocesim/internal/telemetry.(*TraceBus).Emit"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"rocesim/internal/sim.(*Kernel).RunUntil.func1"}, "sim"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and per-layer
// metrics in step with this package.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, package has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, package %q", i, w.Name, workloads[i].name)
		}
	}
	want := layerMetricList()
	if len(spec.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, package has %d", len(spec.PerLayer), len(want))
	}
	for i, m := range spec.PerLayer {
		if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, package %+v", i, m, w)
		}
	}
}
