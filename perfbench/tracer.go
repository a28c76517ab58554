package main

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rocesim/internal/buffer"
	"rocesim/internal/core"
	"rocesim/internal/fabric"
	"rocesim/internal/nic"
	"rocesim/internal/sim"
	"rocesim/internal/telemetry"
)

// enqSample is one switch enqueue seen on the trace bus: the op mix the
// MMU replay runs on.
type enqSample struct{ port, pri, size int }

const mixCap = 8192

// tracer watches a workload from outside the program: it subscribes to
// every trace bus of the kernel, samples the event heap's depth, learns
// the device population from kernel announcements and sums the registry
// snapshot at the end. One tracer accumulates over a batch of runs.
type tracer struct {
	// per-kernel state, reset by attach
	kernels  []*sim.Kernel
	switches map[string]*fabric.Switch
	nics     map[string]bool
	subs     []*telemetry.Subscription

	// accumulated over the batch
	swEvents  [16]uint64 // trace events at switches, by telemetry.EventType
	nicEvents [16]uint64 // trace events at NICs
	seen      uint64
	mix       []enqSample
	mixSeen   uint64
	rng       *rand.Rand
	pendSum   float64
	pendN     int
	pendPeak  int
	counts    map[string]float64
	histLo    float64
	histHi    float64
	swTx      uint64
	mmuCfg    buffer.Config
	mmuPorts  int
	snapshotS []float64

	coreNewS, connectS, buildAllocMB float64
	probes, probeFailures            uint64
}

func newTracer() *tracer {
	return &tracer{counts: map[string]float64{}, rng: rand.New(rand.NewSource(1))}
}

// setPhase labels the CPU profile samples that follow as set-up or run.
func (t *tracer) setPhase(phase string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("phase", phase)))
}

// build times core.New and the memory it allocates, summed over the
// fabrics a batch builds.
func (t *tracer) build(k *sim.Kernel, cfg core.Config) *core.Deployment {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	d, err := core.New(k, cfg)
	t.coreNewS += time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		panic(err)
	}
	mb, _ := memDelta(&m0, &m1)
	t.buildAllocMB += mb
	return d
}

// attach subscribes to k's trace buses and device announcements.
func (t *tracer) attach(k *sim.Kernel) {
	t.kernels = []*sim.Kernel{k}
	if g := k.Group(); g != nil {
		t.kernels = []*sim.Kernel{g.Global()}
		for i := 0; i < g.N(); i++ {
			t.kernels = append(t.kernels, g.Shard(i))
		}
	}
	t.switches = map[string]*fabric.Switch{}
	t.nics = map[string]bool{}
	k.OnAnnounce(func(v any) {
		switch d := v.(type) {
		case *fabric.Switch:
			t.switches[d.Name()] = d
			if t.mmuPorts == 0 {
				t.mmuCfg, t.mmuPorts = d.MMU().Config(), d.Config().Ports
			}
		case *nic.NIC:
			t.nics[d.Name()] = true
		}
	})
	for _, b := range k.TraceBuses() {
		t.subs = append(t.subs, b.Subscribe(telemetry.EvAll, nil, t.onEvent))
	}
}

func (t *tracer) onEvent(ev telemetry.Event) {
	if _, ok := t.switches[ev.Node]; ok {
		t.swEvents[ev.Type]++
		if ev.Type == telemetry.EvEnqueue && ev.Pkt != nil && ev.Pri >= 0 {
			t.sampleEnqueue(enqSample{port: ev.Port, pri: ev.Pri, size: ev.Pkt.WireLen()})
		}
	} else {
		t.nicEvents[ev.Type]++
	}
	t.seen++
	if t.seen&1023 == 0 {
		p := 0
		for _, k := range t.kernels {
			p += k.Pending()
		}
		t.pendSum += float64(p)
		t.pendN++
		if p > t.pendPeak {
			t.pendPeak = p
		}
	}
}

// sampleEnqueue keeps a uniform reservoir of switch enqueues.
func (t *tracer) sampleEnqueue(s enqSample) {
	t.mixSeen++
	if len(t.mix) < mixCap {
		t.mix = append(t.mix, s)
		return
	}
	if j := t.rng.Int63n(int64(t.mixSeen)); j < mixCap {
		t.mix[j] = s
	}
}

// finish closes the subscriptions and sums k's registry snapshot into
// the per-layer counts; the snapshot call is timed.
func (t *tracer) finish(k *sim.Kernel) {
	for _, s := range t.subs {
		s.Close()
	}
	t.subs = nil
	for _, sw := range t.switches {
		for p := 0; p < sw.Config().Ports; p++ {
			if e := sw.Egress(p); e != nil {
				t.swTx += e.TxFrames
			}
		}
	}
	start := time.Now()
	snap := k.Metrics().Snapshot()
	t.snapshotS = append(t.snapshotS, time.Since(start).Seconds())
	for _, e := range snap.Entries {
		if e.Kind == telemetry.KindHistogram && e.Hist != nil && e.Hist.Count > 0 {
			t.counts["hist_observations"] += float64(e.Hist.Count)
			if t.histLo == 0 || e.Hist.Min < t.histLo {
				t.histLo = e.Hist.Min
			}
			if e.Hist.Max > t.histHi {
				t.histHi = e.Hist.Max
			}
			continue
		}
		dev, metric, ok := strings.Cut(e.Key, "/")
		if !ok || strings.Contains(metric, "{") {
			continue
		}
		switch {
		case t.switches[dev] != nil:
			t.counts["switch/"+metric] += e.Value
		case t.nics[dev]:
			t.counts["nic/"+metric] += e.Value
		}
	}
}

// sum is a per-layer count over switches and NICs.
func (t *tracer) sum(metric string) float64 {
	return t.counts["switch/"+metric] + t.counts["nic/"+metric]
}

func (t *tracer) pendingMean() float64 {
	if t.pendN == 0 {
		return 0
	}
	return t.pendSum / float64(t.pendN)
}
