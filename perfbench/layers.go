package main

import (
	"fmt"
	"math"

	"rocesim/internal/telemetry"
)

// layerMetric is one per-layer metric of the traced run; the list must
// match BENCHMARK.json's per_layer entries (perfbench_test checks it).
type layerMetric struct{ name, unit, better string }

// crossChecked are the layers whose replayed cost (ns/op x the traced
// run's op count) is compared with their CPU profile share.
var crossChecked = []string{"sim", "buffer", "link", "fabric", "dcqcn", "irn", "stats"}

func layerMetricList() []layerMetric {
	l := []layerMetric{
		{"mismatch_rate", "ratio", "lower"},
		{"sim.events", "count", "lower"},
		{"sim.events_per_s", "1/s", "higher"},
		{"sim.pending_peak", "count", "lower"},
		{"sim.schedule_fire_ns", "ns", "lower"},
		{"sim.allocs_per_event", "count", "lower"},
		{"sim.shard_speedup", "ratio", "higher"},
		{"sim.run_share", "ratio", "lower"},
		{"core.new_s", "s", "lower"},
		{"core.connect_s", "s", "lower"},
		{"core.build_alloc_mb", "MB", "lower"},
		{"fabric.route_add_ns", "ns", "lower"},
		{"fabric.route_add_allocs", "count", "lower"},
		{"fabric.route_install_share", "ratio", "lower"},
		{"fabric.tx_frames", "count", "lower"},
		{"fabric.drops", "count", "lower"},
		{"fabric.ecn_marked", "count", "lower"},
		{"fabric.learnmac_ns", "ns", "lower"},
		{"fabric.learnmac_allocs", "count", "lower"},
		{"buffer.admit_release_ns", "ns", "lower"},
		{"buffer.admit_release_allocs", "count", "lower"},
		{"buffer.reevaluate_ns", "ns", "lower"},
		{"buffer.reevaluate_allocs", "count", "lower"},
		{"buffer.xoff_edges", "count", "lower"},
		{"link.enqueue_ns", "ns", "lower"},
		{"link.enqueue_allocs", "count", "lower"},
		{"link.dequeues", "count", "lower"},
		{"pfc.pause_tx", "count", "lower"},
		{"pfc.pause_rx", "count", "lower"},
		{"pfc.watchdog_trips", "count", "lower"},
		{"nic.tx_frames", "count", "lower"},
		{"nic.cnps_tx", "count", "lower"},
		{"nic.rx_overflow_drops", "count", "lower"},
		{"transport.tx_packets", "count", "lower"},
		{"transport.retx_packets", "count", "lower"},
		{"transport.retx_ratio", "ratio", "lower"},
		{"dcqcn.rate_cuts", "count", "lower"},
		{"dcqcn.rp_update_ns", "ns", "lower"},
		{"dcqcn.rp_update_allocs", "count", "lower"},
		{"irn.ooo_arrivals", "count", "lower"},
		{"irn.tracker_ns", "ns", "lower"},
		{"irn.tracker_allocs", "count", "lower"},
		{"monitor.probes", "count", "lower"},
		{"monitor.probe_failures", "count", "lower"},
		{"stats.observe_ns", "ns", "lower"},
		{"stats.observe_allocs", "count", "lower"},
		{"telemetry.snapshot_s", "s", "lower"},
		{"telemetry.trace_overhead", "ratio", "lower"},
		{"gc.alloc_mb", "MB", "lower"},
		{"gc.cycles", "count", "lower"},
		{"host.cpu_per_wall", "ratio", "higher"},
	}
	for _, layer := range profileLayers {
		l = append(l, layerMetric{"profile." + layer + "_share", "ratio", "lower"})
	}
	for _, layer := range crossChecked {
		l = append(l, layerMetric{"xcheck." + layer, "ratio", "lower"})
	}
	return append(l, layerMetric{"xcheck.flagged_layers", "count", "lower"})
}

// Replay lengths, in operations.
const (
	simOps    = 2_000_000
	replayOps = 1_000_000
	linkOps   = 500_000
)

// layerMetrics turns a traced pass into per-layer metrics: counts from
// the tracer, host cost per call from the replays, CPU shares from the
// profile, and the replay-versus-profile cross-check.
func layerMetrics(w *workload, tr *tracer, runs []simRun, prof []byte) (map[string]float64, []string, error) {
	m := map[string]float64{}
	var events float64
	for _, r := range runs {
		events += float64(r.events)
	}
	swEnq := float64(tr.swEvents[telemetry.EvEnqueue])
	dequeues := float64(tr.swEvents[telemetry.EvDequeue] + tr.nicEvents[telemetry.EvDequeue])
	sends, cnps := tr.counts["nic/qp_tx_packets"], tr.counts["nic/dcqcn_cnps_rx"]

	spec := w.spec()
	heap := replaySim(int(math.Round(tr.pendingMean())), simOps)
	route, installS := replayRoutes(spec)
	learn := replayLearnMAC(spec, replayOps)
	admit, reeval := replayMMU(tr.mmuCfg, tr.mmuPorts, tr.mix, replayOps)
	lk := replayLink(tr.mix, linkOps)
	rp := replayDCQCN(sends, cnps, replayOps)
	obs := replayObserve(tr.histLo, tr.histHi, replayOps)
	arrivals, ooo := tr.counts["irn/rx_packets"], tr.counts["irn/ooo_arrivals"]
	var trk opCost
	if arrivals > 0 {
		trk = replayIRN(arrivals, ooo, replayOps)
	}

	put := func(name string, c opCost) {
		m[name+"_ns"], m[name+"_allocs"] = c.ns, c.allocs
	}
	m["sim.pending_peak"] = float64(tr.pendPeak)
	m["sim.schedule_fire_ns"], m["sim.allocs_per_event"] = heap.ns, heap.allocs
	m["core.new_s"], m["core.connect_s"], m["core.build_alloc_mb"] = tr.coreNewS, tr.connectS, tr.buildAllocMB
	put("fabric.route_add", route)
	put("fabric.learnmac", learn)
	m["fabric.tx_frames"] = float64(tr.swTx)
	m["fabric.drops"] = tr.counts["switch/drops"]
	m["fabric.ecn_marked"] = tr.counts["switch/ecn_marked"]
	m["buffer.admit_release_ns"], m["buffer.admit_release_allocs"] = admit.ns, admit.allocs
	put("buffer.reevaluate", reeval)
	m["buffer.xoff_edges"] = float64(tr.swEvents[telemetry.EvPauseXOFF])
	put("link.enqueue", lk)
	m["link.dequeues"] = dequeues
	m["pfc.pause_tx"] = tr.sum("pause_tx")
	m["pfc.pause_rx"] = tr.sum("pause_rx")
	m["pfc.watchdog_trips"] = tr.sum("watchdog_trips")
	m["nic.tx_frames"] = tr.counts["nic/tx_frames"]
	m["nic.cnps_tx"] = tr.counts["nic/cnps_tx"]
	m["nic.rx_overflow_drops"] = tr.counts["nic/rx_overflow_drops"]
	m["transport.tx_packets"] = sends
	m["transport.retx_packets"] = tr.counts["nic/qp_retx_packets"]
	m["transport.retx_ratio"] = ratio(m["transport.retx_packets"], sends)
	m["dcqcn.rate_cuts"] = tr.counts["nic/dcqcn_rate_cuts"]
	put("dcqcn.rp_update", rp)
	m["irn.ooo_arrivals"] = ooo
	put("irn.tracker", trk)
	m["monitor.probes"], m["monitor.probe_failures"] = float64(tr.probes), float64(tr.probeFailures)
	put("stats.observe", obs)
	m["telemetry.snapshot_s"] = median(tr.snapshotS)

	samples, err := parseProfile(prof)
	if err != nil {
		return nil, nil, err
	}
	ps := summarize(samples)
	for _, layer := range profileLayers {
		m["profile."+layer+"_share"] = ps.share(layer)
	}
	m["fabric.route_install_share"] = ratio(float64(ps.routeAddNS), float64(ps.setupNS))
	m["sim.run_share"] = ratio(float64(ps.runSimNS), float64(ps.runNS))

	// One fabric build per simulation.
	builds := float64(len(runs))
	estimate := map[string]float64{
		"sim":    heap.ns * events,
		"buffer": admit.ns * swEnq,
		"link":   lk.ns * dequeues,
		"fabric": learn.ns*swEnq + installS*1e9*builds,
		"dcqcn":  rp.ns * (2*sends + cnps),
		// One Take per arrival, and a Put, a Bitmap and a draining Take
		// per out-of-order arrival.
		"irn":   trk.ns * (arrivals + 3*ooo),
		"stats": obs.ns * tr.counts["hist_observations"],
	}
	var notes []string
	for _, layer := range crossChecked {
		r := ratio(estimate[layer], float64(ps.layerNS[layer]))
		m["xcheck."+layer] = r
		if (r > 2 || r < 0.5) && estimate[layer] > 0 && ps.layerNS[layer] > 0 {
			notes = append(notes, fmt.Sprintf("xcheck: %s replay estimate %.3fs vs profile %.3fs (x%.2f)",
				layer, estimate[layer]/1e9, float64(ps.layerNS[layer])/1e9, r))
		}
	}
	m["xcheck.flagged_layers"] = float64(len(notes))
	return m, notes, nil
}
