package core

import (
	"testing"

	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/topology"
	"rocesim/internal/transport"
	"rocesim/internal/workload"
)

func TestDeploymentBuildsAndTransfers(t *testing.T) {
	k := sim.NewKernel(1)
	d, err := New(k, DefaultConfig(topology.RackSpec(4)))
	if err != nil {
		t.Fatal(err)
	}
	qa, _ := d.Connect(d.Net.Server(0, 0, 0), d.Net.Server(0, 0, 1), ClassBulk)
	done := false
	qa.Post(transport.OpSend, 4<<20, func(_, _ simtime.Time) { done = true })
	k.RunUntil(simtime.Time(10 * simtime.Millisecond))
	if !done {
		t.Fatal("transfer failed")
	}
	if len(d.CheckDrift()) != 0 {
		t.Fatalf("drift on a freshly built deployment: %v", d.CheckDrift())
	}
	if d.FindDeadlock() != nil {
		t.Fatal("phantom deadlock")
	}
}

func TestSafetySwitchboardApplied(t *testing.T) {
	k := sim.NewKernel(2)
	cfg := DefaultConfig(topology.RackSpec(2))
	cfg.Safety = Safety{} // everything off: the starting point
	d, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qa, _ := d.Connect(d.Net.Server(0, 0, 0), d.Net.Server(0, 0, 1), ClassBulk)
	if qa.Config().Recovery != transport.GoBack0 {
		t.Fatal("legacy deployment must use go-back-0")
	}
	if qa.Config().DCQCN != nil {
		t.Fatal("legacy deployment must not enable DCQCN")
	}
	sw := d.Net.Tors[0]
	if sw.Config().DropLosslessOnIncompleteARP {
		t.Fatal("ARP fix should be off")
	}
	if sw.Config().Watchdog.Enabled {
		t.Fatal("switch watchdog should be off")
	}

	d2, err := New(sim.NewKernel(3), DefaultConfig(topology.RackSpec(2)))
	if err != nil {
		t.Fatal(err)
	}
	qb, _ := d2.Connect(d2.Net.Server(0, 0, 0), d2.Net.Server(0, 0, 1), ClassRealTime)
	if qb.Config().Recovery != transport.GoBackN || qb.Config().DCQCN == nil {
		t.Fatal("recommended deployment must use go-back-N and DCQCN")
	}
	if !d2.Net.Tors[0].Config().DropLosslessOnIncompleteARP {
		t.Fatal("ARP fix should be on")
	}
}

func TestAlphaDriftDetected(t *testing.T) {
	// The §6.2 incident as the config system sees it: the fleet intent
	// says 1/16, a new switch type runs 1/64.
	k := sim.NewKernel(4)
	cfg := DefaultConfig(topology.RackSpec(2))
	cfg.Alpha = 1.0 / 64 // the new switch model's silent default
	d, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Operator intent is fleet-wide 1/16.
	d.Configs.SetDesired(d.Net.Tors[0].Name(), map[string]string{"alpha": "1/16"})
	drifts := d.CheckDrift()
	if len(drifts) != 1 || drifts[0].Key != "alpha" || drifts[0].Got != "1/64" {
		t.Fatalf("drift: %v", drifts)
	}
}

func TestStagedRolloutScopesLossless(t *testing.T) {
	build := func(stage Stage) *Deployment {
		cfg := DefaultConfig(topology.Fig8Spec())
		cfg.Stage = stage
		d, err := New(sim.NewKernel(5), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	tor := build(StageToR)
	if !tor.Net.Tors[0].Config().Buffer.LosslessPGs[ClassBulk] {
		t.Fatal("ToR stage: ToRs must be lossless")
	}
	if tor.Net.Leafs[0].Config().Buffer.LosslessPGs[ClassBulk] {
		t.Fatal("ToR stage: Leafs must stay lossy")
	}
	pod := build(StagePodset)
	if !pod.Net.Leafs[0].Config().Buffer.LosslessPGs[ClassBulk] {
		t.Fatal("Podset stage: Leafs must be lossless")
	}
}

func TestStageSpineLosslessEverywhere(t *testing.T) {
	cfg := DefaultConfig(topology.Fig7Spec(1))
	d, err := New(sim.NewKernel(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range d.Net.Switches() {
		if !sw.Config().Buffer.LosslessPGs[ClassRealTime] {
			t.Fatalf("%s not lossless at spine stage", sw.Name())
		}
	}
}

func TestPXEBootMatrix(t *testing.T) {
	if err := PXEBootResult(VLANBased); err == nil {
		t.Fatal("VLAN-based PFC must break PXE boot (trunk-mode ports)")
	}
	if err := PXEBootResult(DSCPBased); err != nil {
		t.Fatalf("DSCP-based PFC must not break PXE: %v", err)
	}
}

func TestPriorityAcrossSubnets(t *testing.T) {
	if got := PriorityAcrossSubnets(VLANBased, ClassRealTime); got == ClassRealTime {
		t.Fatal("VLAN PCP must not survive an L3 boundary")
	}
	if got := PriorityAcrossSubnets(DSCPBased, ClassRealTime); got != ClassRealTime {
		t.Fatal("DSCP must survive IP routing")
	}
}

func TestVLANModeTagsPackets(t *testing.T) {
	k := sim.NewKernel(7)
	cfg := DefaultConfig(topology.RackSpec(2))
	cfg.Mode = VLANBased
	d, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qa, qb := d.Connect(d.Net.Server(0, 0, 0), d.Net.Server(0, 0, 1), ClassBulk)
	pp := workload.NewRDMAPingPong(qa, qb, k.Now)
	ok := false
	pp.Query(512, 512, func(simtime.Duration) { ok = true })
	k.RunUntil(simtime.Time(simtime.Millisecond))
	if !ok {
		t.Fatal("VLAN-tagged transfer failed within one rack")
	}
	if qa.Config().VLAN == nil {
		t.Fatal("VLAN mode must tag")
	}
}

func TestEndToEndDSCPLosslessUnderIncast(t *testing.T) {
	// The whole point, end to end: a recommended deployment under
	// heavy incast drops nothing in the lossless classes.
	k := sim.NewKernel(8)
	d, err := New(k, DefaultConfig(topology.RackSpec(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		q, _ := d.Connect(d.Net.Server(0, 0, i), d.Net.Server(0, 0, 0), ClassBulk)
		(&workload.Streamer{QP: q, Size: 1 << 20}).Start(2)
	}
	k.RunUntil(simtime.Time(50 * simtime.Millisecond))
	for _, sw := range d.Net.Switches() {
		if sw.C.LosslessDrops.Value() != 0 {
			t.Fatalf("%s dropped %d lossless packets", sw.Name(), sw.C.LosslessDrops.Value())
		}
	}
}

func TestIRNModesRunLossyAndRecover(t *testing.T) {
	for _, mode := range []TransportMode{TransportIRNNoPFC, TransportIRNECN} {
		t.Run(mode.String(), func(t *testing.T) {
			k := sim.NewKernel(31 + int64(mode))
			cfg := DefaultConfig(topology.RackSpec(4))
			cfg.Transport = mode
			d, err := New(k, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// The whole fabric must have renounced PFC: no lossless PGs
			// on any switch, no pause generation on any NIC.
			for _, sw := range d.Net.Switches() {
				if sw.Config().Buffer.LosslessPGs != [8]bool{} {
					t.Fatalf("%s kept lossless PGs under %v", sw.Name(), mode)
				}
				if want := mode == TransportIRNECN; sw.Config().ECN.Enabled != want {
					t.Fatalf("%s ECN enabled=%v under %v", sw.Name(), !want, mode)
				}
			}
			for _, s := range d.Net.Servers {
				if s.NIC.Config().LosslessMask != 0 {
					t.Fatalf("%s kept a lossless mask under %v", s.NIC.Name(), mode)
				}
			}

			// Force genuine wire loss on the first server's cable.
			d.Net.Links[0].L.FCSErrorRate = 0.02

			qa, _ := d.Connect(d.Net.Server(0, 0, 0), d.Net.Server(0, 0, 1), ClassBulk)
			if qa.Config().Recovery != transport.IRN || !qa.Strategy().SelectiveRepeat() {
				t.Fatal("IRN mode did not select the IRN strategy")
			}
			if qa.Config().IRN == nil || qa.Config().IRN.BDPBytes <= 0 {
				t.Fatal("IRN mode did not derive a BDP cap from the topology")
			}
			if (qa.Config().DCQCN != nil) != (mode == TransportIRNECN) {
				t.Fatalf("DCQCN wiring wrong for %v", mode)
			}

			done := 0
			for i := 0; i < 4; i++ {
				qa.Post(transport.OpSend, 1<<20, func(_, _ simtime.Time) { done++ })
			}
			k.RunUntil(simtime.Time(50 * simtime.Millisecond))
			if done != 4 {
				t.Fatalf("%d/4 transfers completed through a lossy wire", done)
			}
			if d.Net.Links[0].L.FCSErrors == 0 {
				t.Fatal("loss injection never fired; the test proved nothing")
			}
			if qa.S.PacketsRetx == 0 {
				t.Fatal("recovery happened without retransmissions?")
			}

			snap := k.Metrics().Snapshot()
			if pauses := snap.SumSuffix("/pause_tx"); pauses != 0 {
				t.Fatalf("lossy fabric emitted %g pause frames", pauses)
			}
			if retx := snap.SumSuffix("/qp_retx_packets"); retx == 0 {
				t.Fatal("device retx counter silent despite recovery")
			}
		})
	}
}

func TestTransportModeStrings(t *testing.T) {
	cases := map[TransportMode]string{
		TransportPFCDCQCN: "pfc+dcqcn",
		TransportIRNNoPFC: "irn-no-pfc",
		TransportIRNECN:   "irn+ecn",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String()=%q want %q", m, m.String(), want)
		}
		if m.IRN() != (m != TransportPFCDCQCN) {
			t.Errorf("%v.IRN() wrong", m)
		}
	}
}

// TestIdleDeploymentFiresOneScrapePerInterval pins the deployment's
// sampling cost: an idle fabric without watchdogs fires exactly one
// event per MonitorInterval — the health scrape — whether it runs on
// one kernel or across shards. Event counts printed by the examples and the
// benchmark digests depend on it.
func TestIdleDeploymentFiresOneScrapePerInterval(t *testing.T) {
	const n = 7
	for _, shards := range []int{1, 2} {
		k := sim.NewRoot(9, shards)
		cfg := DefaultConfig(topology.RackSpec(4))
		// Watchdogs poll on their own timers; with them off nothing but
		// the scraper has work on an idle fabric.
		cfg.Safety.NICWatchdog, cfg.Safety.SwitchWatchdog = false, false
		d, err := New(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		k.RunUntil(simtime.Time(n * cfg.MonitorInterval))
		if got := k.EventsFired(); got != n {
			t.Errorf("shards=%d: %d events over %d intervals, want %d", shards, got, n, n)
		}
		if d.Health.Scrapes != n {
			t.Errorf("shards=%d: %d scrapes, want %d", shards, d.Health.Scrapes, n)
		}
	}
}
