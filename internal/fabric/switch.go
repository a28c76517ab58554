// Package fabric implements the shared-buffer Ethernet/IP switch of the
// paper's data centers: DSCP- or VLAN-classified priority groups over a
// dynamic shared buffer, per-port PFC generation and reaction, ECMP
// five-tuple routing, the ToR's ARP/MAC delivery path whose flooding
// behaviour caused the paper's deadlock (and the drop-on-incomplete-ARP
// fix), WRED/ECN marking for DCQCN, and the switch-side PFC storm
// watchdog.
package fabric

import (
	"fmt"
	"math/rand"

	"rocesim/internal/buffer"
	"rocesim/internal/link"
	"rocesim/internal/packet"
	"rocesim/internal/pfc"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// ECNConfig is the WRED-style marking profile applied to lossless egress
// queues (the congestion-point half of DCQCN).
type ECNConfig struct {
	Enabled bool
	// KMin/KMax bound the marking ramp in queued bytes; PMax is the
	// marking probability at KMax (beyond KMax everything ECT is
	// marked).
	KMin, KMax int
	PMax       float64
}

// Config parameterizes a switch.
type Config struct {
	Name  string
	Ports int
	// Buffer is the MMU configuration (total size, alpha, headroom...).
	Buffer buffer.Config
	// ECN is the marking profile for lossless queues.
	ECN ECNConfig
	// PGECN optionally overrides the marking profile per priority group
	// (nil entry = inherit ECN). Multi-tenant fabrics mark a latency-
	// sensitive collective class earlier than a throughput-oriented
	// storage class.
	PGECN [8]*ECNConfig
	// DSCPMap classifies untagged IP packets into priorities; nil means
	// identity over the low 3 DSCP bits (the paper maps DSCP i to
	// priority i).
	DSCPMap func(dscp uint8) int
	// QoSMap, when non-nil, remaps the wire priority (the PCP/DSCP
	// classification result) to the priority group the ASIC actually
	// services — the trust/QoS map every ToS-based deployment programs.
	// nil means identity. A wrong entry here is exactly the cross-class
	// misconfiguration (two tenants sharing a PG) that spiderpool's
	// rdma-qos.sh exists to prevent.
	QoSMap *[8]int
	// DropLosslessOnIncompleteARP enables the paper's deadlock fix
	// (option 3): lossless packets whose ARP entry has no MAC-table
	// match are dropped instead of flooded.
	DropLosslessOnIncompleteARP bool
	// MACTimeout and ARPTimeout are the table lifetimes; the paper's
	// defaults (5 minutes vs 4 hours) are the disparity that makes
	// incomplete ARP entries possible.
	MACTimeout simtime.Duration
	ARPTimeout simtime.Duration
	// PerPacketSpray replaces per-flow ECMP with per-packet round-robin
	// across equal-cost ports — the Section 8.1 future-work direction
	// ("per-packet routing for better network utilization"). It defeats
	// hash collisions at the cost of reordering, which go-back-N
	// punishes.
	PerPacketSpray bool
	// ForwardingLatency models the pipeline delay between ingress and
	// egress enqueue.
	ForwardingLatency simtime.Duration
	// Watchdog enables the switch-side PFC storm watchdog on
	// server-facing ports.
	Watchdog WatchdogConfig
}

// WatchdogConfig tunes the switch-side PFC storm watchdog.
type WatchdogConfig struct {
	Enabled bool
	// TripWindow is how long "egress not draining + pauses arriving"
	// must persist before lossless mode is disabled (paper: order
	// 100 ms).
	TripWindow simtime.Duration
	// ReenableAfter re-enables lossless mode once pause frames have been
	// absent this long (paper default: 200 ms).
	ReenableAfter simtime.Duration
	// Poll is the watchdog sampling period.
	Poll simtime.Duration
}

// DefaultWatchdog returns the paper's watchdog settings.
func DefaultWatchdog() WatchdogConfig {
	return WatchdogConfig{
		Enabled:       true,
		TripWindow:    100 * simtime.Millisecond,
		ReenableAfter: 200 * simtime.Millisecond,
		Poll:          10 * simtime.Millisecond,
	}
}

// DefaultConfig returns a 9 MB shared-buffer switch with the paper's
// two-lossless-class setup (priorities 3 and 4), DSCP-based PFC, ECN
// marking, and the deadlock fix disabled (tests enable it explicitly).
func DefaultConfig(name string, ports int) Config {
	var lossless [8]bool
	lossless[3], lossless[4] = true, true
	return Config{
		Name:  name,
		Ports: ports,
		Buffer: buffer.Config{
			TotalBytes:    9 << 20,
			HeadroomPerPG: 40 << 10,
			Alpha:         1.0 / 16,
			Dynamic:       true,
			XOFFDelta:     4 << 10,
			LosslessPGs:   lossless,
		},
		ECN:               ECNConfig{Enabled: true, KMin: 40 << 10, KMax: 160 << 10, PMax: 0.1},
		MACTimeout:        5 * simtime.Minute,
		ARPTimeout:        4 * simtime.Hour,
		ForwardingLatency: 400 * simtime.Nanosecond,
	}
}

type arpEntry struct {
	mac     packet.MAC
	expires simtime.Time
}

type macEntry struct {
	port    int
	expires simtime.Time
}

// fwdEntry is one frame traversing the forwarding pipeline (between
// ingress processing and egress enqueue).
type fwdEntry struct {
	out int
	it  link.Item
}

type portState struct {
	lk      *link.Link
	side    int
	egress  *link.Egress
	pauser  *pfc.Refresher
	peerMAC packet.MAC
	// serverFacing marks ports eligible for the storm watchdog.
	serverFacing bool
	// losslessDisabled is set by the watchdog: lossless packets to and
	// from this port are discarded.
	losslessDisabled bool
	wdTrip           *pfc.Watchdog
	// pauseRxTimes tracks recent pause arrivals for the watchdog's
	// "receiving continuous pause frames" condition.
	lastPauseRx simtime.Time
	lastTxCount uint64

	// Per-port counters, registered with a port label at AttachLink.
	RxFrames *telemetry.Counter
	RxPause  *telemetry.Counter
	TxPause  *telemetry.Counter
	RxBytes  uint64
	RxByPri  [8]uint64
}

// Counters aggregates a switch's drop and pause statistics, mirroring the
// counters the paper's monitoring system collects per device. They are
// registry-backed: each field is registered under "<switch>/<metric>" at
// construction, so monitors and experiment harnesses read them from
// registry snapshots instead of poking the struct.
type Counters struct {
	RxFrames           *telemetry.Counter
	TxFrames           *telemetry.Counter
	IngressDrops       *telemetry.Counter // buffer admission failures
	LosslessDrops      *telemetry.Counter // admission failures in lossless classes
	TTLDrops           *telemetry.Counter
	NoRouteDrops       *telemetry.Counter
	MACMismatchDrops   *telemetry.Counter // stray flooded frames not addressed to us
	ARPIncompleteDrops *telemetry.Counter // the deadlock fix in action
	ARPMissDrops       *telemetry.Counter
	WatchdogDrops      *telemetry.Counter // lossless frames discarded while tripped
	DownDrops          *telemetry.Counter // frames lost to a dead/rebooting switch
	InjectedDrops      *telemetry.Counter // DropFn hook (livelock experiment)
	ECNMarked          *telemetry.Counter
	Floods             *telemetry.Counter
	PauseRx            *telemetry.Counter
	PauseTx            *telemetry.Counter
	WatchdogTrips      *telemetry.Counter
	WatchdogReenables  *telemetry.Counter
}

// newCounters registers the switch-level counters. The metric names
// follow the "<device>/<counter>" shape ("<device>/pause_rx",
// "<device>/lossless_drops", ...) that suffix-based aggregation and the
// health scraper's device filter rely on.
func newCounters(r *telemetry.Registry, name string) Counters {
	return Counters{
		RxFrames:           r.Counter(name + "/rx_frames"),
		TxFrames:           r.Counter(name + "/tx_frames"),
		IngressDrops:       r.Counter(name + "/drops"),
		LosslessDrops:      r.Counter(name + "/lossless_drops"),
		TTLDrops:           r.Counter(name + "/ttl_drops"),
		NoRouteDrops:       r.Counter(name + "/no_route_drops"),
		MACMismatchDrops:   r.Counter(name + "/mac_mismatch_drops"),
		ARPIncompleteDrops: r.Counter(name + "/arp_incomplete_drops"),
		ARPMissDrops:       r.Counter(name + "/arp_miss_drops"),
		WatchdogDrops:      r.Counter(name + "/watchdog_drops"),
		DownDrops:          r.Counter(name + "/down_drops"),
		InjectedDrops:      r.Counter(name + "/injected_drops"),
		ECNMarked:          r.Counter(name + "/ecn_marked"),
		Floods:             r.Counter(name + "/floods"),
		PauseRx:            r.Counter(name + "/pause_rx"),
		PauseTx:            r.Counter(name + "/pause_tx"),
		WatchdogTrips:      r.Counter(name + "/watchdog_trips"),
		WatchdogReenables:  r.Counter(name + "/watchdog_reenables"),
	}
}

// Switch is one shared-buffer switch.
type Switch struct {
	k     *sim.Kernel
	cfg   Config
	mac   packet.MAC
	mmu   *buffer.MMU
	rng   *rand.Rand
	trace *telemetry.TraceBus
	port  []*portState

	routes routeTable
	arp    map[packet.Addr]arpEntry
	macTab map[packet.MAC]macEntry

	// fwd is the forwarding-pipeline ring: frames in flight between
	// ingress and egress enqueue, drained FIFO by the resident fwdEv.
	fwd     []fwdEntry
	fwdHead int
	fwdEv   sim.Event

	// DropFn, when set, silently discards matching data packets at
	// ingress — the hook the livelock experiment uses ("drop any packet
	// with the least significant byte of IP ID equal to 0xff").
	DropFn func(*packet.Packet) bool

	// failed marks the switch powered off (mid-reboot): the ASIC is
	// dead, every port's carrier is down and the packet buffer is gone.
	failed bool

	C Counters
}

var _ link.Endpoint = (*Switch)(nil)

// NewSwitch builds a switch; mac must be unique in the fabric.
func NewSwitch(k *sim.Kernel, cfg Config, mac packet.MAC) (*Switch, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("fabric: %q has %d ports", cfg.Name, cfg.Ports)
	}
	if cfg.ForwardingLatency < 0 {
		return nil, fmt.Errorf("fabric: negative forwarding latency")
	}
	mmu, err := buffer.New(cfg.Buffer)
	if err != nil {
		return nil, fmt.Errorf("fabric %q: %w", cfg.Name, err)
	}
	sw := &Switch{
		k:      k,
		cfg:    cfg,
		mac:    mac,
		mmu:    mmu,
		rng:    k.Rand("switch/" + cfg.Name),
		trace:  k.Trace(),
		port:   make([]*portState, cfg.Ports),
		arp:    make(map[packet.Addr]arpEntry),
		macTab: make(map[packet.MAC]macEntry),
		C:      newCounters(k.Metrics(), cfg.Name),
	}
	sw.fwdEv = sw.fireForward
	for i := range sw.port {
		sw.port[i] = &portState{}
	}
	if cfg.Watchdog.Enabled {
		k.NewTicker(cfg.Watchdog.Poll, sw.pollWatchdogs)
	}
	k.Announce(sw)
	return sw, nil
}

// Name returns the configured switch name.
func (s *Switch) Name() string { return s.cfg.Name }

// Kernel returns the kernel (shard) this switch runs on — the link
// layer's KernelOwner hook.
func (s *Switch) Kernel() *sim.Kernel { return s.k }

// MAC returns the switch's MAC address.
func (s *Switch) MAC() packet.MAC { return s.mac }

// MMU exposes the buffer accountant for monitoring and tests.
func (s *Switch) MMU() *buffer.MMU { return s.mmu }

// Config returns the switch configuration.
func (s *Switch) Config() Config { return s.cfg }

// AttachLink connects local port n to side of l; peerMAC is the MAC the
// switch writes as destination when forwarding out this port toward
// another router, and serverFacing enables the storm watchdog.
func (s *Switch) AttachLink(n int, l *link.Link, side int, peerMAC packet.MAC, serverFacing bool) {
	ps := s.port[n]
	ps.lk = l
	ps.side = side
	ps.peerMAC = peerMAC
	ps.serverFacing = serverFacing
	ps.egress = link.NewEgress(s.k, l, side)
	ps.egress.OnTransmit = func(it link.Item) { s.onTransmit(n, it) }
	ps.pauser = pfc.NewRefresher(s.mac, l.Rate(),
		func(p *packet.Packet) {
			ps.egress.EnqueueControl(p)
			ps.TxPause.Inc()
			s.C.PauseTx.Inc()
		},
		s.k.Now,
		func(d simtime.Duration, fn func()) func() bool { return s.k.After(d, fn).Cancel })
	ps.pauser.Pool = s.k.PacketPool()
	ps.wdTrip = pfc.NewWatchdog(s.cfg.Watchdog.TripWindow)
	reg := s.k.Metrics()
	port := telemetry.L("port", n)
	ps.RxFrames = reg.Counter(s.cfg.Name+"/rx_frames", port)
	ps.RxPause = reg.Counter(s.cfg.Name+"/pause_rx", port)
	ps.TxPause = reg.Counter(s.cfg.Name+"/pause_tx", port)
	// The watchdog replaces the egress PauseState when it trips, so the
	// pause-time gauges read through a getter rather than a pointer.
	pfc.RegisterMetrics(reg, s.cfg.Name, func() *pfc.PauseState { return ps.egress.Pause },
		ps.pauser, s.losslessMask(), port)
	l.Attach(side, s, n)
}

// Egress exposes a port's egress for monitoring and the deadlock
// detector.
func (s *Switch) Egress(port int) *link.Egress { return s.port[port].egress }

// Pauser exposes a port's PFC generator, for tests.
func (s *Switch) Pauser(port int) *pfc.Refresher { return s.port[port].pauser }

// PortCounters returns (rxFrames, rxPause, txPause) for a port.
func (s *Switch) PortCounters(port int) (rx, rxPause, txPause uint64) {
	ps := s.port[port]
	return ps.RxFrames.Value(), ps.RxPause.Value(), ps.TxPause.Value()
}

// LosslessDisabled reports whether the watchdog has disabled lossless
// mode on a port.
func (s *Switch) LosslessDisabled(port int) bool { return s.port[port].losslessDisabled }

// AddRoute installs a forwarding entry.
func (s *Switch) AddRoute(r Route) { s.routes.add(r) }

// SetARP installs/refreshes an ARP entry (IP → MAC) with the configured
// ARP timeout.
func (s *Switch) SetARP(ip packet.Addr, mac packet.MAC) {
	s.arp[ip] = arpEntry{mac: mac, expires: s.k.Now().Add(s.cfg.ARPTimeout)}
}

// LearnMAC installs/refreshes a MAC-table entry (MAC → port) with the
// configured MAC timeout, exactly as the hardware learns from received
// frames.
func (s *Switch) LearnMAC(mac packet.MAC, port int) {
	s.macTab[mac] = macEntry{port: port, expires: s.k.Now().Add(s.cfg.MACTimeout)}
}

// ExpireMAC removes a MAC-table entry immediately (test hook standing in
// for the 5-minute ageing the deadlock scenario depends on).
func (s *Switch) ExpireMAC(mac packet.MAC) { delete(s.macTab, mac) }

func (s *Switch) lookupARP(ip packet.Addr) (packet.MAC, bool) {
	e, ok := s.arp[ip]
	if !ok || e.expires.Before(s.k.Now()) {
		return packet.MAC{}, false
	}
	return e.mac, true
}

func (s *Switch) lookupMAC(mac packet.MAC) (int, bool) {
	e, ok := s.macTab[mac]
	if !ok || e.expires.Before(s.k.Now()) {
		return 0, false
	}
	return e.port, true
}

// losslessMask returns the bitmask of lossless priorities.
func (s *Switch) losslessMask() uint8 {
	var m uint8
	for i, l := range s.cfg.Buffer.LosslessPGs {
		if l {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Receive implements link.Endpoint: a frame has arrived on port n.
func (s *Switch) Receive(n int, p *packet.Packet) {
	if s.failed {
		// Frames already in flight when the switch died land on a dead
		// ASIC; the carrier drop stops anything new from being sent.
		s.C.DownDrops.Inc()
		s.drop(n, p.Priority(s.cfg.DSCPMap), p, "switch-down")
		return
	}
	ps := s.port[n]
	s.C.RxFrames.Inc()
	ps.RxFrames.Inc()
	ps.RxBytes += uint64(p.WireLen())

	if p.IsPause() {
		s.C.PauseRx.Inc()
		ps.RxPause.Inc()
		ps.lastPauseRx = s.k.Now()
		if !ps.losslessDisabled { // watchdog: ignore pauses from the broken NIC
			ps.egress.Pause.Handle(s.k.Now(), p.Pause)
			ps.egress.Kick()
		}
		s.k.PacketPool().Put(p) // pause state absorbed; the frame is dead
		return
	}

	// MAC learning from data frames (the L2 table the deadlock hinges
	// on).
	if !p.Eth.Src.IsZero() {
		s.LearnMAC(p.Eth.Src, n)
	}

	pri := p.Priority(s.cfg.DSCPMap)
	if qm := s.cfg.QoSMap; qm != nil {
		pri = qm[pri] & 0x7
	}
	ps.RxByPri[pri]++
	lossless := s.cfg.Buffer.LosslessPGs[pri]

	if ps.losslessDisabled && lossless {
		s.C.WatchdogDrops.Inc()
		s.drop(n, pri, p, "watchdog-lossless-disabled")
		return
	}
	if s.DropFn != nil && s.DropFn(p) {
		s.C.InjectedDrops.Inc()
		s.drop(n, pri, p, "injected")
		return
	}

	// A router only accepts frames addressed to it (or L2 frames for
	// local delivery, or multicast). Stray flooded copies die here —
	// "the egress queue ... will drop the purple packets ... since the
	// destination MAC does not match".
	if p.IP != nil && !p.Eth.Dst.IsMulticast() && p.Eth.Dst != s.mac {
		if _, isLocal := s.localDst(p.IP.Dst); !isLocal {
			s.C.MACMismatchDrops.Inc()
			s.drop(n, pri, p, "mac-mismatch")
			return
		}
		// Frame for one of our servers (possibly flooded from
		// elsewhere): fall through to local delivery.
	}

	if p.IP != nil {
		if p.IP.TTL <= 1 {
			s.C.TTLDrops.Inc()
			s.drop(n, pri, p, "ttl-expired")
			return
		}
	}

	outs, ok := s.forward(n, p, pri, lossless)
	if !ok || len(outs) == 0 {
		return // counted inside forward
	}

	for _, out := range outs {
		q := p
		if len(outs) > 1 {
			// Flooding: every copy is independent so per-hop mutation
			// (TTL, ECN) stays per-copy.
			q = p.Clone()
		}
		outcome, tr := s.mmu.Admit(n, pri, q.WireLen())
		s.applyPause(n, pri, tr)
		if outcome == buffer.Drop {
			s.C.IngressDrops.Inc()
			if lossless {
				s.C.LosslessDrops.Inc()
			}
			s.drop(n, pri, q, "buffer-admission")
			continue
		}
		s.finishForward(n, out, q, pri)
	}
	if len(outs) > 1 {
		s.k.PacketPool().Put(p) // only box-less clones went downstream
	}
}

// drop emits a trace event for a discarded frame and recycles it: every
// call site is a death point, so the packet returns to the pool here.
func (s *Switch) drop(port, pri int, p *packet.Packet, reason string) {
	if s.trace.Wants(telemetry.EvDrop.Mask()) {
		s.trace.Emit(telemetry.Event{
			Type: telemetry.EvDrop, Node: s.cfg.Name, Port: port, Pri: pri,
			Pkt: p, Reason: reason,
		})
	}
	s.k.PacketPool().Put(p)
}

// localDst reports whether dst falls in a Local route (our own server
// subnet).
func (s *Switch) localDst(dst packet.Addr) (*Route, bool) {
	r := s.routes.lookup(dst)
	if r != nil && r.Local {
		return r, true
	}
	return nil, false
}

// forward computes the output port set for a packet. It does not enqueue.
func (s *Switch) forward(in int, p *packet.Packet, pri int, lossless bool) ([]int, bool) {
	// Pure L2 frames (no IP): MAC table or flood.
	if p.IP == nil {
		if p.Eth.Dst.IsMulticast() {
			return s.floodPorts(in), true
		}
		if port, ok := s.lookupMAC(p.Eth.Dst); ok {
			return []int{port}, true
		}
		s.C.Floods.Inc()
		return s.floodPorts(in), true
	}

	r := s.routes.lookup(p.IP.Dst)
	if r == nil {
		s.C.NoRouteDrops.Inc()
		s.drop(in, pri, p, "no-route")
		return nil, false
	}
	if !r.Local {
		out, ok := s.pickECMP(r.Ports, p)
		if !ok {
			s.C.NoRouteDrops.Inc()
			s.drop(in, pri, p, "no-route")
			return nil, false
		}
		return []int{out}, true
	}

	// Local delivery: ARP then MAC table.
	mac, ok := s.lookupARP(p.IP.Dst)
	if !ok {
		s.C.ARPMissDrops.Inc()
		s.drop(in, pri, p, "arp-miss")
		return nil, false
	}
	if port, ok := s.lookupMAC(mac); ok {
		p.Eth.Dst = mac // rewrite for final hop
		p.Eth.Src = s.mac
		return []int{port}, true
	}
	// Incomplete ARP entry: the MAC is known at L3 but not in the L2
	// table. Standard switches flood — the paper's deadlock trigger.
	if s.cfg.DropLosslessOnIncompleteARP && lossless {
		s.C.ARPIncompleteDrops.Inc()
		s.drop(in, pri, p, "arp-incomplete")
		return nil, false
	}
	s.C.Floods.Inc()
	p.Eth.Dst = mac
	p.Eth.Src = s.mac
	return s.floodPorts(in), true
}

// portDown reports whether a port has lost carrier — its cable is dead
// or was never attached. Dead next hops are withdrawn from ECMP groups.
func (s *Switch) portDown(pt int) bool {
	ps := s.port[pt]
	return ps.lk == nil || ps.lk.Down
}

// pickECMP selects the egress port for p among an equal-cost group,
// excluding ports whose links are down: hardware withdraws a dead next
// hop from the group instead of hashing flows into a black hole, and
// restores it when carrier returns. With every port live the selection
// (hash modulus and rng draw alike) is identical to indexing the full
// group, so healthy-fabric routing is bit-for-bit unchanged. Returns
// false when no live port remains.
func (s *Switch) pickECMP(ports []int, p *packet.Packet) (int, bool) {
	live := len(ports)
	if live == 0 {
		return 0, false
	}
	for _, pt := range ports {
		if s.portDown(pt) {
			live--
		}
	}
	if live == 0 {
		return 0, false
	}
	var idx int
	if s.cfg.PerPacketSpray {
		// Random spray (not round-robin): transient load imbalance
		// between equal-cost paths is what makes reordering real.
		idx = s.rng.Intn(live)
	} else {
		idx = int(p.Flow().Hash() % uint64(live))
	}
	for _, pt := range ports {
		if s.portDown(pt) {
			continue
		}
		if idx == 0 {
			return pt, true
		}
		idx--
	}
	return 0, false // unreachable: idx < live by construction
}

func (s *Switch) floodPorts(in int) []int {
	out := make([]int, 0, len(s.port)-1)
	for i, ps := range s.port {
		if i == in || ps.lk == nil {
			continue
		}
		out = append(out, i)
	}
	return out
}

// finishForward applies TTL/MAC rewrite, ECN marking and enqueues after
// the pipeline latency.
func (s *Switch) finishForward(in, out int, p *packet.Packet, pri int) {
	if p.IP != nil {
		p.IP.TTL--
		// Rewrite L2 addressing toward the next hop, unless forward()
		// already set the final server MAC (local delivery or flood).
		if r := s.routes.lookup(p.IP.Dst); r != nil && !r.Local {
			p.Eth.Src = s.mac
			p.Eth.Dst = s.port[out].peerMAC
		}
	}
	s.maybeMarkECN(out, p, pri)
	it := link.Item{P: p, Pri: pri, IngressPort: in, PG: pri}
	if s.cfg.ForwardingLatency > 0 {
		// Constant latency means pipeline events fire in FIFO order, so a
		// head-indexed ring plus one resident callback replaces a closure
		// per packet.
		s.fwd = append(s.fwd, fwdEntry{out: out, it: it})
		s.k.After(s.cfg.ForwardingLatency, s.fwdEv)
	} else {
		s.enqueueOut(out, it)
	}
}

// fireForward completes one forwarding-pipeline traversal (the resident
// callback armed by finishForward).
func (s *Switch) fireForward() {
	e := s.fwd[s.fwdHead]
	s.fwd[s.fwdHead] = fwdEntry{}
	s.fwdHead++
	if s.fwdHead > len(s.fwd)/2 && s.fwdHead >= 32 {
		n := copy(s.fwd, s.fwd[s.fwdHead:])
		for i := n; i < len(s.fwd); i++ {
			s.fwd[i] = fwdEntry{}
		}
		s.fwd = s.fwd[:n]
		s.fwdHead = 0
	}
	s.enqueueOut(e.out, e.it)
}

// enqueueOut hands a forwarded frame to its egress queue.
func (s *Switch) enqueueOut(out int, it link.Item) {
	if s.failed {
		// The forwarding pipeline died with the fabric: frames admitted
		// before the failure release their accounting and vanish. The
		// pause generators are already dead, so transitions go unsignalled.
		s.C.DownDrops.Inc()
		wire := it.P.WireLen() // before drop: the pool may recycle it.P
		s.drop(out, it.Pri, it.P, "switch-down")
		if it.IngressPort >= 0 {
			s.mmu.Release(it.IngressPort, it.PG, wire)
		}
		return
	}
	if s.trace.Wants(telemetry.EvEnqueue.Mask()) {
		s.trace.Emit(telemetry.Event{
			Type: telemetry.EvEnqueue, Node: s.cfg.Name, Port: out, Pri: it.Pri, Pkt: it.P,
		})
	}
	s.port[out].egress.Enqueue(it)
}

// ecnFor returns the marking profile in effect for a priority group.
func (s *Switch) ecnFor(pri int) ECNConfig {
	if o := s.cfg.PGECN[pri]; o != nil {
		return *o
	}
	return s.cfg.ECN
}

// maybeMarkECN applies the WRED marking profile at the egress queue.
func (s *Switch) maybeMarkECN(out int, p *packet.Packet, pri int) {
	e := s.ecnFor(pri)
	if !e.Enabled || p.IP == nil {
		return
	}
	if p.IP.ECN != packet.ECNECT0 && p.IP.ECN != packet.ECNECT1 {
		return
	}
	// Control packets are never marked: CE on an ACK/NAK or CNP would make
	// the receiver generate CNPs about the control stream itself, and the
	// DCQCN CP spec marks data packets only.
	if p.BTH != nil && (p.BTH.Opcode == packet.OpAcknowledge || p.BTH.Opcode == packet.OpCNP) {
		return
	}
	q := s.port[out].egress.QueueBytes(pri)
	var prob float64
	switch {
	case q <= e.KMin:
		return
	case q >= e.KMax:
		prob = 1
	default:
		prob = e.PMax * float64(q-e.KMin) / float64(e.KMax-e.KMin)
	}
	if s.rng.Float64() < prob {
		p.IP.ECN = packet.ECNCE
		s.C.ECNMarked.Inc()
		if s.trace.Wants(telemetry.EvECNMark.Mask()) {
			s.trace.Emit(telemetry.Event{
				Type: telemetry.EvECNMark, Node: s.cfg.Name, Port: out, Pri: pri, Pkt: p,
			})
		}
	}
}

// applyPause translates an MMU transition into PFC signaling on the
// ingress port.
func (s *Switch) applyPause(port, pri int, tr buffer.Transition) {
	ps := s.port[port]
	switch tr {
	case buffer.XOFF:
		if s.trace.Wants(telemetry.EvPauseXOFF.Mask()) && ps.pauser.Engaged()&(1<<uint(pri)) == 0 {
			s.trace.Emit(telemetry.Event{
				Type: telemetry.EvPauseXOFF, Node: s.cfg.Name, Port: port, Pri: pri,
			})
		}
		ps.pauser.Pause(pri)
	case buffer.XON:
		if s.trace.Wants(telemetry.EvPauseXON.Mask()) && ps.pauser.Engaged()&(1<<uint(pri)) != 0 {
			s.trace.Emit(telemetry.Event{
				Type: telemetry.EvPauseXON, Node: s.cfg.Name, Port: port, Pri: pri,
			})
		}
		ps.pauser.Resume(pri)
	}
}

// onTransmit releases buffer accounting when a frame leaves the switch.
func (s *Switch) onTransmit(port int, it link.Item) {
	s.C.TxFrames.Inc()
	if s.trace.Wants(telemetry.EvDequeue.Mask()) {
		s.trace.Emit(telemetry.Event{
			Type: telemetry.EvDequeue, Node: s.cfg.Name, Port: port, Pri: it.Pri, Pkt: it.P,
		})
	}
	if it.IngressPort < 0 {
		return // locally generated (pause frames)
	}
	tr := s.mmu.Release(it.IngressPort, it.PG, it.P.WireLen())
	s.applyPause(it.IngressPort, it.PG, tr)
	// A release grows the shared pool: buckets paused under a shrunken
	// threshold may now resume. Route through applyPause so the trace bus
	// sees the XON edge — the pause-propagation analyzer needs every
	// interval closed, not just the ones the admitting port observed.
	for _, ref := range s.mmu.Reevaluate() {
		s.applyPause(ref.Port, ref.PG, buffer.XON)
	}
}

// pollWatchdogs runs the switch-side PFC storm watchdog over
// server-facing ports.
func (s *Switch) pollWatchdogs() {
	if s.failed {
		return // the control plane is down with the rest of the box
	}
	now := s.k.Now()
	cfg := s.cfg.Watchdog
	for i, ps := range s.port {
		if ps.lk == nil || !ps.serverFacing {
			continue
		}
		if !ps.losslessDisabled {
			// Condition: lossless egress queued but not draining, while
			// pauses keep arriving from the NIC.
			queued := 0
			for pri := 0; pri < 8; pri++ {
				if s.cfg.Buffer.LosslessPGs[pri] {
					queued += ps.egress.QueueBytes(pri)
				}
			}
			var dataTx uint64
			for pri := 0; pri < 8; pri++ {
				dataTx += ps.egress.TxByPri[pri]
			}
			stuck := queued > 0 && dataTx == ps.lastTxCount
			pausing := now.Sub(ps.lastPauseRx) < 2*cfg.Poll && ps.RxPause.Value() > 0
			ps.lastTxCount = dataTx
			if ps.wdTrip.Observe(now, stuck && pausing) {
				s.tripWatchdog(i, ps)
			}
		} else if now.Sub(ps.lastPauseRx) >= cfg.ReenableAfter {
			// Pauses gone: re-enable lossless mode.
			ps.losslessDisabled = false
			s.C.WatchdogReenables.Inc()
			ps.wdTrip = pfc.NewWatchdog(cfg.TripWindow)
			s.reenablePort(i, ps)
		}
	}
}

// tripWatchdog disables lossless mode on a port: queued lossless frames
// are purged (releasing their buffer accounting) and future lossless
// frames to/from the port are discarded until pauses disappear.
func (s *Switch) tripWatchdog(port int, ps *portState) {
	ps.losslessDisabled = true
	s.C.WatchdogTrips.Inc()
	// Lossless mode is off: stop pausing the peer. Close any open XOFF
	// interval with a real XON frame (and its trace edge) first, then
	// suppress the refresher so the port emits no PFC while disabled —
	// pre-fix it kept XOFF-refreshing the tripped port forever, which is
	// exactly the pause propagation the watchdog exists to stop.
	for pri := 0; pri < 8; pri++ {
		if ps.pauser.Engaged()&(1<<uint(pri)) != 0 {
			s.applyPause(port, pri, buffer.XON)
		}
	}
	ps.pauser.Disabled = true
	// Ignore the NIC's pause state so the egress drains again.
	ps.egress.Pause = pfc.NewPauseState(ps.lk.Rate())
	for pri := 0; pri < 8; pri++ {
		if !s.cfg.Buffer.LosslessPGs[pri] {
			continue
		}
		for _, it := range ps.egress.Purge(pri) {
			s.C.WatchdogDrops.Inc()
			wire := it.P.WireLen() // before drop: the pool may recycle it.P
			s.drop(port, pri, it.P, "watchdog-purge")
			if it.IngressPort >= 0 {
				tr := s.mmu.Release(it.IngressPort, it.PG, wire)
				s.applyPause(it.IngressPort, it.PG, tr)
			}
		}
	}
	for _, ref := range s.mmu.Reevaluate() {
		s.applyPause(ref.Port, ref.PG, buffer.XON)
	}
	ps.egress.Kick()
}

// reenablePort restores PFC generation after a watchdog re-enable. The
// pause state is re-derived from the MMU: a bucket still over threshold
// must be re-XOFFed here — its Admit transitions already fired long ago,
// so nothing else will ever pause it again, and the peer would resume
// into a full buffer and overflow it.
func (s *Switch) reenablePort(port int, ps *portState) {
	ps.pauser.Reenable()
	for pri := 0; pri < 8; pri++ {
		if !s.cfg.Buffer.LosslessPGs[pri] {
			continue
		}
		if s.mmu.Paused(port, pri) {
			s.applyPause(port, pri, buffer.XOFF)
		} else {
			s.applyPause(port, pri, buffer.XON)
		}
	}
	ps.egress.Kick()
}

// Failed reports whether the switch is powered off (mid-reboot).
func (s *Switch) Failed() bool { return s.failed }

// SetFailed powers the switch off (true) or back on (false), modeling a
// reboot: the packet buffer is volatile, so the MMU and every egress
// queue are flushed; carrier drops on every attached link so neighbours'
// ECMP withdraws the dead next hops; and PFC state is torn down on both
// directions. MAC/ARP/route tables persist — a rebooted switch reloads
// its configuration. The carrier transitions fire each link's OnCarrier
// hook, so the topology control plane reconverges routes around (and
// later back through) the rebooted switch.
func (s *Switch) SetFailed(down bool) {
	if down == s.failed {
		return
	}
	s.failed = down
	if down {
		s.powerOff()
	} else {
		s.powerOn()
	}
}

// powerOff tears the data plane down. Order matters: pause intervals are
// closed while the generator still works (an XOFF left open would read
// as pausing forever), then emission and transmission stop, then the
// queues flush with their buffer accounting released.
func (s *Switch) powerOff() {
	for i, ps := range s.port {
		if ps.lk == nil {
			continue
		}
		for pri := 0; pri < 8; pri++ {
			if ps.pauser.Engaged()&(1<<uint(pri)) != 0 {
				s.applyPause(i, pri, buffer.XON)
			}
		}
		ps.pauser.Disabled = true
		ps.egress.Blocked = true
		ps.lk.SetDown(true)
		for pri := 0; pri < 8; pri++ {
			for _, it := range ps.egress.Purge(pri) {
				s.C.DownDrops.Inc()
				wire := it.P.WireLen() // before drop: the pool may recycle it.P
				s.drop(i, pri, it.P, "switch-down")
				if it.IngressPort >= 0 {
					// The generators are dead; the release transition has
					// nobody left to signal.
					s.mmu.Release(it.IngressPort, it.PG, wire)
				}
			}
		}
	}
	// Frames still traversing the forwarding pipeline die as their delay
	// events fire — see the failed guard in enqueueOut.
}

// powerOn brings the data plane back with post-reset state: carriers up,
// fresh PFC state in both directions (a link reset clears pause), and
// watchdog state cleared. Pause signalling is re-derived from the MMU,
// which is empty after the flush unless pipeline stragglers remain.
func (s *Switch) powerOn() {
	for i, ps := range s.port {
		if ps.lk == nil {
			continue
		}
		ps.lk.SetDown(false)
		ps.egress.Blocked = false
		ps.egress.Pause = pfc.NewPauseState(ps.lk.Rate())
		ps.losslessDisabled = false
		ps.wdTrip = pfc.NewWatchdog(s.cfg.Watchdog.TripWindow)
		s.reenablePort(i, ps)
	}
}

// SetBufferAlpha pushes a new dynamic-threshold α to the running switch —
// declared config and MMU alike, exactly as a config-management rollout
// would. The config-store drift checker reads the declared side, so an
// injected wrong α is immediately visible as drift.
func (s *Switch) SetBufferAlpha(a float64) {
	s.cfg.Buffer.Alpha = a
	s.mmu.SetAlpha(a)
}

// SetECNEnabled turns ECN marking on or off on the running switch — the
// second knob (after α) a config-management rollout changes at runtime.
func (s *Switch) SetECNEnabled(on bool) {
	s.cfg.ECN.Enabled = on
}

// SetQoSMap replaces the running priority→PG map (nil restores
// identity) — declared config, so the drift checker sees a misprogrammed
// entry through the "qos_map" key.
func (s *Switch) SetQoSMap(m *[8]int) { s.cfg.QoSMap = m }

// SetPGECN installs (or with nil removes) a per-class ECN marking
// override for pg — the per-class DCQCN congestion-point tuning a
// multi-tenant rollout stages, visible to the drift checker through the
// "ecn_classes" key.
func (s *Switch) SetPGECN(pg int, e *ECNConfig) { s.cfg.PGECN[pg] = e }

// MisclassifyLossless reprograms the MMU's lossless classification of a
// priority group without touching the declared configuration: the
// hardware is misprogrammed while the operator intent — and the invariant
// auditor's reading of it — still says lossless. Congestion drops on the
// class then surface as lossless-guarantee violations, which is the
// point of injecting this fault.
func (s *Switch) MisclassifyLossless(pg int, lossless bool) {
	s.mmu.SetLossless(pg, lossless)
}
