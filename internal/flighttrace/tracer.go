// Package flighttrace turns the telemetry trace bus's raw
// packet-lifecycle events into operator-facing diagnoses, the tooling
// the paper's authors describe building after each RoCEv2 incident:
//
//   - FlowTracer assembles per-packet causal spans (injection →
//     per-hop enqueue/dequeue → delivery, drop or retransmit) and
//     attributes queueing delay to individual hops, answering "where
//     did this flow's latency go?".
//   - Analyzer folds PFC pause events into a time-resolved
//     pause-dependency graph and ranks likely root causes, answering
//     "which device started this pause storm?" (§6 of the paper: the
//     storming NIC, or the switch with a misconfigured α).
//   - Recorder keeps a bounded ring of recent events per device — a
//     flight recorder dumped when an SLO objective breaches — with
//     Chrome trace-event JSON and plain-text exporters.
//
// Everything here is a passive trace-bus subscriber: with no tracer
// attached the simulator pays only the bus's single Active() check.
package flighttrace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rocesim/internal/packet"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// FlowString renders a five-tuple compactly for reports and traces.
func FlowString(k packet.FlowKey) string {
	if k == (packet.FlowKey{}) {
		return "-"
	}
	return fmt.Sprintf("%s:%d>%s:%d/%d", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

// Hop is one queueing point a packet visited: enqueue at a device and,
// once the frame serialises out, the matching dequeue.
type Hop struct {
	Node   string
	Port   int
	Enq    simtime.Time
	Deq    simtime.Time
	HasDeq bool
}

// Delay returns the queueing+serialisation delay at this hop (zero
// until the dequeue is observed).
func (h Hop) Delay() simtime.Duration {
	if !h.HasDeq {
		return 0
	}
	return h.Deq.Sub(h.Enq)
}

// Span is the reconstructed life of one packet: identity, the hops it
// queued at, and how it ended (delivered, dropped, or still in flight
// when tracing stopped).
type Span struct {
	Flow    packet.FlowKey
	UID     uint64
	PSN     uint32
	WireLen int

	Inject     simtime.Time
	Deliver    simtime.Time
	Delivered  bool
	Dropped    bool
	DropNode   string
	DropReason string

	Hops []Hop
}

// Latency returns end-to-end injection→delivery latency (zero unless
// delivered).
func (s *Span) Latency() simtime.Duration {
	if !s.Delivered {
		return 0
	}
	return s.Deliver.Sub(s.Inject)
}

// HopStat aggregates queueing delay attributed to one device for one
// flow.
type HopStat struct {
	Node     string
	Packets  int
	Total    simtime.Duration
	Max      simtime.Duration
}

// Mean returns the average per-packet delay at this hop.
func (h *HopStat) Mean() simtime.Duration {
	if h.Packets == 0 {
		return 0
	}
	return h.Total / simtime.Duration(h.Packets)
}

// FlowStat aggregates one flow's lifecycle counters and per-hop delay
// attribution.
type FlowStat struct {
	Flow        packet.FlowKey
	Injected    int
	Delivered   int
	Dropped     int
	Retransmits int
	ECNMarks    int
	CNPs        int
	Bytes       int64 // delivered wire bytes

	LatTotal simtime.Duration
	LatMax   simtime.Duration
	LatMin   simtime.Duration

	Hops map[string]*HopStat
}

// LatMean returns the average delivery latency.
func (f *FlowStat) LatMean() simtime.Duration {
	if f.Delivered == 0 {
		return 0
	}
	return f.LatTotal / simtime.Duration(f.Delivered)
}

type spanKey struct {
	flow packet.FlowKey
	uid  uint64
}

// FlowTracer subscribes to the trace bus and assembles per-packet
// spans and per-flow statistics. It copies every scalar it needs out
// of the event — it never retains *packet.Packet.
type FlowTracer struct {
	// KeepSpans bounds how many completed spans are retained for
	// inspection (oldest evicted first). Zero keeps aggregates only.
	KeepSpans int

	open  map[spanKey]*Span
	flows map[packet.FlowKey]*FlowStat
	spans []Span
	subs  []*telemetry.Subscription
}

// NewFlowTracer returns a tracer retaining up to keepSpans completed
// spans.
func NewFlowTracer(keepSpans int) *FlowTracer {
	return &FlowTracer{
		KeepSpans: keepSpans,
		open:      make(map[spanKey]*Span),
		flows:     make(map[packet.FlowKey]*FlowStat),
	}
}

// Attach subscribes the tracer to the bus. Call once per trace bus
// (Kernel.TraceBuses in a sharded run). Returns the tracer for
// chaining.
func (t *FlowTracer) Attach(bus *telemetry.TraceBus) *FlowTracer {
	mask := telemetry.EvInject.Mask() | telemetry.EvEnqueue.Mask() |
		telemetry.EvDequeue.Mask() | telemetry.EvDeliver.Mask() |
		telemetry.EvDrop.Mask() | telemetry.EvRetransmit.Mask() |
		telemetry.EvECNMark.Mask() | telemetry.EvCNP.Mask()
	t.subs = append(t.subs, bus.Subscribe(mask, nil, t.handle))
	return t
}

// Close unsubscribes from every attached bus.
func (t *FlowTracer) Close() {
	for _, sub := range t.subs {
		sub.Close()
	}
	t.subs = nil
}

func (t *FlowTracer) stat(flow packet.FlowKey) *FlowStat {
	f := t.flows[flow]
	if f == nil {
		f = &FlowStat{Flow: flow, Hops: make(map[string]*HopStat)}
		t.flows[flow] = f
	}
	return f
}

func (t *FlowTracer) handle(ev telemetry.Event) {
	flow := ev.FlowKey()
	switch ev.Type {
	case telemetry.EvRetransmit:
		t.stat(flow).Retransmits++
		return
	case telemetry.EvCNP:
		t.stat(flow).CNPs++
		return
	}
	if ev.Pkt == nil {
		return
	}
	key := spanKey{flow: flow, uid: ev.Pkt.UID}
	switch ev.Type {
	case telemetry.EvInject:
		s := &Span{
			Flow:    flow,
			UID:     ev.Pkt.UID,
			WireLen: ev.Pkt.WireLen(),
			Inject:  ev.At,
			Hops:    []Hop{{Node: ev.Node, Port: ev.Port, Enq: ev.At}},
		}
		if ev.Pkt.BTH != nil {
			s.PSN = ev.Pkt.BTH.PSN
		}
		t.open[key] = s
		t.stat(flow).Injected++

	case telemetry.EvEnqueue:
		if s := t.open[key]; s != nil {
			s.Hops = append(s.Hops, Hop{Node: ev.Node, Port: ev.Port, Enq: ev.At})
		}

	case telemetry.EvDequeue:
		s := t.open[key]
		if s == nil {
			return
		}
		for i := len(s.Hops) - 1; i >= 0; i-- {
			h := &s.Hops[i]
			if h.Node == ev.Node && !h.HasDeq {
				h.Deq, h.HasDeq = ev.At, true
				f := t.stat(flow)
				hs := f.Hops[ev.Node]
				if hs == nil {
					hs = &HopStat{Node: ev.Node}
					f.Hops[ev.Node] = hs
				}
				d := h.Delay()
				hs.Packets++
				hs.Total += d
				if d > hs.Max {
					hs.Max = d
				}
				break
			}
		}

	case telemetry.EvECNMark:
		t.stat(flow).ECNMarks++

	case telemetry.EvDeliver:
		s := t.open[key]
		if s == nil {
			return
		}
		s.Delivered, s.Deliver = true, ev.At
		f := t.stat(flow)
		f.Delivered++
		f.Bytes += int64(s.WireLen)
		lat := s.Latency()
		f.LatTotal += lat
		if lat > f.LatMax {
			f.LatMax = lat
		}
		if f.LatMin == 0 || lat < f.LatMin {
			f.LatMin = lat
		}
		t.finish(key, s)

	case telemetry.EvDrop:
		s := t.open[key]
		if s == nil {
			return
		}
		s.Dropped, s.DropNode, s.DropReason = true, ev.Node, ev.Reason
		t.stat(flow).Dropped++
		t.finish(key, s)
	}
}

func (t *FlowTracer) finish(key spanKey, s *Span) {
	delete(t.open, key)
	if t.KeepSpans <= 0 {
		return
	}
	if len(t.spans) >= t.KeepSpans {
		t.spans = append(t.spans[:0], t.spans[1:]...)
	}
	t.spans = append(t.spans, *s)
}

// Spans returns the retained completed spans, oldest first.
func (t *FlowTracer) Spans() []Span { return t.spans }

// InFlight returns how many spans have not yet completed.
func (t *FlowTracer) InFlight() int { return len(t.open) }

// Flows returns per-flow statistics sorted by flow identity
// (deterministic).
func (t *FlowTracer) Flows() []*FlowStat {
	out := make([]*FlowStat, 0, len(t.flows))
	for _, f := range t.flows {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		return FlowString(out[i].Flow) < FlowString(out[j].Flow)
	})
	return out
}

// Report renders the per-flow table with per-hop queueing-delay
// attribution. Output is deterministic for a deterministic event
// sequence.
func (t *FlowTracer) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %6s %6s %5s %4s %4s %4s  %-22s\n",
		"flow", "inj", "dlv", "drop", "rtx", "ecn", "cnp", "latency avg/max")
	for _, f := range t.Flows() {
		fmt.Fprintf(&b, "%-44s %6d %6d %5d %4d %4d %4d  %v/%v\n",
			FlowString(f.Flow), f.Injected, f.Delivered, f.Dropped,
			f.Retransmits, f.ECNMarks, f.CNPs, f.LatMean(), f.LatMax)
		hops := make([]*HopStat, 0, len(f.Hops))
		for _, h := range f.Hops {
			hops = append(hops, h)
		}
		sort.Slice(hops, func(i, j int) bool { return hops[i].Node < hops[j].Node })
		for _, h := range hops {
			fmt.Fprintf(&b, "    hop %-20s pkts=%-6d qdelay avg=%v max=%v\n",
				h.Node, h.Packets, h.Mean(), h.Max)
		}
	}
	return b.String()
}

// WriteReport writes Report to w.
func (t *FlowTracer) WriteReport(w io.Writer) error {
	_, err := io.WriteString(w, t.Report())
	return err
}
