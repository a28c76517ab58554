package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"rocesim/internal/buffer"
	"rocesim/internal/dcqcn"
	"rocesim/internal/fabric"
	"rocesim/internal/irn"
	"rocesim/internal/link"
	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/stats"
	"rocesim/internal/topology"
)

// Replays call one layer's public functions in a loop, on the op
// mix a traced run recorded, and report host cost per call. They run in
// the traced process after the workload, outside the CPU profile.

// opCost is the host cost of one replayed operation.
type opCost struct{ ns, allocs float64 }

// measure runs body, which returns how many operations it performed,
// and divides its wall time and heap allocations by that count.
func measure(body func() int) opCost {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := body()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if n <= 0 {
		return opCost{}
	}
	return opCost{ns: float64(elapsed.Nanoseconds()) / float64(n), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n)}
}

// replaySim holds the event heap at depth live events: every fired
// event schedules one successor with AtArg, so each op is one
// schedule plus one fire at that depth.
func replaySim(depth, ops int) opCost {
	if depth < 1 {
		depth = 1
	}
	k := sim.NewKernel(1)
	rng := rand.New(rand.NewSource(1))
	var delays [1024]simtime.Duration
	for i := range delays {
		delays[i] = simtime.Duration(1 + rng.Int63n(int64(2*simtime.Microsecond)))
	}
	fired := 0
	var fn sim.ArgEvent
	fn = func(arg any) {
		fired++
		k.AtArg(k.Now().Add(delays[fired&1023]), fn, arg)
	}
	for i := 0; i < depth; i++ {
		k.AtArg(k.Now().Add(delays[i&1023]), fn, nil)
	}
	step := simtime.Time(simtime.Microsecond)
	for fired < ops/10 { // warm the item free list
		k.RunUntil(k.Now() + step)
	}
	return measure(func() int {
		base := fired
		for fired-base < ops {
			k.RunUntil(k.Now() + step)
		}
		return fired - base
	})
}

// replayMMU admits the recorded enqueue mix into an MMU built with the
// workload's switch buffer configuration, keeping a window of frames
// resident so admission sees occupied buckets, and releases each frame
// as it leaves the window. One op is one Admit plus one Release.
func replayMMU(cfg buffer.Config, ports int, mix []enqSample, ops int) (admit, reeval opCost) {
	if len(mix) == 0 || ports <= 0 {
		return opCost{}, opCost{}
	}
	m, err := buffer.New(cfg)
	if err != nil {
		panic(err)
	}
	type held struct {
		s  enqSample
		ok bool
	}
	const window = 64
	var ring [window]held
	admit = measure(func() int {
		for i := 0; i < ops; i++ {
			s := mix[i%len(mix)]
			s.port %= ports
			slot := &ring[i%window]
			if slot.ok {
				m.Release(slot.s.port, slot.s.pri, slot.s.size)
			}
			out, _ := m.Admit(s.port, s.pri, s.size)
			*slot = held{s: s, ok: out != buffer.Drop}
		}
		return ops
	})
	reeval = measure(func() int {
		n := ops / 64
		for i := 0; i < n; i++ {
			m.Reevaluate()
		}
		return n
	})
	return admit, reeval
}

// sink absorbs frames at the far end of a replayed link.
type sink struct{ pool *packet.Pool }

func (s sink) Receive(_ int, p *packet.Packet) { s.pool.Put(p) }

// replayLink pushes frames through Egress.Enqueue at the recorded
// priority mix and drains them to a sink: one op is a frame's whole
// path through the egress (queue, DWRR pick, serialization event,
// delivery event).
func replayLink(mix []enqSample, ops int) opCost {
	k := sim.NewKernel(1)
	l := link.New(k, 40*simtime.Gbps, 10*simtime.Nanosecond)
	l.Attach(1, sink{k.PacketPool()}, 0)
	e := link.NewEgress(k, l, 0)
	pri := func(i int) int {
		if len(mix) == 0 {
			return 3
		}
		return mix[i%len(mix)].pri
	}
	const batch = 64
	n := (ops + batch - 1) / batch * batch
	return measure(func() int {
		for i := 0; i < n; i += batch {
			for j := i; j < i+batch; j++ {
				e.Enqueue(link.Item{P: k.PacketPool().Get(), Pri: pri(j), IngressPort: -1, PG: -1})
			}
			k.Run()
		}
		return n
	})
}

// routeClass is a group of switches whose route tables fill to the same
// size while the topology is built.
type routeClass struct{ switches, size int }

// routeClasses derives ToR, Leaf and Spine table sizes from the spec,
// following topology.Build's route installation.
func routeClasses(spec topology.Spec) []routeClass {
	tors := spec.Podsets * spec.TorsPerPod
	torSize := 1
	if spec.LeafsPerPod > 0 {
		torSize += tors // default route plus one /24 per other ToR
	}
	leafSize := spec.TorsPerPod
	if spec.Spines > 0 {
		leafSize += 1 + (spec.Podsets-1)*spec.TorsPerPod
	}
	out := []routeClass{{tors, torSize}, {spec.Podsets * spec.LeafsPerPod, leafSize}}
	if spec.Spines > 0 {
		out = append(out, routeClass{spec.Spines, spec.Podsets * (1 + spec.TorsPerPod)})
	}
	return out
}

// replayRoutes fills one fresh switch table per route class with
// Switch.AddRoute, the way the build does, and returns the mean cost of
// one add over the workload's adds plus the estimated host seconds of
// all route installs.
func replayRoutes(spec topology.Spec) (add opCost, installS float64) {
	var adds, allocs, ns float64
	for _, c := range routeClasses(spec) {
		if c.switches == 0 || c.size == 0 {
			continue
		}
		sw, err := fabric.NewSwitch(sim.NewKernel(1), fabric.DefaultConfig("replay", 64), packet.MAC{0x02, 0xee})
		if err != nil {
			panic(err)
		}
		size := c.size
		cost := measure(func() int {
			sw.AddRoute(fabric.Route{Bits: 0, Ports: []int{0, 1}})
			for i := 1; i < size; i++ {
				sw.AddRoute(fabric.Route{Prefix: packet.IPv4Addr(10, byte(i>>8), byte(i), 0), Bits: 24, Ports: []int{i % 64}})
			}
			return size
		})
		n := float64(c.switches * c.size)
		adds += n
		ns += cost.ns * n
		allocs += cost.allocs * n
	}
	if adds == 0 {
		return opCost{}, 0
	}
	return opCost{ns: ns / adds, allocs: allocs / adds}, ns / 1e9
}

// replayLearnMAC refreshes a MAC table of the workload's ToR size, one
// LearnMAC per op, as switch ingress does for every data frame.
func replayLearnMAC(spec topology.Spec, ops int) opCost {
	k := sim.NewKernel(1)
	sw, err := fabric.NewSwitch(k, fabric.DefaultConfig("replay", 64), packet.MAC{0x02, 0xee})
	if err != nil {
		panic(err)
	}
	n := spec.ServersPerTor + spec.LeafsPerPod
	macs := make([]packet.MAC, n)
	for i := range macs {
		macs[i] = packet.MAC{0x02, 0, 0, byte(i >> 8), 0x01, byte(i)}
	}
	return measure(func() int {
		for i := 0; i < ops; i++ {
			sw.LearnMAC(macs[i%n], i%64)
		}
		return ops
	})
}

// replayDCQCN drives one reaction point with the recorded ratio of
// sends to CNPs: every send is an OnSend and a Poll one MTU frame time
// apart, and every sends/cnps-th send is followed by an OnCNP.
func replayDCQCN(sends, cnps float64, ops int) opCost {
	rp := dcqcn.NewRP(dcqcn.DefaultParams(40*simtime.Gbps), 0)
	every := 0
	if cnps > 0 {
		every = int(math.Max(1, math.Round(sends/cnps)))
	}
	gap := (40 * simtime.Gbps).Transmission(1086)
	var now simtime.Time
	return measure(func() int {
		calls := 0
		for i := 0; calls < ops; i++ {
			now = now.Add(gap)
			rp.OnSend(now, 1024)
			rp.Poll(now)
			calls += 2
			if every > 0 && i%every == 0 {
				rp.OnCNP(now)
				calls++
			}
		}
		return calls
	})
}

// replayObserve feeds a stats.Histogram log-uniform values across the
// range the workload's registry histograms recorded.
func replayObserve(lo, hi float64, ops int) opCost {
	if !(lo > 0) || !(hi > lo) {
		lo, hi = 1e6, 1e8
	}
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = lo * math.Pow(hi/lo, rng.Float64())
	}
	h := stats.NewHistogram()
	return measure(func() int {
		for i := 0; i < ops; i++ {
			h.Observe(vals[i&4095])
		}
		return ops
	})
}

// replayIRN drives one responder's irn.Tracker with the recorded share
// of out-of-order arrivals, the way the IRN receive path calls it: an
// in-order arrival drains the tracker with Take (a miss when nothing is
// buffered), and an out-of-order arrival is a Put plus the Bitmap its
// NAK-with-SACK carries. Losses come in holes of one packet, each
// followed by a window of out-of-order arrivals until the retransmit
// fills it and Take drains the window. One op is one tracker call.
func replayIRN(arrivals, ooo float64, ops int) opCost {
	const window = 32 // packets in flight behind a hole: IRN's BDP cap
	period := 0
	if ooo > 0 && arrivals > ooo {
		period = int(math.Max(window+1, math.Round(window*arrivals/ooo)))
	}
	tr := irn.NewTracker()
	var base uint32
	return measure(func() int {
		calls := 0
		for i := 0; calls < ops; i++ {
			if period == 0 || i%period != 0 {
				tr.Take(base) // in order: nothing to drain
				base = irn.Add(base, 1)
				calls++
				continue
			}
			// base is lost: the next window arrivals land past it.
			for j := uint32(1); j <= window; j++ {
				tr.Put(base, irn.Add(base, j), irn.Meta{PayloadLen: 1024})
				tr.Bitmap(base)
			}
			calls += 2 * window
			// The retransmit of base arrives; drain the window.
			base = irn.Add(base, 1)
			for {
				calls++
				if _, ok := tr.Take(base); !ok {
					break
				}
				base = irn.Add(base, 1)
			}
		}
		return calls
	})
}
