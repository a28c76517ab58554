// Package health is the simulator's fleet health plane: the layer the
// paper's Section 5 operators stand on. It scrapes the telemetry
// registry on a fixed simulated-time cadence into bounded, tiered
// time-series rings (raw → 10× → 100× downsampled, the shape of a
// production TSDB's retention ladder), evaluates declarative service
// level objectives as multi-window burn rates with hysteresis (the
// Google SRE-workbook alerting discipline, applied to RoCE fleet
// signals: pause-rate ceilings, per-priority tail latency, goodput
// floors), aggregates pingmesh probes into pod×pod heatmaps, and
// renders deterministic health reports that diff against stored golden
// baselines.
//
// Determinism rules: the scraper runs in the kernel's observer band, so
// a scrape at time T sees every normal event of T already applied and
// never perturbs component event interleaving; objectives evaluate in
// registration order; all report output sorts by key. Two runs from the
// same seed render byte-identical reports.
package health

import (
	"rocesim/internal/simtime"
)

// Bucket is one aggregated cell of a time series: the Min/Max/Sum/N of
// every sample recorded in [Start, End].
type Bucket struct {
	Start, End simtime.Time
	Min, Max   float64
	Sum        float64
	N          uint64
}

// add folds one sample into the bucket.
func (b *Bucket) add(now simtime.Time, v float64) {
	if b.N == 0 {
		b.Start, b.Min, b.Max = now, v, v
	} else {
		if v < b.Min {
			b.Min = v
		}
		if v > b.Max {
			b.Max = v
		}
	}
	b.End = now
	b.Sum += v
	b.N++
}

// merge folds another bucket into this one.
func (b *Bucket) merge(o Bucket) {
	if o.N == 0 {
		return
	}
	if b.N == 0 {
		*b = o
		return
	}
	if o.Start < b.Start {
		b.Start = o.Start
	}
	if o.End > b.End {
		b.End = o.End
	}
	if o.Min < b.Min {
		b.Min = o.Min
	}
	if o.Max > b.Max {
		b.Max = o.Max
	}
	b.Sum += o.Sum
	b.N += o.N
}

// Mean returns Sum/N (0 when empty).
func (b Bucket) Mean() float64 {
	if b.N == 0 {
		return 0
	}
	return b.Sum / float64(b.N)
}

// ring is a bounded FIFO of buckets: it grows on demand up to cap, and
// pushing onto a full ring evicts the oldest. Growing lazily keeps a
// short run's series small — a fleet-scale scrape holds tens of
// thousands of series that each see only a handful of samples.
type ring struct {
	buf     []Bucket
	cap     int
	start   int
	evicted bool
}

func newRing(cap int) ring {
	if cap < 1 {
		cap = 1
	}
	return ring{cap: cap}
}

func (r *ring) push(b Bucket) {
	if len(r.buf) < r.cap {
		// Not yet full, so nothing has wrapped: start is 0.
		r.buf = append(r.buf, b)
		return
	}
	r.buf[r.start] = b
	r.start = (r.start + 1) % r.cap
	r.evicted = true
}

// at returns the i-th retained bucket, oldest first.
func (r *ring) at(i int) Bucket { return r.buf[(r.start+i)%len(r.buf)] }

func (r *ring) len() int { return len(r.buf) }

// TieredSeries is a bounded time series with a retention ladder: every
// sample lands in the raw ring; each 10 samples fold into one mid-tier
// bucket; each 100 into one coarse bucket. Memory is bounded by the
// tier caps regardless of run length, and windowed queries answer
// from the finest tier that still retains the window's start — recent
// windows get raw resolution, old ones a downsampled summary, exactly
// the trade a production monitoring store makes.
type TieredSeries struct {
	Name string

	raw, mid, coarse    ring
	midAcc, coarseAcc   Bucket
	midFill, coarseFill int
	total               uint64
}

// Downsampling fan-in per tier: 10 raw buckets per mid bucket, 10 mid
// (= 100 raw) per coarse bucket.
const (
	midFold    = 10
	coarseFold = 100
)

// NewTieredSeries builds a series with the given per-tier capacities
// (buckets retained; non-positive caps default to 1).
func NewTieredSeries(name string, rawCap, midCap, coarseCap int) *TieredSeries {
	return &TieredSeries{
		Name: name,
		raw:  newRing(rawCap), mid: newRing(midCap), coarse: newRing(coarseCap),
	}
}

// Record appends one sample. now must be monotonically non-decreasing
// across calls (scrape cadence guarantees it).
func (t *TieredSeries) Record(now simtime.Time, v float64) {
	var b Bucket
	b.add(now, v)
	t.raw.push(b)
	t.total++

	t.midAcc.add(now, v)
	if t.midFill++; t.midFill == midFold {
		t.mid.push(t.midAcc)
		t.midAcc, t.midFill = Bucket{}, 0
	}
	t.coarseAcc.add(now, v)
	if t.coarseFill++; t.coarseFill == coarseFold {
		t.coarse.push(t.coarseAcc)
		t.coarseAcc, t.coarseFill = Bucket{}, 0
	}
}

// Total returns how many samples were ever recorded (including ones
// already evicted from every ring).
func (t *TieredSeries) Total() uint64 { return t.total }

// Last returns the most recent raw sample.
func (t *TieredSeries) Last() (Bucket, bool) {
	if t.raw.len() == 0 {
		return Bucket{}, false
	}
	return t.raw.at(t.raw.len() - 1), true
}

// covers reports whether the ring's retained span reaches back to from.
// A ring that has never evicted retains its full history, so it covers
// any from — even one before its oldest bucket's Start (e.g. from=0
// against a series whose first sample landed later).
func covers(r *ring, from simtime.Time) bool {
	return r.len() > 0 && (!r.evicted || r.at(0).Start <= from)
}

// Window aggregates every retained sample in [from, to], answering from
// the finest tier that still covers from (raw, then mid, then coarse;
// best-effort from the longest-retention tier when even coarse has
// evicted the window's start). Windows answered from a downsampled tier
// also fold in that tier's pending accumulator, so the samples recorded
// since the last complete fold are never dropped from the aggregate.
func (t *TieredSeries) Window(from, to simtime.Time) Bucket {
	r := &t.coarse
	switch {
	case covers(&t.raw, from):
		r = &t.raw
	case covers(&t.mid, from):
		r = &t.mid
	case t.coarse.len() == 0:
		// Nothing folded to coarse yet: fall back toward the finest
		// non-empty tier.
		if t.mid.len() > 0 {
			r = &t.mid
		} else {
			r = &t.raw
		}
	}
	var out Bucket
	for i := 0; i < r.len(); i++ {
		b := r.at(i)
		if b.End < from || b.Start > to {
			continue
		}
		out.merge(b)
	}
	pending := Bucket{}
	switch r {
	case &t.mid:
		pending = t.midAcc
	case &t.coarse:
		pending = t.coarseAcc
	}
	if pending.N > 0 && pending.End >= from && pending.Start <= to {
		out.merge(pending)
	}
	return out
}

// Tiers returns the retained bucket counts (raw, mid, coarse) — the
// memory footprint check.
func (t *TieredSeries) Tiers() (int, int, int) {
	return t.raw.len(), t.mid.len(), t.coarse.len()
}
