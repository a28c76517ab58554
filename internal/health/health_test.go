package health

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rocesim/internal/flighttrace"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/stats"
	"rocesim/internal/telemetry"
	"rocesim/internal/topology"
)

// TestTieredSeriesFoldAndWindow records a known ramp and checks the
// retention ladder: raw ring bounded, 10 raw per mid bucket, 100 per
// coarse, and windowed aggregates matching brute force while the window
// stays inside raw retention.
func TestTieredSeriesFoldAndWindow(t *testing.T) {
	ts := NewTieredSeries("x", 50, 20, 10)
	tick := 10 * simtime.Millisecond
	for i := 1; i <= 1000; i++ {
		ts.Record(simtime.Time(tick*simtime.Duration(i)), float64(i))
	}
	raw, mid, coarse := ts.Tiers()
	if raw != 50 {
		t.Fatalf("raw retained %d, want cap 50", raw)
	}
	if mid != 20 {
		t.Fatalf("mid retained %d, want cap 20", mid)
	}
	if coarse != 10 {
		t.Fatalf("coarse retained %d, want 10 (1000 samples / 100)", coarse)
	}
	if ts.Total() != 1000 {
		t.Fatalf("total %d", ts.Total())
	}

	// Recent window (inside raw retention): exact.
	from, to := simtime.Time(tick*991), simtime.Time(tick*1000)
	b := ts.Window(from, to)
	if b.N != 10 || b.Min != 991 || b.Max != 1000 || b.Sum != (991+1000)*10/2 {
		t.Fatalf("raw window = %+v", b)
	}

	// Older window (raw evicted, mid retains 20 buckets = samples
	// 801..1000): answered from the mid tier with full-bucket granularity.
	from = simtime.Time(tick * 805)
	b = ts.Window(from, simtime.Time(tick*1000))
	if b.N < 190 || b.N > 200 {
		t.Fatalf("mid window N = %d, want ~196 (bucket granularity)", b.N)
	}
	if b.Max != 1000 {
		t.Fatalf("mid window max = %g", b.Max)
	}

	// Ancient window: only coarse can reach back; best effort.
	b = ts.Window(simtime.Time(tick*50), simtime.Time(tick*1000))
	if b.N != 1000 {
		t.Fatalf("coarse window N = %d, want 1000 (coarse retains all 10 buckets)", b.N)
	}
	if b.Sum != 1000*1001/2 {
		t.Fatalf("coarse window sum = %g", b.Sum)
	}

	if _, ok := NewTieredSeries("empty", 4, 4, 4).Last(); ok {
		t.Fatal("empty series has a last sample")
	}
}

// TestWindowBeforeHistoryStart is the regression for the report
// aggregate bug: a whole-run query (from=0) against a series whose raw
// ring never evicted must answer from raw with every sample — including
// the tail not yet folded into mid/coarse — not fall through to a
// downsampled tier holding only complete 10/100-sample folds.
func TestWindowBeforeHistoryStart(t *testing.T) {
	ts := NewTieredSeries("x", 64, 32, 16)
	tick := 10 * simtime.Millisecond
	for i := 1; i <= 16; i++ {
		ts.Record(simtime.Time(tick*simtime.Duration(i)), float64(i))
	}
	b := ts.Window(0, 1<<62)
	if b.N != 16 {
		t.Fatalf("whole-run window N = %d, want 16", b.N)
	}
	if b.Sum != 16*17/2 || b.Max != 16 {
		t.Fatalf("whole-run window = %+v", b)
	}
}

// TestWindowIncludesPendingFold: when raw has evicted and a query falls
// to the mid tier, the samples recorded since the last complete mid
// fold (sitting in the pending accumulator) still count.
func TestWindowIncludesPendingFold(t *testing.T) {
	ts := NewTieredSeries("x", 5, 32, 16)
	tick := 10 * simtime.Millisecond
	for i := 1; i <= 16; i++ {
		ts.Record(simtime.Time(tick*simtime.Duration(i)), float64(i))
	}
	// Raw (cap 5) evicted samples 1..11; mid never evicted, holding one
	// complete fold (1..10) plus six pending samples (11..16).
	b := ts.Window(0, 1<<62)
	if b.N != 16 {
		t.Fatalf("mid-tier window N = %d, want 16 (10 folded + 6 pending)", b.N)
	}
	if b.Sum != 16*17/2 || b.Max != 16 {
		t.Fatalf("mid-tier window = %+v", b)
	}
}

// TestScraperDeltasAndObserverBand drives counters from normal events
// and checks (a) counters scrape as per-interval deltas, (b) a counter
// bump scheduled at exactly the scrape instant is visible to that
// scrape — the observer band guarantees scrape-after-work ordering even
// for same-instant events, regardless of scheduling order.
func TestScraperDeltasAndObserverBand(t *testing.T) {
	k := sim.NewKernel(5)
	ctr := k.Metrics().Counter("tor-0/pause_rx")
	sc := NewScraper(k, ScrapeConfig{Interval: 10 * simtime.Millisecond})
	sc.Start()
	// Bump at exactly the second scrape instant (20ms), scheduled before
	// the scraper ever ran: still seen by the 20ms scrape.
	k.At(simtime.Time(20*simtime.Millisecond), func() { ctr.Add(7) })
	k.At(simtime.Time(25*simtime.Millisecond), func() { ctr.Add(3) })
	var probeVal float64
	sc.Probe("probe/depth", func() float64 { return probeVal })
	k.At(simtime.Time(12*simtime.Millisecond), func() { probeVal = 42 })

	k.RunUntil(simtime.Time(30 * simtime.Millisecond))
	if sc.Scrapes != 3 {
		t.Fatalf("scrapes = %d, want 3", sc.Scrapes)
	}
	s := sc.Series["tor-0/pause_rx"]
	if s == nil {
		t.Fatal("counter not scraped")
	}
	want := []float64{0, 7, 3}
	for i, w := range want {
		if got := s.raw.at(i).Sum; got != w {
			t.Fatalf("delta[%d] = %g, want %g", i, got, w)
		}
	}
	p := sc.Series["probe/depth"]
	if p == nil || p.raw.at(0).Sum != 0 || p.raw.at(1).Sum != 42 {
		t.Fatalf("probe series wrong: %+v", p)
	}
}

// TestScraperFilter: filtered-out keys never grow series.
func TestScraperFilter(t *testing.T) {
	k := sim.NewKernel(6)
	k.Metrics().Counter("tor-0/pause_rx").Add(1)
	k.Metrics().Counter("tor-0/tx_frames").Add(1)
	sc := NewScraper(k, ScrapeConfig{
		Interval: simtime.Millisecond,
		Filter:   func(key string) bool { return strings.HasSuffix(key, "/pause_rx") },
	})
	sc.Start()
	k.RunUntil(simtime.Time(5 * simtime.Millisecond))
	if _, ok := sc.Series["tor-0/tx_frames"]; ok {
		t.Fatal("filtered key scraped")
	}
	if _, ok := sc.Series["tor-0/pause_rx"]; !ok {
		t.Fatal("selected key not scraped")
	}
}

// TestEngineBurnRateHysteresis drives a pause counter through calm,
// storm and recovery, checking breach timing, the announcement bus, the
// clear, and FirstBreachAfter.
func TestEngineBurnRateHysteresis(t *testing.T) {
	k := sim.NewKernel(7)
	ctr := k.Metrics().Counter("tor-0/pause_rx")
	sc := NewScraper(k, ScrapeConfig{Interval: 10 * simtime.Millisecond})
	e := NewEngine(k, sc)
	e.Add(Objective{
		Name: "pause-ceiling", Bad: OverDelta(sc, "/pause_rx", 100),
		Budget: 0.25, ShortWindow: 10 * simtime.Millisecond,
		LongWindow: 40 * simtime.Millisecond, Burn: 2, ClearAfter: 2,
	})
	sc.Start()

	var announced []SLOAlert
	k.OnAnnounce(func(v any) {
		if a, ok := v.(SLOAlert); ok {
			announced = append(announced, a)
		}
	})

	// Storm from 35ms to 65ms: scrapes at 40/50/60ms see deltas ≥ 100.
	storm := k.NewTicker(simtime.Millisecond, func() {
		now := k.Now()
		if now > simtime.Time(35*simtime.Millisecond) && now < simtime.Time(65*simtime.Millisecond) {
			ctr.Add(20)
		}
	})
	defer storm.Stop()
	k.RunUntil(simtime.Time(120 * simtime.Millisecond))

	// Short window (1 scrape) hits burn 4 at 40ms; long window (4
	// scrapes at the half-open (now-w, now] boundary) needs two bad
	// scrapes to burn 2/4/0.25 = 2 → breach at 50ms. The single bad
	// scrape at 40ms burns the long window at only 1/4/0.25 = 1: a
	// blip cannot page.
	breachAt := simtime.Time(50 * simtime.Millisecond)
	if at, ok := e.FirstBreachAfter(0); !ok || at != breachAt {
		t.Fatalf("first breach = %v,%v, want %v", at, ok, breachAt)
	}
	if e.Breached() {
		t.Fatal("breach still open after recovery")
	}
	if !e.EverBreached() {
		t.Fatal("EverBreached lost the breach")
	}
	if len(e.Alerts) != 2 || e.Alerts[0].Cleared || !e.Alerts[1].Cleared {
		t.Fatalf("alerts = %+v", e.Alerts)
	}
	if len(announced) != 2 {
		t.Fatalf("bus saw %d alerts, want 2", len(announced))
	}
	if _, ok := e.FirstBreachAfter(simtime.Time(60 * simtime.Millisecond)); ok {
		t.Fatal("FirstBreachAfter found a breach after the storm")
	}
	st := e.Status()
	if len(st) != 1 || !st[0].EverBreached || st[0].Breaches != 1 ||
		st[0].FirstBreachNs != int64(50*1e6) {
		t.Fatalf("status = %+v", st)
	}
}

// TestLatencyOverBadness: the sketch-delta badness function reports the
// over-target fraction per interval and 0 on idle intervals.
func TestLatencyOverBadness(t *testing.T) {
	sk := stats.NewSketch(0)
	bad := LatencyOver(sk, 1000)
	if got := bad(0); got != 0 {
		t.Fatalf("idle interval badness = %g", got)
	}
	for i := 0; i < 8; i++ {
		sk.Observe(500)
	}
	sk.Observe(5000)
	sk.Observe(6000)
	if got := bad(0); got < 0.15 || got > 0.25 {
		t.Fatalf("badness = %g, want ~0.2", got)
	}
	if got := bad(0); got != 0 {
		t.Fatalf("second read must see no new samples: %g", got)
	}
}

// TestBelowBadness: goodput-floor badness is binary on the sampled rate.
func TestBelowBadness(t *testing.T) {
	rate := 100.0
	bad := Below(func() float64 { return rate }, 50)
	if bad(0) != 0 {
		t.Fatal("healthy rate flagged")
	}
	rate = 10
	if bad(0) != 1 {
		t.Fatal("starved rate not flagged")
	}
}

// TestHeatmapRenderAndReportDiff builds a 2×2 heatmap by hand, renders
// it, snapshots a report twice (byte-identical), and diffs against a
// perturbed baseline.
func TestHeatmapRenderAndReportDiff(t *testing.T) {
	a := &topology.Server{TorIdx: 0}
	b := &topology.Server{TorIdx: 1}
	h := NewHeatmap(2, func(s *topology.Server) int { return s.TorIdx }, nil)
	for i := 0; i < 100; i++ {
		h.Observe(a, b, simtime.Duration(4*simtime.Microsecond), true)
		h.Observe(b, a, simtime.Duration(6*simtime.Microsecond), true)
	}
	h.Observe(a, b, 0, false)
	out := h.Render()
	if !strings.Contains(out, "!1") {
		t.Fatalf("failure marker missing:\n%s", out)
	}
	if !strings.Contains(out, "6.0") {
		t.Fatalf("p99 cell missing:\n%s", out)
	}
	p99, probes, fails := h.CellP99(0, 1)
	if probes != 101 || fails != 1 || p99 < 3.9e6 || p99 > 4.1e6 {
		t.Fatalf("cell = %g/%d/%d", p99, probes, fails)
	}

	mk := func() *Report {
		r := NewReport("test", 1)
		r.DurationNs = 1e9
		sk := stats.NewSketch(0)
		sk.Observe(1000)
		r.AddSketch("rtt", sk)
		r.AddHeatmap(h)
		return r
	}
	r1, r2 := mk(), mk()
	if r1.Text() != r2.Text() {
		t.Fatal("report text not deterministic")
	}
	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := r2.JSON()
	if string(j1) != string(j2) {
		t.Fatal("report JSON not deterministic")
	}
	if d := r1.Diff(r2, 0.01); len(d) != 0 {
		t.Fatalf("self-diff = %v", d)
	}

	// Perturb the baseline: breach flip + p99 shift beyond tolerance.
	base := mk()
	base.Breached = true
	base.Sketches[0].P99 *= 2
	base.Heatmap[0][1].Fails = 0
	d := r1.Diff(base, 0.01)
	if len(d) != 3 {
		t.Fatalf("diff = %v, want 3 drifts", d)
	}

	// Set drift must be symmetric: a renamed sketch registers both as
	// new-in-report and missing-from-baseline, and relabeled heatmap
	// groups register per label.
	base = mk()
	base.Sketches[0].Name = "fct"
	base.HeatLabels[1] = "pod-9"
	d = r1.Diff(base, 0.01)
	want := []string{"sketch rtt: not in baseline", "sketch fct: missing from report",
		"heatmap label[1]"}
	for _, w := range want {
		found := false
		for _, line := range d {
			if strings.Contains(line, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("diff missing %q: %v", w, d)
		}
	}
}

// TestTieredSeriesHoldsOnlyRecordedSamples: rings grow on demand, so a
// series that saw fewer samples than its caps holds exactly those — a
// fleet-scale scrape keeps tens of thousands of short series.
func TestTieredSeriesHoldsOnlyRecordedSamples(t *testing.T) {
	ts := NewTieredSeries("x", 512, 256, 256)
	for i := 1; i <= 3; i++ {
		ts.Record(simtime.Time(i), float64(i))
	}
	if raw, mid, coarse := ts.Tiers(); raw != 3 || mid != 0 || coarse != 0 {
		t.Fatalf("tiers = %d/%d/%d, want 3/0/0", raw, mid, coarse)
	}
	if c := cap(ts.raw.buf); c < 3 || c >= 512 {
		t.Fatalf("raw ring allocated %d buckets for 3 samples", c)
	}
	if ts.mid.buf != nil || ts.coarse.buf != nil {
		t.Fatal("downsampled tiers allocated before their first fold")
	}
	if b := ts.Window(0, 1<<62); b.N != 3 || b.Sum != 6 {
		t.Fatalf("window = %+v", b)
	}
}

// detector wires the per-interval incident rule the chaos campaign
// scores with: one objective whose short and long windows both span a
// single scrape, so a scrape with any device's pause_rx delta ≥ max
// breaches at once, and clearAfter calm scrapes clear it. It returns the
// engine and the device counter to drive.
func detector(k *sim.Kernel, max float64, clearAfter int) (*Engine, *telemetry.Counter) {
	ctr := k.Metrics().Counter("dev/pause_rx")
	sc := NewScraper(k, ScrapeConfig{Interval: 10 * simtime.Millisecond})
	e := NewEngine(k, sc)
	e.Add(Objective{
		Name: "incident", Bad: OverDelta(sc, "/pause_rx", max),
		LongWindow: sc.Interval(), ClearAfter: clearAfter,
	})
	sc.Start()
	return e, ctr
}

// addAt bumps ctr by n at the given offset.
func addAt(k *sim.Kernel, ctr *telemetry.Counter, at simtime.Duration, n uint64) {
	k.After(at, func() { ctr.Add(n) })
}

// breachTimes lists the engine's breach (not clear) instants in ms.
func breachTimes(e *Engine) []int64 {
	var out []int64
	for _, a := range e.Alerts {
		if !a.Cleared {
			out = append(out, int64(a.At/simtime.Time(simtime.Millisecond)))
		}
	}
	return out
}

// TestDetectorAlertsOnFirstOverScrape: a delta below the threshold never
// pages; the first scrape at or over it does, on that very scrape.
func TestDetectorAlertsOnFirstOverScrape(t *testing.T) {
	k := sim.NewKernel(10)
	e, ctr := detector(k, 100, 2)
	addAt(k, ctr, 1*simtime.Millisecond, 99)   // 10ms scrape: 99, calm
	addAt(k, ctr, 21*simtime.Millisecond, 100) // 30ms scrape: 100, breach
	k.RunUntil(simtime.Time(25 * simtime.Millisecond))
	if e.EverBreached() {
		t.Fatalf("below-threshold scrape paged: %+v", e.Alerts)
	}
	k.RunUntil(simtime.Time(30 * simtime.Millisecond))
	if got := breachTimes(e); len(got) != 1 || got[0] != 30 || !e.Breached() {
		t.Fatalf("breaches at %v ms, want [30]", got)
	}
	if st := e.Status(); st[0].FirstBreachNs != 30e6 {
		t.Fatalf("status = %+v", st)
	}
}

// TestDetectorClearsAfterCalmScrapes: an open incident survives fewer
// than ClearAfter calm scrapes, a hot scrape resets the calm count, and
// the ClearAfter-th consecutive calm scrape clears it.
func TestDetectorClearsAfterCalmScrapes(t *testing.T) {
	k := sim.NewKernel(11)
	e, ctr := detector(k, 100, 3)
	// Hot at 10ms and 30ms; calm at 20ms and from 40ms on.
	addAt(k, ctr, 1*simtime.Millisecond, 150)
	addAt(k, ctr, 21*simtime.Millisecond, 150)
	k.RunUntil(simtime.Time(50 * simtime.Millisecond))
	if !e.Breached() {
		t.Fatal("cleared after two calm scrapes (ClearAfter=3)")
	}
	k.RunUntil(simtime.Time(60 * simtime.Millisecond))
	if e.Breached() || len(e.Alerts) != 2 || !e.Alerts[1].Cleared ||
		e.Alerts[1].At != simtime.Time(60*simtime.Millisecond) {
		t.Fatalf("want one breach at 10ms cleared at 60ms, alerts = %+v", e.Alerts)
	}
}

// TestDetectorBackToBackIncidents: a storm inside an open incident's
// calm stretch folds into it, and every storm after a genuine clear
// pages again.
func TestDetectorBackToBackIncidents(t *testing.T) {
	k := sim.NewKernel(12)
	e, ctr := detector(k, 100, 2)
	for _, ms := range []simtime.Duration{
		1,      // storm 1: breach at 10ms
		21,     // 20ms calm, 30ms hot: still the same incident
		51, 61, // 40,50ms calm: clear at 50ms; storm 2 hot at 60,70ms
		101, // 80,90ms calm: clear at 90ms; storm 4 at 110ms
	} {
		addAt(k, ctr, ms*simtime.Millisecond, 150)
	}
	k.RunUntil(simtime.Time(150 * simtime.Millisecond))
	if got := breachTimes(e); len(got) != 3 || got[0] != 10 || got[1] != 60 || got[2] != 110 {
		t.Fatalf("breaches at %v ms, want [10 60 110]", got)
	}
	if st := e.Status(); st[0].Breaches != 3 || e.Breached() {
		t.Fatalf("status = %+v", st)
	}
}

// TestDumpOnBreach takes a flight-recorder dump from a bus subscriber
// the moment an objective breaches: the dump holds what was in flight
// when the incident opened, not what happened after.
func TestDumpOnBreach(t *testing.T) {
	k := sim.NewKernel(13)
	e, ctr := detector(k, 100, 2)
	rec := flighttrace.NewRecorder(64).Attach(k.Trace(), telemetry.EvAll)
	var dump bytes.Buffer
	k.OnAnnounce(func(v any) {
		if a, ok := v.(SLOAlert); ok && !a.Cleared {
			fmt.Fprintf(&dump, "=== %s — flight recorder dump ===\n", a)
			if err := rec.WriteText(&dump); err != nil {
				t.Fatal(err)
			}
		}
	})
	k.After(1*simtime.Millisecond, func() {
		k.Trace().Emit(telemetry.Event{Type: telemetry.EvPauseXOFF, Node: "dev", Port: 2, Pri: 3})
		ctr.Add(500)
	})
	k.After(15*simtime.Millisecond, func() {
		k.Trace().Emit(telemetry.Event{Type: telemetry.EvPauseXON, Node: "late", Port: 2, Pri: 3})
	})
	k.RunUntil(simtime.Time(20 * simtime.Millisecond))
	if !e.Breached() {
		t.Fatal("storm did not breach")
	}
	out := dump.String()
	for _, want := range []string{"BREACH incident at 10ms", "flight recorder dump", "pause-xoff", "dev"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "late") {
		t.Fatalf("dump holds an event from after the breach:\n%s", out)
	}
}
