package experiments

import (
	"strings"
	"testing"

	"rocesim/internal/sim"
	"rocesim/internal/simtime"
)

// TestStormPauseSeriesMatchesDeviceCounters: RunStorm's pause peak and
// aggregate sparkline series are the per-interval deltas of every
// device's "<dev>/pause_rx" total. The reference reads the registry
// itself at each interval boundary, after that instant's work (the
// observer band), so it shares nothing with the health scraper. The
// per-port labelled keys ("…/pause_rx{port=N}") break those totals
// down and must not be added in again.
func TestStormPauseSeriesMatchesDeviceCounters(t *testing.T) {
	const interval = 10 * simtime.Millisecond
	cfg := DefaultStorm(false)
	cfg.Duration = 40 * simtime.Millisecond
	var totals []float64
	var peak float64
	labelled := false
	cfg.Observe = func(k *sim.Kernel) {
		last := map[string]float64{}
		var sample func()
		sample = func() {
			k.AfterObserve(interval, sample)
			total := 0.0
			for _, e := range k.Metrics().Snapshot().Entries {
				if strings.Contains(e.Key, "/pause_rx{") && e.Value > 0 {
					labelled = true
				}
				if !strings.HasSuffix(e.Key, "/pause_rx") {
					continue
				}
				delta := e.Value - last[e.Key]
				last[e.Key] = e.Value
				total += delta
				if delta > peak {
					peak = delta
				}
			}
			totals = append(totals, total)
		}
		k.AfterObserve(interval, sample)
	}
	r := RunStorm(cfg)

	if !labelled {
		t.Fatal("storm produced no labelled per-port pause_rx counts; the test cannot tell totals from breakdowns")
	}
	got := r.StormPauseSeries.Samples
	if len(got) != 4 || len(totals) != 4 {
		t.Fatalf("%d series samples, %d reference intervals; want 4 each", len(got), len(totals))
	}
	for i := range got {
		if got[i] != totals[i] {
			t.Fatalf("interval %d: series %g, device pause_rx deltas sum to %g", i, got[i], totals[i])
		}
	}
	if peak == 0 || r.PauseRxPeak != peak {
		t.Fatalf("PauseRxPeak = %g, largest device delta %g", r.PauseRxPeak, peak)
	}
}
