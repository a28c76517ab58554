package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	// 1..10000 uniformly: pX should be close to X% of 10000.
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		want := q * 10000
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("q%.3f = %.1f, want %.1f (±3%%)", q, got, want)
		}
	}
	if h.Count() != 10000 {
		t.Fatalf("count %d", h.Count())
	}
	if math.Abs(h.Mean()-5000.5) > 0.01 {
		t.Fatalf("mean %f", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 10000 {
		t.Fatalf("min/max %f/%f", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should return zeros")
	}
	xs, ys := h.CDF()
	if xs != nil || ys != nil {
		t.Fatal("empty CDF")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("q%.1f of single sample = %f", q, got)
		}
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-5)
	h.Observe(10)
	if h.Count() != 3 {
		t.Fatal("all samples must be recorded")
	}
	if h.Min() != -5 {
		t.Fatalf("min %f", h.Min())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 500; i++ {
		a.Observe(float64(i))
	}
	for i := 501; i <= 1000; i++ {
		b.Observe(float64(i))
	}
	a.Merge(b)
	if a.Count() != 1000 {
		t.Fatalf("merged count %d", a.Count())
	}
	got := a.Quantile(0.5)
	if math.Abs(got-500)/500 > 0.05 {
		t.Fatalf("merged median %f", got)
	}
	a.Merge(nil) // no-op
	if a.Count() != 1000 {
		t.Fatal("nil merge changed count")
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	h := NewHistogram()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h.Observe(r.ExpFloat64() * 100)
	}
	xs, ys := h.CDF()
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] || ys[i] < ys[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
	if ys[len(ys)-1] != 1 {
		t.Fatalf("CDF must end at 1, got %f", ys[len(ys)-1])
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	h.Observe(90e6) // 90us in ps
	s := h.Summary(1e6, "us")
	if s == "" {
		t.Fatal("empty summary")
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "pause", Interval: 1}
	for _, v := range []float64{0, 5, 2, 8, 1} {
		s.Record(v)
	}
	if len(s.Samples) != 5 || s.Samples[3] != 8 {
		t.Fatalf("samples %v", s.Samples)
	}
	if got := s.Sparkline(0); len([]rune(got)) != 5 {
		t.Fatalf("sparkline %q", got)
	}
	if got := s.Sparkline(3); len([]rune(got)) != 3 {
		t.Fatalf("downsampled sparkline %q", got)
	}
}

func TestSeriesSparklineKeepsSpikes(t *testing.T) {
	s := &Series{}
	for i := 0; i < 100; i++ {
		s.Record(0)
	}
	s.Samples[50] = 100 // single spike
	got := s.Sparkline(10)
	found := false
	for _, r := range got {
		if r == '█' {
			found = true
		}
	}
	if !found {
		t.Fatalf("spike lost in downsampling: %q", got)
	}
}

// Property: quantile is within gamma-bounded relative error for any
// positive sample set.
func TestQuantileBoundProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r%1000000) + 1
			h.Observe(vals[i])
		}
		got := h.Quantile(1.0)
		max := 0.0
		for _, v := range vals {
			if v > max {
				max = v
			}
		}
		return got == max // q=1 clamps to exact max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram()
		for _, r := range raw {
			h.Observe(float64(r) + 1)
		}
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramQuantileErrorBound checks the documented contract: with
// gamma = 1.02 buckets, any reported quantile is within one bucket of
// the true sample quantile, i.e. relative error < 2% — across
// distributions spanning many decades, not just uniform ones.
func TestHistogramQuantileErrorBound(t *testing.T) {
	const gamma = 1.02
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() float64{
		// Log-uniform over 6 decades: nanoseconds to milliseconds.
		"loguniform": func() float64 { return math.Pow(10, rng.Float64()*6) },
		// Exponential with a heavy tail.
		"exponential": func() float64 { return rng.ExpFloat64() * 1e4 },
	}
	for name, draw := range dists {
		h := NewHistogram()
		samples := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := draw()
			samples = append(samples, v)
			h.Observe(v)
		}
		sort.Float64s(samples)
		for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
			rank := int(math.Ceil(q*float64(len(samples)))) - 1
			if rank < 0 {
				rank = 0
			}
			truth := samples[rank]
			got := h.Quantile(q)
			ratio := got / truth
			if ratio < 1/gamma-1e-9 || ratio > gamma+1e-9 {
				t.Errorf("%s q%.3f: got %.4g, true %.4g (ratio %.4f outside [1/%.2f, %.2f])",
					name, q, got, truth, ratio, gamma, gamma)
			}
		}
	}
}
