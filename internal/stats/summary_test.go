package stats

import (
	"math"
	"math/big"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{5})
	if s.N != 1 || s.Mean != 5 || s.Min != 5 || s.Max != 5 || s.P50 != 5 {
		t.Fatalf("single summary wrong: %+v", s)
	}
	if s.Std != 0 {
		t.Fatalf("single-element std should be 0, got %v", s.Std)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 {
		t.Errorf("mean = %v, want 3", s.Mean)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("std = %v, want sqrt(2.5)", s.Std)
	}
	if s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("order stats wrong: %+v", s)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if q := Quantile(sorted, 0.5); q != 5 {
		t.Errorf("median of {0,10} = %v, want 5", q)
	}
	if q := Quantile(sorted, 0); q != 0 {
		t.Errorf("q0 = %v, want 0", q)
	}
	if q := Quantile(sorted, 1); q != 10 {
		t.Errorf("q1 = %v, want 10", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("quantile of empty sample should be NaN")
	}
}

func TestMeanCI95Contains(t *testing.T) {
	xs := make([]float64, 1000)
	r := NewRNG(3)
	for i := range xs {
		xs[i] = r.Float64()
	}
	lo, hi := Summarize(xs).MeanCI95()
	if !(lo < 0.5 && 0.5 < hi) {
		t.Errorf("CI [%v,%v] should contain true mean 0.5 for this seed", lo, hi)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Errorf("bin %d count %d, want 1", i, c)
		}
	}
	h.Add(-1)
	h.Add(10)
	h.Add(100)
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("under=%d over=%d, want 1 and 2", h.Under, h.Over)
	}
	if h.Total != 13 {
		t.Errorf("total=%d, want 13", h.Total)
	}
	if got := h.BinCenter(0); got != 0.5 {
		t.Errorf("BinCenter(0)=%v, want 0.5", got)
	}
	if f := h.Fraction(0); math.Abs(f-1.0/13) > 1e-12 {
		t.Errorf("Fraction(0)=%v", f)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for hi <= lo")
		}
	}()
	NewHistogram(1, 1, 5)
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	out := s.String()
	for _, want := range []string{"n=3", "mean=2", "min=1", "max=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q missing %q", out, want)
		}
	}
}

func TestHistogramFractionEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	if h.Fraction(0) != 0 {
		t.Error("empty histogram fraction should be 0")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Add("a", 2)
	c.Add("b", 1)
	c.Add("a", 3)
	if c.Get("a") != 5 || c.Get("b") != 1 || c.Get("zzz") != 0 {
		t.Fatalf("counter values wrong: a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	labels := c.Labels()
	if len(labels) != 2 || labels[0] != "a" || labels[1] != "b" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestZipfDistribution(t *testing.T) {
	r := NewRNG(77)
	z := NewZipf(100, 1.0)
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	const trials = 200000
	counts := make([]int, 100)
	for i := 0; i < trials; i++ {
		counts[z.Sample(r)]++
	}
	// Item 0 should be about twice as frequent as item 1 for s=1.
	ratio := float64(counts[0]) / float64(counts[1])
	if math.Abs(ratio-2) > 0.15 {
		t.Errorf("count(0)/count(1) = %.3f, want ~2", ratio)
	}
	// Probabilities must sum to 1.
	sum := 0.0
	for i := 0; i < 100; i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(100) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

func TestZipfUniformCase(t *testing.T) {
	z := NewZipf(10, 0)
	for i := 0; i < 10; i++ {
		if math.Abs(z.Prob(i)-0.1) > 1e-9 {
			t.Errorf("Prob(%d) = %v, want 0.1", i, z.Prob(i))
		}
	}
}

// Property: Summarize respects min <= p50 <= max and mean within [min,max].
func TestQuickSummaryOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return Quantile(xs, a) <= Quantile(xs, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSummarizeCountsMatchesSummarize holds SummarizeCounts to Summarize of
// the sample its counts stand for, expanded in shuffled order (Summarize
// sorts its own copy): exact equality where the arithmetic is exact, and
// Std/StdErr to rounding. The rounding is Summarize's: it adds n squared
// deviations one by one, which drifts by up to n·2⁻⁵³ of the sum — a few
// 1e-12 at 10⁶ copies — so beyond 1e-12 the tolerance is that bound, and the
// count form is held to the exactly computed value instead.
func TestSummarizeCountsMatchesSummarize(t *testing.T) {
	cases := map[string][]int64{
		"empty":             nil,
		"all zero":          {0, 0, 0},
		"n = 1":             {0, 0, 0, 1},
		"n = 1 at zero":     {1},
		"single value":      {0, 0, 0, 41},
		"two values":        {0, 1, 1},
		"gaps":              {0, 0, 0, 7, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},
		"trailing zeros":    {3, 0, 5, 0, 0},
		"p99 between two":   {0, 0, 0, 99, 1},
		"million-copy pair": {0, 0, 0, 1_000_000, 0, 0, 1_000_000, 3},
		"million and one":   {0, 0, 1_000_000, 1},
	}
	rng := NewRNG(19)
	for i := 0; i < 200; i++ {
		counts := make([]int64, 1+rng.Intn(40))
		for v := range counts {
			if rng.Bool(0.6) {
				counts[v] = int64(rng.Intn(1 + rng.Intn(500)))
			}
		}
		cases["random "+string(rune('a'+i%26))+string(rune('a'+i/26))] = counts
	}
	for name, counts := range cases {
		var xs []float64
		for v, c := range counts {
			for ; c > 0; c-- {
				xs = append(xs, float64(v))
			}
		}
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		want, got := Summarize(xs), SummarizeCounts(counts)
		if got.N != want.N || got.Min != want.Min || got.Max != want.Max || got.Mean != want.Mean ||
			got.P50 != want.P50 || got.P90 != want.P90 || got.P99 != want.P99 {
			t.Errorf("%s %v:\ncounts %+v\nsample %+v", name, counts, got, want)
		}
		tol := math.Max(1e-12, float64(len(xs))*0x1p-53)
		for _, pair := range [][2]float64{{got.Std, want.Std}, {got.StdErr, want.StdErr}} {
			if diff := math.Abs(pair[0] - pair[1]); diff > tol*pair[1] {
				t.Errorf("%s: Std/StdErr %v from counts, %v from the sample", name, pair[0], pair[1])
			}
		}
		if len(xs) > 1 {
			ss := new(big.Float).SetPrec(200)
			for v, c := range counts {
				d := new(big.Float).SetPrec(200).Sub(big.NewFloat(float64(v)), big.NewFloat(got.Mean))
				ss.Add(ss, d.Mul(d, d).Mul(d, big.NewFloat(float64(c))))
			}
			exact, _ := ss.Quo(ss, big.NewFloat(float64(len(xs)-1))).Float64()
			if exact = math.Sqrt(exact); math.Abs(got.Std-exact) > 1e-15*exact {
				t.Errorf("%s: Std %v from counts, %v computed exactly", name, got.Std, exact)
			}
		}
	}
}
