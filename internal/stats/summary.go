package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
	StdErr float64 // standard error of the mean
}

// Summarize computes descriptive statistics. It returns a zero Summary for
// an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
		s.StdErr = s.Std / math.Sqrt(float64(s.N))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = Quantile(sorted, 0.50)
	s.P90 = Quantile(sorted, 0.90)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of an already-sorted
// sample, using linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// SummarizeCounts is Summarize of the sample that holds the value i
// counts[i] times (counts are not negative), in time and memory that depend
// on len(counts) and not on the sample's size. N, Min, Max, Mean and the
// quantiles are bit-identical to Summarize of the expanded sample while its
// sum stays below 2⁵³: integer sums are exact in float64, and a quantile
// interpolates the same two order statistics. Std and StdErr agree to
// rounding (one multiplication per value where Summarize adds copy by copy).
func SummarizeCounts(counts []int64) Summary {
	var n, sum int64
	lo, hi := -1, -1
	for v, c := range counts {
		if c == 0 {
			continue
		}
		if lo < 0 {
			lo = v
		}
		hi = v
		n += c
		sum += int64(v) * c
	}
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: int(n), Min: float64(lo), Max: float64(hi)}
	s.Mean = float64(sum) / float64(n)
	if n > 1 {
		ss := 0.0
		for v := lo; v <= hi; v++ {
			d := float64(v) - s.Mean
			ss += float64(counts[v]) * d * d
		}
		s.Std = math.Sqrt(ss / float64(n-1))
		s.StdErr = s.Std / math.Sqrt(float64(n))
	}
	s.P50 = quantileCounts(counts, n, 0.50)
	s.P90 = quantileCounts(counts, n, 0.90)
	s.P99 = quantileCounts(counts, n, 0.99)
	return s
}

// quantileCounts is Quantile, for 0 < q < 1, over the sorted sample of n
// values that counts describes.
func quantileCounts(counts []int64, n int64, q float64) float64 {
	pos := q * float64(n-1)
	k := int64(math.Floor(pos))
	frac := pos - float64(k)
	// a and b are the order statistics k and k+1 (0-based); b stays at the
	// largest value when k is the last one.
	var a, b float64
	seen := int64(0)
	for v, c := range counts {
		if c == 0 {
			continue
		}
		if seen <= k {
			a = float64(v)
		}
		b = float64(v)
		if seen += c; seen > k+1 {
			break
		}
	}
	if k+1 >= n {
		return b
	}
	return a*(1-frac) + b*frac
}

// String renders the summary compactly for logs and example output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// MeanCI95 returns the 95% normal-approximation confidence interval of the
// mean as (low, high).
func (s Summary) MeanCI95() (float64, float64) {
	delta := 1.96 * s.StdErr
	return s.Mean - delta, s.Mean + delta
}

// Histogram is a fixed-width-bin histogram over a closed interval.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int // samples below Lo
	Over   int // samples at or above Hi
	Total  int
}

// NewHistogram creates a histogram with the given bin count over [lo, hi).
// It panics on invalid arguments.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || !(hi > lo) {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.Total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) { // rounding guard
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Fraction returns the fraction of all observations that landed in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// Counter tallies labeled integer events; used for per-round event
// accounting in simulations.
type Counter struct {
	counts map[string]int64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{counts: make(map[string]int64)} }

// Add increments label by delta.
func (c *Counter) Add(label string, delta int64) { c.counts[label] += delta }

// Get returns the tally for label (0 if never added).
func (c *Counter) Get(label string) int64 { return c.counts[label] }

// Labels returns all labels in sorted order.
func (c *Counter) Labels() []string {
	out := make([]string, 0, len(c.counts))
	for k := range c.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
