package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(123)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("bucket %d count %d deviates too far from %v", i, c, expected)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

// perm shuffles the identity over [0, n) as int32s: the permutation an
// owner table of n slots is read through.
func perm(r *RNG, n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	ShuffleSlice(r, p)
	return p
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := perm(r, n)
		if len(p) != n {
			t.Fatalf("perm(%d) returned %d elements", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				t.Fatalf("perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

// ShuffleSlice must make ShuffleInts' draws whatever the element type: the
// allocation shuffles its int32 owner table with it, and every seeded
// system depends on the holders that gives.
func TestPermMatchesShuffleInts(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 511, 512, 513, 1000, 1025, 40_000} {
		for _, seed := range []uint64{uint64(n) + 3, 1, 0xdeadbeef} {
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			rr := NewRNG(seed)
			for i := n - 1; i > 0; i-- { // Fisher–Yates, one draw per swap
				j := rr.Intn(i + 1)
				want[i], want[j] = want[j], want[i]
			}
			ints := make([]int, n)
			for i := range ints {
				ints[i] = i
			}
			ra, rb := NewRNG(seed), NewRNG(seed)
			rb.ShuffleInts(ints)
			got := perm(ra, n)
			for i := range want {
				if int(got[i]) != want[i] || ints[i] != want[i] {
					t.Fatalf("n=%d, seed %d: [%d] is %d shuffling int32s and %d shuffling ints, the one-draw-per-swap loop gives %d",
						n, seed, i, got[i], ints[i], want[i])
				}
			}
			if x, y, z := ra.Uint64(), rb.Uint64(), rr.Uint64(); x != z || y != z {
				t.Fatalf("n=%d, seed %d: the shuffles leave the generator in different states", n, seed)
			}
		}
	}
}

// refIntn is Intn as it first drew: the rejection threshold computed on
// every call.
func refIntn(r *RNG, n int) int {
	bound := uint64(n)
	threshold := -bound % bound
	for {
		if v := r.Uint64(); v >= threshold {
			return int(v % bound)
		}
	}
}

// Intn computes its rejection threshold only for a draw below the bound.
// Every draw must be unchanged, with the generator left in the same state,
// including bounds near 2^62 where a quarter of the draws are rejected.
func TestIntnDrawsAsThresholdEveryCall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 1000, 1<<31 - 1, 1<<62 + 1, 3 << 61, math.MaxInt64} {
		a, b := NewRNG(uint64(n)), NewRNG(uint64(n))
		for i := 0; i < 20_000; i++ {
			if got, want := a.Intn(n), refIntn(b, n); got != want {
				t.Fatalf("Intn(%d) draw %d = %d, the threshold-first draw is %d", n, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Intn(%d) left the generator in another state", n)
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := NewRNG(99)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[perm(r, n)[0]]++
	}
	expected := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("first-element bucket %d count %d deviates from %v", i, c, expected)
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRNG(11)
	for _, tc := range []struct{ n, k int }{{10, 10}, {10, 3}, {1000, 5}, {100, 90}, {1, 1}, {5, 0}} {
		s := r.SampleWithoutReplacement(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("sample(%d,%d) returned %d items", tc.n, tc.k, len(s))
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= tc.n {
				t.Fatalf("sample value %d out of range [0,%d)", v, tc.n)
			}
			if seen[v] {
				t.Fatalf("duplicate value %d in sample", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when count > n")
		}
	}()
	NewRNG(1).SampleWithoutReplacement(3, 4)
}

func TestWeightedChoice(t *testing.T) {
	r := NewRNG(17)
	weights := []float64{1, 0, 3, 0, 6}
	const trials = 100000
	counts := make([]int, len(weights))
	for i := 0; i < trials; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	if counts[1] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight buckets were chosen: %v", counts)
	}
	// Expect roughly 10% / 30% / 60%.
	for i, want := range map[int]float64{0: 0.1, 2: 0.3, 4: 0.6} {
		got := float64(counts[i]) / trials
		if math.Abs(got-want) > 0.02 {
			t.Errorf("bucket %d frequency %.3f, want ~%.3f", i, got, want)
		}
	}
}

func TestWeightedChoicePanicsAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for all-zero weights")
		}
	}()
	NewRNG(1).WeightedChoice([]float64{0, 0})
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(21)
	for _, mean := range []float64{0.5, 3, 25, 100} {
		const trials = 20000
		sum := 0
		for i := 0; i < trials; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / trials
		if math.Abs(got-mean) > 4*math.Sqrt(mean/trials)+0.6 {
			t.Errorf("Poisson(%v) sample mean %.3f too far off", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(31)
	const trials = 50000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / trials; math.Abs(mean-1) > 0.05 {
		t.Errorf("exponential mean %.3f, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(41)
	const trials = 100000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance %.4f, want ~1", variance)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(55)
	child := parent.Split()
	// The child must be deterministic given the parent state...
	parent2 := NewRNG(55)
	child2 := parent2.Split()
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
	// ...and differ from the parent's continued stream.
	if parent.Uint64() == child.Uint64() {
		t.Error("child stream suspiciously equals parent stream")
	}
}

func TestInt63NonNegative(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if r.Int63() < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(4)
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if f := float64(hits) / trials; math.Abs(f-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency %v", f)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1.1) {
		t.Error("Bool(>1) returned false")
	}
}

func TestShuffleFunc(t *testing.T) {
	r := NewRNG(5)
	xs := []string{"a", "b", "c", "d", "e"}
	orig := append([]string(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := map[string]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	for _, x := range orig {
		if !seen[x] {
			t.Fatalf("shuffle lost element %q", x)
		}
	}
	// Shuffle(0) and Shuffle(1) are no-ops.
	r.Shuffle(0, func(i, j int) { t.Fatal("swap called for n=0") })
	r.Shuffle(1, func(i, j int) { t.Fatal("swap called for n=1") })
}

// Property: Intn never leaves its range, for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ShuffleSlice of the identity is always a valid permutation.
func TestQuickPermValid(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p := perm(NewRNG(seed), n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
