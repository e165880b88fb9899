package experiments

import (
	"repro/internal/adversary"
	"repro/internal/allocation"
	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/stats"
	"repro/internal/video"
)

// mixSeed derives a trial seed by hashing the master seed with the trial
// coordinates through a splitmix64 finalizer per word. Linear blends like
// seed + i·p + c collide whenever nearby coordinate pairs trade off
// against each other (e.g. (i, c) vs (i, c+p)); hashing makes every
// coordinate tuple an independent stream.
func mixSeed(seed uint64, words ...uint64) uint64 {
	h := seed
	for _, w := range words {
		h += 0x9e3779b97f4a7c15 ^ w
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// homParams describes a homogeneous simulation configuration.
type homParams struct {
	n, d, c, T int
	u, mu      float64
}

// buildHom constructs a homogeneous system with replication k, trimming
// storage so the catalog is the largest m with k·m·c ≤ n·d·c. It returns
// the system and the achieved catalog size.
func buildHom(seed uint64, p homParams, k int, tweak func(*core.Config)) (*core.System, int, error) {
	storage := make([]float64, p.n)
	for i := range storage {
		storage[i] = float64(p.d)
	}
	slots, m, err := hetero.AllocationSlots(storage, p.c, k)
	if err != nil {
		return nil, 0, err
	}
	cat, err := video.NewCatalog(m, p.c, p.T)
	if err != nil {
		return nil, 0, err
	}
	alloc, err := allocation.Permutation(stats.NewRNG(seed), cat, slots, k)
	if err != nil {
		return nil, 0, err
	}
	uploads := make([]float64, p.n)
	for i := range uploads {
		uploads[i] = p.u
	}
	cfg := core.Config{Alloc: alloc, Uploads: uploads, Mu: p.mu}
	if tweak != nil {
		tweak(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, 0, err
	}
	return sys, m, nil
}

// namedGen pairs an adversary with a label for reports.
type namedGen struct {
	name string
	make func(seed uint64) core.Generator
}

// attackSuite returns the adversarial generators used by the feasibility
// searches. Each construction is fresh per run (generators carry state).
func attackSuite() []namedGen {
	return []namedGen{
		{"flash", func(uint64) core.Generator { return &adversary.FlashCrowd{Target: 0, Rotate: true} }},
		{"distinct", func(uint64) core.Generator { return &adversary.DistinctVideos{} }},
		{"weakest", func(uint64) core.Generator { return &adversary.WeakestVideos{} }},
		{"avoid", func(uint64) core.Generator { return &adversary.AvoidPossession{} }},
		{"churn", func(uint64) core.Generator { return &adversary.Churn{Period: 2, WaveSize: 8} }},
		{"zipf", func(seed uint64) core.Generator {
			return &adversary.Zipf{RNG: stats.NewRNG(seed ^ 0xa5c3), P: 0.5, S: 0.9}
		}},
	}
}

// survives reports whether the system serves the generator for `rounds`
// rounds without any obstruction.
func survives(sys *core.System, gen core.Generator, rounds int) (bool, error) {
	rep, err := sys.Run(gen, rounds)
	if err != nil {
		return false, err
	}
	return !rep.Failed, nil
}

// feasibleAtK tests replication factor k against the whole attack suite
// over `seeds` allocation seeds; any obstruction anywhere fails it. Trials
// run on a worker pool.
func feasibleAtK(o Options, p homParams, k, rounds, seeds int, tweak func(*core.Config)) (bool, error) {
	suite := attackSuite()
	type trial struct {
		seed uint64
		gen  namedGen
	}
	var trials []trial
	for s := 0; s < seeds; s++ {
		// One hashed seed per allocation replica: every generator in the
		// suite attacks the same allocation (by design), but nearby (s, k)
		// coordinates never share a stream.
		for _, g := range suite {
			trials = append(trials, trial{mixSeed(o.Seed, uint64(s), uint64(k)), g})
		}
	}
	ok, err := parallelAll(o.workers(), len(trials), func(i int) (bool, error) {
		tr := trials[i]
		sys, _, err := buildHom(tr.seed, p, k, tweak)
		if err != nil {
			return false, err
		}
		return survives(sys, tr.gen.make(tr.seed), rounds)
	})
	return ok, err
}

// maxFeasibleCatalog binary-searches the smallest surviving replication
// factor k (feasibility is monotone increasing in k) and returns the
// corresponding catalog size m = ⌊dn/k⌋, with 0 when even k = d·n fails.
func maxFeasibleCatalog(o Options, p homParams, rounds, seeds int, tweak func(*core.Config)) (int, int, error) {
	lo, hi := 1, p.d*p.n // k range; m(k=dn) = 1
	okHi, err := feasibleAtK(o, p, hi, rounds, seeds, tweak)
	if err != nil {
		return 0, 0, err
	}
	if !okHi {
		return 0, 0, nil
	}
	for lo < hi {
		mid := (lo + hi) / 2
		ok, err := feasibleAtK(o, p, mid, rounds, seeds, tweak)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	m := p.d * p.n / hi
	return m, hi, nil
}
