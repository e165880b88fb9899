package experiments

import (
	"repro/internal/allocation"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/video"
)

func init() {
	register(Experiment{
		ID:   "E4",
		Name: "obstruction-prob",
		Claim: "the probability that a random allocation admits an obstruction " +
			"vanishes as k grows (Lemmas 3–4, first-moment bound in the Theorem 1 proof)",
		Run: runE4,
	})
}

// buildFixedCatalog builds a homogeneous system with a *fixed* catalog m
// and replication k, spreading the k·m·c replica slots evenly over boxes
// (unlike buildHom, storage usage grows with k here). Used to isolate the
// effect of k at constant catalog.
func buildFixedCatalog(seed uint64, n, m, c, T, k int, u, mu float64, tweak func(*core.Config)) (*core.System, error) {
	total := k * m * c
	slots := make([]int, n)
	base, rem := total/n, total%n
	for i := range slots {
		slots[i] = base
		if i < rem {
			slots[i]++
		}
	}
	cat, err := video.NewCatalog(m, c, T)
	if err != nil {
		return nil, err
	}
	alloc, err := allocation.Permutation(stats.NewRNG(seed), cat, slots, k)
	if err != nil {
		return nil, err
	}
	uploads := make([]float64, n)
	for i := range uploads {
		uploads[i] = u
	}
	cfg := core.Config{Alloc: alloc, Uploads: uploads, Mu: mu}
	if tweak != nil {
		tweak(&cfg)
	}
	return core.NewSystem(cfg)
}

func runE4(o Options) Result {
	// Full mode grew 4× over the seed population now that round cost
	// tracks live work; the attack suite's per-box generators (e.g.
	// AvoidPossession scans every idle box against the catalog) keep n
	// modest here — the large-n regime belongs to the Step benchmarks.
	n := pick(o, 48, 256)
	m := n / 2
	c, T := 4, 20
	u, mu := 1.1, 1.2
	ks := pick(o, []int{1, 2, 4}, []int{1, 2, 3, 4, 6, 8})
	trials := pick(o, 6, 12)
	rounds := pick(o, 60, 80)
	suite := attackSuite()

	fig := report.NewFigure("E4: defeat probability vs replication factor k", "k", "P(defeated)")
	empirical := fig.AddSeries("empirical (adversary suite)")
	coarse := fig.AddSeries("first-moment bound (coarse)")

	tbl := report.New("E4: obstruction probability vs k",
		"k", "defeated/trials", "empirical P", "union bound (coarse)", "union bound (exact)")
	hp := analysis.HomogeneousParams{N: n, U: u, D: (m*4 + n - 1) / n, Mu: mu}
	for _, k := range ks {
		defeated, err := parallelCount(o.workers(), trials, func(i int) (bool, error) {
			seed := mixSeed(o.Seed, uint64(i), uint64(k))
			for _, g := range suite {
				sys, err := buildFixedCatalog(seed, n, m, c, T, k, u, mu, nil)
				if err != nil {
					return false, err
				}
				ok, err := survives(sys, g.make(seed), rounds)
				if err != nil {
					return false, err
				}
				if !ok {
					return true, nil // defeated
				}
			}
			return false, nil
		})
		if err != nil {
			tbl.AddRow(report.Cell(k), "error: "+err.Error(), "", "", "")
			continue
		}
		p := float64(defeated) / float64(trials)
		cb := analysis.UnionBoundCoarse(hp, c, k)
		eb := analysis.UnionBoundExact(hp, m, c, k)
		empirical.Add(float64(k), p)
		coarse.Add(float64(k), cb)
		tbl.AddRowValues(k, report.Cell(float64(defeated))+"/"+report.Cell(float64(trials)), p, cb, eb)
	}
	tbl.AddNote("n=%d m=%d c=%d u=%.2f µ=%.2f trials=%d; empirical defeats lower-bound the true "+
		"obstruction probability (the suite is not the universal adversary); the union bound upper-bounds it",
		n, m, c, u, mu, trials)
	tbl.AddNote("claim shape: both curves decrease toward 0 as k grows")
	return Result{ID: "E4", Name: "obstruction-prob", Claim: registry["E4"].Claim,
		Tables: []*report.Table{tbl}, Figures: []*report.Figure{fig}}
}
