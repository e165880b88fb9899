package experiments

import (
	"math"

	"repro/internal/adversary"
	"repro/internal/allocation"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/video"
)

func init() {
	register(Experiment{
		ID:   "E6",
		Name: "hetero-threshold",
		Claim: "heterogeneous scalability needs u > 1 + ∆(1)/n; u*-balanced " +
			"systems with relaying serve any admissible sequence (§4, Theorem 2)",
		Run: runE6,
	})
}

// buildHetero assembles a relayed system over a bimodal population.
func buildHetero(seed uint64, pop hetero.Population, uStar, mu float64, c, k, T int) (*core.System, int, error) {
	relays, err := hetero.Compensate(pop.Uploads, uStar)
	if err != nil {
		return nil, 0, err
	}
	slots, m, err := hetero.AllocationSlots(pop.Storage, c, k)
	if err != nil {
		return nil, 0, err
	}
	cat, err := video.NewCatalog(m, c, T)
	if err != nil {
		return nil, 0, err
	}
	alloc, err := allocation.Permutation(stats.NewRNG(seed), cat, slots, k)
	if err != nil {
		return nil, 0, err
	}
	cfg := core.Config{
		Alloc:    alloc,
		Uploads:  pop.Uploads,
		Mu:       mu,
		Strategy: core.StrategyRelayed,
		UStar:    uStar,
		Relays:   relays,
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, 0, err
	}
	return sys, m, nil
}

func runE6(o Options) Result {
	n := pick(o, 30, 60)
	uRich, uPoor := 3.0, 0.5
	uStar, mu := 1.5, 1.05
	c := 25 // ≥ 10µ⁴/(u*−1) ≈ 24.3
	k := 3
	T := pick(o, 25, 40)
	rounds := pick(o, 60, 150)
	poorFracs := pick(o, []float64{0.0, 0.3, 0.8}, []float64{0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8})

	tbl := report.New("E6: heterogeneous threshold u > 1 + ∆(1)/n",
		"poor frac", "avg u", "1+∆(1)/n", "necessary ok", "compensatable", "served")
	fig := report.NewFigure("E6: service success vs poor fraction", "poor fraction", "served (1) / failed (0)")
	served := fig.AddSeries("relayed system")

	for _, frac := range poorFracs {
		pop := hetero.Bimodal(n, 1-frac, uRich, uPoor, 2.0)
		avgU := pop.AvgUpload()
		deficit := analysis.UploadDeficit(pop.Uploads, 1)
		necessary := analysis.HeteroNecessaryCondition(pop.Uploads)
		compensatable := analysis.CompensationFeasible(pop.Uploads, uStar)

		outcome := "n/a (no relay assignment)"
		val := 0.0
		if sys, _, err := buildHetero(mixSeed(o.Seed, math.Float64bits(frac)), pop, uStar, mu, c, k, T); err == nil {
			gen := &adversary.PoorFirst{UStar: uStar}
			rep, runErr := sys.Run(gen, rounds)
			if runErr != nil {
				outcome = "error: " + runErr.Error()
			} else if rep.Failed {
				outcome = "failed"
			} else {
				outcome = "served"
				val = 1
			}
		}
		served.Add(frac, val)
		tbl.AddRowValues(frac, avgU, 1+deficit/float64(n),
			report.Cell(boolCell(necessary)), report.Cell(boolCell(compensatable)), outcome)
	}
	tbl.AddNote("n=%d uRich=%.1f uPoor=%.1f u*=%.2f µ=%.2f c=%d k=%d rounds=%d; poor-first adversary",
		n, uRich, uPoor, uStar, mu, c, k, rounds)
	tbl.AddNote("claim shape: service succeeds while u > 1+∆(1)/n and compensation is feasible, fails beyond")
	return Result{ID: "E6", Name: "hetero-threshold", Claim: registry["E6"].Claim,
		Tables: []*report.Table{tbl}, Figures: []*report.Figure{fig}}
}

func boolCell(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
