package experiments

import (
	"math"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/report"
)

func init() {
	register(Experiment{
		ID:   "E13",
		Name: "strategy-ablation",
		Claim: "the Section 3 preloading strategy (1 round-robin preload stripe, " +
			"c−1 postponed requests one round later) is what absorbs flash crowds; " +
			"requesting all c stripes at once fails at identical resources",
		Run: runE13,
	})
}

func runE13(o Options) Result {
	n, d, T, k := 64, 2, 25, 2
	u := 1.25
	rounds := pick(o, 60, 80)
	trials := pick(o, 4, 10)
	mus := pick(o, []float64{1.5, 3.0}, []float64{1.2, 1.5, 2.0, 2.5, 3.0, 4.0})
	c := 6

	tbl := report.New("E13: preloading vs naive request strategy under flash crowds",
		"µ", "P(failure) preload", "P(failure) naive")
	fig := report.NewFigure("E13: strategy failure rate vs swarm growth", "µ", "P(failure)")
	pre := fig.AddSeries("preload (paper §3)")
	nai := fig.AddSeries("naive (all-at-once)")

	for _, mu := range mus {
		rates := make(map[core.Strategy]float64)
		for _, strat := range []core.Strategy{core.StrategyPreload, core.StrategyNaive} {
			strat := strat
			fails, err := parallelCount(o.workers(), trials, func(i int) (bool, error) {
				p := homParams{n: n, d: d, c: c, T: T, u: u, mu: mu}
				// Hashed per (trial, µ); both strategies share a stream so the
				// ablation is paired on identical allocations.
				sys, _, err := buildHom(mixSeed(o.Seed, uint64(i), math.Float64bits(mu)), p, k, func(cfg *core.Config) {
					cfg.Strategy = strat
				})
				if err != nil {
					return false, err
				}
				rep, err := sys.Run(&adversary.FlashCrowd{Target: 0, Rotate: true}, rounds)
				if err != nil {
					return false, err
				}
				return rep.Failed, nil
			})
			if err != nil {
				tbl.AddRow(report.Cell(mu), "error: "+err.Error(), "")
				continue
			}
			rates[strat] = float64(fails) / float64(trials)
		}
		pre.Add(mu, rates[core.StrategyPreload])
		nai.Add(mu, rates[core.StrategyNaive])
		tbl.AddRowValues(mu, rates[core.StrategyPreload], rates[core.StrategyNaive])
	}
	tbl.AddNote("n=%d d=%d c=%d k=%d u=%.2f rounds=%d trials=%d; flash crowd at maximal growth",
		n, d, c, k, u, rounds, trials)
	tbl.AddNote("claim shape: preload failure rate stays far below naive at every µ")
	return Result{ID: "E13", Name: "strategy-ablation", Claim: registry["E13"].Claim,
		Tables: []*report.Table{tbl}, Figures: []*report.Figure{fig}}
}
