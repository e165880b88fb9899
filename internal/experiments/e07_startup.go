package experiments

import (
	"math"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/report"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:   "E7",
		Name: "startup-delay",
		Claim: "start-up delay is a constant number of rounds: 3 with the " +
			"preloading strategy (§3), and bounded (≤ 2×) for relayed poor boxes (§4); " +
			"queueing at the swarm-growth admission control adds the only variable part",
		Run: runE7,
	})
}

func runE7(o Options) Result {
	p := homParams{n: pick(o, 24, 60), d: 2, c: 4, T: pick(o, 16, 24), u: 2.0, mu: 1.2}
	k := 4
	rounds := pick(o, 60, 200)
	loads := pick(o, []float64{0.2, 0.8}, []float64{0.1, 0.3, 0.5, 0.7, 0.9})

	tbl := report.New("E7: start-up delay vs demand load (preload strategy)",
		"arrival prob", "demands", "mean delay", "p90", "p99", "max")
	fig := report.NewFigure("E7: start-up delay vs load", "arrival probability", "rounds")
	meanS := fig.AddSeries("mean")
	p99S := fig.AddSeries("p99")

	for _, load := range loads {
		sys, _, err := buildHom(o.Seed, p, k, func(cfg *core.Config) {
			cfg.Failure = core.FailStall
		})
		if err != nil {
			tbl.AddRow(report.Cell(load), "error: "+err.Error(), "", "", "", "")
			continue
		}
		// Hashed per load so nearby arrival probabilities never share a
		// demand stream (the allocation seed stays fixed: every load is
		// measured on the same system).
		gen := &adversary.Retry{Inner: &adversary.Zipf{
			RNG: stats.NewRNG(mixSeed(o.Seed, 0xe7, math.Float64bits(load))), P: load, S: 0.9,
		}}
		rep, err := sys.Run(gen, rounds)
		if err != nil {
			tbl.AddRow(report.Cell(load), "error: "+err.Error(), "", "", "", "")
			continue
		}
		d := rep.StartupDelay
		meanS.Add(load, d.Mean)
		p99S.Add(load, d.P99)
		tbl.AddRowValues(load, d.N, d.Mean, d.P90, d.P99, d.Max)
	}
	tbl.AddNote("n=%d d=%d c=%d k=%d u=%.1f µ=%.2f rounds=%d; intrinsic delay is exactly 3, queueing adds the rest",
		p.n, p.d, p.c, k, p.u, p.mu, rounds)

	// Relayed-system delays: constant 4 (rich) and 6 (poor).
	relTbl := report.New("E7b: start-up delay in the relayed heterogeneous system",
		"population", "min", "max", "mean")
	pop := hetero.Bimodal(pick(o, 20, 40), 0.7, 3.0, 0.5, 2.0)
	if sys, _, err := buildHetero(mixSeed(o.Seed, 0xe7b), pop, 1.5, 1.05, 25, 3, pick(o, 25, 40)); err == nil {
		gen := &adversary.PoorFirst{UStar: 1.5}
		if rep, runErr := sys.Run(gen, pick(o, 60, 120)); runErr == nil {
			d := rep.StartupDelay
			relTbl.AddRowValues("bimodal 30% poor", d.Min, d.Max, d.Mean)
		}
	}
	relTbl.AddNote("paper: relayed time scale doubles — rich boxes start in 4 rounds, poor boxes in 6 (≤ 2×3)")
	return Result{ID: "E7", Name: "startup-delay", Claim: registry["E7"].Claim,
		Tables: []*report.Table{tbl, relTbl}, Figures: []*report.Figure{fig}}
}
