package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/video"
)

func init() {
	register(Experiment{
		ID:   "E15",
		Name: "population-scaling",
		Claim: "with event-driven matcher invalidation and the idle-box index, per-round cost tracks " +
			"live work only: at a fixed arrival rate, u and c, the round rate stays roughly flat while " +
			"the box population grows into the 10⁵–10⁶ regime",
		Run: runE15,
	})
}

// boundedArrivals emits a fixed number of demands per round through the
// idle-box iterator, so generator cost is O(perRound) — it never scans
// the population. Videos rotate round-robin, keeping swarms small and
// the live request set proportional to the arrival rate, not to n.
type boundedArrivals struct {
	perRound  int
	nextVideo int
}

// Next implements core.Generator.
func (g *boundedArrivals) Next(v *core.View, _ int) []core.Demand {
	m := v.Catalog().M
	out := make([]core.Demand, 0, g.perRound)
	v.VisitIdle(func(b int) bool {
		vid := video.ID(g.nextVideo % m)
		g.nextVideo++
		if v.SwarmAllowance(vid) > 0 {
			out = append(out, core.Demand{Box: b, Video: vid})
		}
		return len(out) < g.perRound
	})
	return out
}

func runE15(o Options) Result {
	ns := pick(o, []int{512, 2048, 8192}, []int{4096, 32768, 262144, 1048576})
	const (
		d, c, T, k = 2, 4, 50, 4
		u, mu      = 2.0, 1.2
	)
	arrivals := pick(o, 32, 256)
	rounds := pick(o, 40, 120)
	warmup := T + 10 // past the first cache-window expiry: steady-state churn

	fig := report.NewFigure("E15: round cost vs population at fixed live work", "n", "µs/round")
	usPerRound := fig.AddSeries("µs/round (steady state)")

	tbl := report.New("E15: population scaling at fixed arrival rate",
		"n", "catalog m", "µs/round", "rounds/sec", "live requests", "admitted", "stalls")
	for _, n := range ns {
		p := homParams{n: n, d: d, c: c, T: T, u: u, mu: mu}
		sys, m, err := buildHom(mixSeed(o.Seed, uint64(n)), p, k, func(cfg *core.Config) {
			cfg.Failure = core.FailStall
		})
		if err != nil {
			tbl.AddRow(report.Cell(n), "error: "+err.Error(), "", "", "", "", "")
			continue
		}
		gen := &boundedArrivals{perRound: arrivals}
		if _, err := sys.Run(gen, warmup); err != nil {
			tbl.AddRow(report.Cell(n), "error: "+err.Error(), "", "", "", "", "")
			continue
		}
		start := time.Now()
		if _, err := sys.Run(gen, rounds); err != nil {
			tbl.AddRow(report.Cell(n), "error: "+err.Error(), "", "", "", "", "")
			continue
		}
		elapsed := time.Since(start)
		rep := sys.Report()
		us := float64(elapsed.Microseconds()) / float64(rounds)
		perSec := float64(rounds) / elapsed.Seconds()
		usPerRound.Add(float64(n), us)
		tbl.AddRowValues(n, m, us, perSec, sys.View().ActiveRequests(), rep.Admitted, rep.Stalls)
	}
	tbl.AddNote("d=%d c=%d k=%d T=%d u=%.1f µ=%.1f; %d arrivals/round, %d timed rounds after %d warm-up",
		d, c, k, T, u, mu, arrivals, rounds, warmup)
	tbl.AddNote("claim shape: µs/round roughly flat in n (live requests are set by the arrival rate); " +
		"wall-clock timings are indicative — run with -seq on a quiet machine for clean numbers")
	return Result{ID: "E15", Name: "population-scaling", Claim: registry["E15"].Claim,
		Tables: []*report.Table{tbl}, Figures: []*report.Figure{fig}}
}
