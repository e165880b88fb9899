// Command vodplan prints the Theorem 1 / Theorem 2 parameterization for a
// prospective deployment: the stripe count c, replication factor k, the
// achievable catalog m = dn/k, and the analytical lower bound — plus, for
// heterogeneous fleets, the deficit ∆(1), the necessary condition
// u > 1 + ∆(1)/n, and compensation feasibility.
//
// Examples:
//
//	vodplan -n 10000 -u 1.5 -d 4 -mu 1.2
//	vodplan -n 10000 -hetero 0.3 -ustar 1.5
package main

import (
	"flag"
	"fmt"
	"os"

	vod "repro"
	"repro/internal/analysis"
	"repro/internal/report"
)

func main() {
	var (
		n       = flag.Int("n", 10000, "number of boxes")
		u       = flag.Float64("u", 1.5, "normalized upload capacity")
		d       = flag.Int("d", 4, "storage per box in videos")
		mu      = flag.Float64("mu", 1.2, "maximal swarm growth per round")
		heteroP = flag.Float64("hetero", 0, "poor-box fraction (0 = homogeneous plan)")
		uStar   = flag.Float64("ustar", 1.5, "deficiency threshold u* for heterogeneous plans")
		target  = flag.Float64("target-prob", 0, "if > 0: also search the smallest k with union bound ≤ this")
	)
	flag.Parse()

	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := planIgnores(set, *heteroP > 0); err != nil {
		fmt.Fprintln(os.Stderr, "vodplan:", err)
		os.Exit(1)
	}

	if *heteroP > 0 {
		pop := vod.Bimodal(*n, 1-*heteroP, 3.0, 0.5, 2.0)
		plan, err := vod.HeteroPlanFor(pop, *uStar, *mu)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vodplan:", err)
			os.Exit(1)
		}
		tbl := report.New(fmt.Sprintf("Theorem 2 plan: n=%d poor=%.0f%% u*=%.2f µ=%.2f", *n, *heteroP*100, *uStar, *mu),
			"quantity", "value")
		tbl.AddRowValues("average upload u", plan.Params.AvgUpload())
		tbl.AddRowValues("average storage d", plan.Params.AvgStorage())
		tbl.AddRowValues("upload deficit ∆(1)", plan.Deficit1)
		tbl.AddRowValues("necessary u > 1+∆(1)/n", boolStr(plan.NecessaryOK))
		tbl.AddRowValues("u*-upload-compensatable", boolStr(plan.Compensatable))
		tbl.AddRowValues("u*-storage-balanced", boolStr(plan.Balanced))
		tbl.AddRowValues("stripes c", plan.C)
		tbl.AddRowValues("replicas k", plan.K)
		tbl.AddRowValues("catalog m", plan.M)
		tbl.AddRowValues("catalog bound Ω(·)", plan.Bound)
		_ = tbl.WriteText(os.Stdout)
		return
	}

	plan, err := vod.PlanFor(*n, *u, *d, *mu)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodplan:", err)
		os.Exit(1)
	}
	tbl := report.New(fmt.Sprintf("Theorem 1 plan: n=%d u=%.2f d=%d µ=%.2f", *n, *u, *d, *mu),
		"quantity", "value")
	tbl.AddRowValues("stripes c (recommended)", plan.C)
	tbl.AddRowValues("effective upload u'", plan.UPrime)
	tbl.AddRowValues("expansion margin ν", plan.Nu)
	tbl.AddRowValues("d' = max{d,u,e}", plan.DPrime)
	tbl.AddRowValues("replicas k (Theorem 1)", plan.K)
	tbl.AddRowValues("replicas k (proof bound)", plan.ProofK)
	tbl.AddRowValues("catalog m = dn/k", plan.M)
	tbl.AddRowValues("catalog bound Ω(·)", plan.Bound)
	_ = tbl.WriteText(os.Stdout)

	if *target > 0 {
		hp := analysis.HomogeneousParams{N: *n, U: *u, D: *d, Mu: *mu}
		if k, ok := analysis.KForTargetProbability(hp, plan.C, *target, 1_000_000); ok {
			fmt.Printf("\nsmallest k with first-moment union bound ≤ %g: k = %d (m = %d)\n",
				*target, k, analysis.CatalogSize(*n, *d, k))
		} else {
			fmt.Printf("\nno k ≤ 1e6 achieves union bound ≤ %g at c=%d\n", *target, plan.C)
		}
	}

	// The large-n corollary for random independent allocations (requires
	// u > 2 and c = Ω(log n)).
	hp := analysis.HomogeneousParams{N: *n, U: *u, D: *d, Mu: *mu}
	if ind, err := analysis.NewIndependentPlan(hp); err == nil {
		it := report.New("independent-allocation corollary (large n)", "quantity", "value")
		it.AddRowValues("stripes c (incl. Ω(log n))", ind.C)
		it.AddRowValues("replicas k", ind.K)
		it.AddRowValues("catalog m", ind.M)
		it.AddRowValues("catalog bound Ω(n/log n)", ind.Bound)
		fmt.Println()
		_ = it.WriteText(os.Stdout)
	}
}

// planIgnores refuses any set flag the chosen plan would ignore: a
// heterogeneous plan takes its uploads and storage from the bimodal fleet
// and searches no k, and a homogeneous plan has no u*.
func planIgnores(set []string, hetero bool) error {
	for _, name := range set {
		switch {
		case hetero && (name == "u" || name == "d" || name == "target-prob"):
			return fmt.Errorf("-%s has no effect with -hetero", name)
		case !hetero && name == "ustar":
			return fmt.Errorf("-ustar needs -hetero > 0")
		}
	}
	return nil
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
