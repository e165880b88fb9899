// Command vodsim runs one configured video-on-demand simulation and prints
// the resulting report: admissions, completions, start-up delays, upload
// utilization, stalls, and any obstruction certificates.
//
// Examples:
//
//	vodsim -n 200 -u 1.5 -rounds 500                       # Zipf workload
//	vodsim -n 200 -u 2.5 -workload flash -rounds 200       # flash crowd
//	vodsim -n 100 -u 0.5 -c 4 -k 1 -workload avoid         # u<1 impossibility
//	vodsim -n 100 -hetero 0.3 -ustar 1.5 -workload poor    # relayed system
//	vodsim -n 200 -u 1.5 -trace -rounds 100                # per-round trace
//	vodsim -record workload.json …                         # record the demands
//	vodsim -replay workload.json …                         # replay a recording
//	vodsim -n 500 -u 1.5 -seeds 16 …                       # 16 replicas in parallel
//	vodsim -scenario spec.yaml                             # declarative scenario run
//	vodsim -scenario spec.yaml -golden want.txt            # …diffed against a golden
//	vodsim -scenario spec.yaml -seeds 8                    # seed sweep with aggregate summary
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"

	vod "repro"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	var (
		n          = flag.Int("n", 100, "number of boxes")
		u          = flag.Float64("u", 1.5, "normalized upload capacity (homogeneous)")
		d          = flag.Float64("d", 4, "storage per box in videos")
		c          = flag.Int("c", 0, "stripes per video (0 = derive from Theorem 1/2)")
		k          = flag.Int("k", 4, "replicas per stripe")
		duration   = flag.Int("T", 100, "video duration in rounds")
		mu         = flag.Float64("mu", 1.2, "maximal swarm growth per round")
		rounds     = flag.Int("rounds", 300, "rounds to simulate")
		seed       = flag.Uint64("seed", 1, "allocation / workload seed")
		workload   = flag.String("workload", "zipf", "zipf | flash | distinct | avoid | poor")
		load       = flag.Float64("load", 0.3, "zipf workload arrival probability")
		zipfS      = flag.Float64("zipf-s", 0.9, "zipf popularity exponent")
		heteroP    = flag.Float64("hetero", 0, "poor-box fraction (0 = homogeneous); poor u=0.5, rich u=3.0")
		uStar      = flag.Float64("ustar", 0, "deficiency threshold u* (activates relaying)")
		sourcing   = flag.Bool("sourcing-only", false, "disable cache serving (baseline)")
		resilient  = flag.Bool("resilient", false, "stall through obstructions instead of halting")
		roundTrace = flag.Bool("trace", false, "print per-round trace")
		recordPath = flag.String("record", "", "record the demand workload to this JSON file")
		replayPath = flag.String("replay", "", "replay a recorded workload instead of -workload")
		audit      = flag.Bool("audit", false, "run the sampled expansion audit on the allocation before simulating")
		seeds      = flag.Int("seeds", 1, "number of independent replicas (seed, seed+1, …) run on a worker pool")
		workers    = flag.Int("workers", 0, "replica worker pool size: concurrent independent replicas (0 = GOMAXPROCS)")
		scenPath   = flag.String("scenario", "", "run a declarative scenario spec (YAML/JSON) end to end: expand its corpus, replay it, print the golden summary")
		goldenPath = flag.String("golden", "", "with -scenario: compare the summary against this golden file and exit non-zero on drift")
	)
	flag.Parse()

	// -hetero installs the heterogeneous defaults, but an explicitly set
	// -mu must survive them: only flags the user did not pass are defaulted.
	// A -seed the user did not pass defers to a scenario spec's default.
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	muSet, seedSet := slices.Contains(set, "mu"), slices.Contains(set, "seed")

	if *scenPath != "" {
		if err := scenarioIgnores(set); err != nil {
			fmt.Fprintln(os.Stderr, "vodsim:", err)
			os.Exit(1)
		}
		if *seeds > 1 {
			if *goldenPath != "" {
				fmt.Fprintln(os.Stderr, "vodsim: -golden compares a single run; it is incompatible with -seeds")
				os.Exit(1)
			}
			if err := runScenarioSeeds(*scenPath, *seed, seedSet, *seeds, *workers); err != nil {
				fmt.Fprintln(os.Stderr, "vodsim:", err)
				os.Exit(1)
			}
			return
		}
		if err := runScenario(*scenPath, *goldenPath, *seed, seedSet); err != nil {
			fmt.Fprintln(os.Stderr, "vodsim:", err)
			os.Exit(1)
		}
		return
	}
	if *goldenPath != "" {
		fmt.Fprintln(os.Stderr, "vodsim: -golden requires -scenario")
		os.Exit(1)
	}
	if err := simIgnores(set, *heteroP > 0, *replayPath != "", *workload); err != nil {
		fmt.Fprintln(os.Stderr, "vodsim:", err)
		os.Exit(1)
	}

	mkSpec := func(allocSeed uint64) vod.Spec {
		spec := vod.Spec{
			Boxes:        *n,
			Upload:       *u,
			Storage:      *d,
			Stripes:      *c,
			Replicas:     *k,
			Duration:     *duration,
			Growth:       *mu,
			SourcingOnly: *sourcing,
			Resilient:    *resilient,
			Trace:        *roundTrace,
			Seed:         allocSeed,
		}
		if *heteroP > 0 {
			pop := vod.Bimodal(*n, 1-*heteroP, 3.0, 0.5, 2.0)
			spec.Uploads = pop.Uploads
			spec.Storages = pop.Storage
			spec.UStar = *uStar
			if spec.UStar == 0 {
				spec.UStar = 1.5
			}
			if !muSet {
				spec.Growth = 1.05
			}
		}
		return spec
	}
	mkGen := func(genSeed uint64, uStar float64) (vod.Generator, bool) {
		switch *workload {
		case "zipf":
			return vod.WithRetry(vod.NewZipfWorkload(genSeed+1, *load, *zipfS)), true
		case "flash":
			return vod.NewFlashCrowd(0), true
		case "distinct":
			return vod.NewDistinctVideos(), true
		case "avoid":
			return vod.NewAvoidPossession(), true
		case "poor":
			return vod.NewPoorFirst(uStar), true
		default:
			return nil, false
		}
	}

	// Reject a bad workload name before any system is built (replays skip
	// the workload flag entirely).
	if *replayPath == "" {
		if _, ok := mkGen(*seed, 1.5); !ok {
			fmt.Fprintf(os.Stderr, "vodsim: unknown workload %q\n", *workload)
			os.Exit(1)
		}
	}

	if *seeds > 1 {
		if *recordPath != "" || *replayPath != "" || *roundTrace || *audit {
			fmt.Fprintln(os.Stderr, "vodsim: -seeds is incompatible with -record, -replay, -trace, and -audit")
			os.Exit(1)
		}
		if err := runReplicas(mkSpec, mkGen, *seed, *seeds, *workers, *rounds); err != nil {
			fmt.Fprintln(os.Stderr, "vodsim:", err)
			os.Exit(1)
		}
		return
	}

	spec := mkSpec(*seed)
	sys, err := vod.New(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodsim:", err)
		os.Exit(1)
	}
	cat := sys.Catalog()
	fmt.Printf("system: n=%d  catalog m=%d  c=%d stripes  T=%d rounds  k=%d  µ=%.2f\n",
		*n, cat.M, cat.C, cat.T, *k, spec.Growth)

	if *audit {
		res := sys.AuditAllocation(*seed^0xa0d17, 200)
		fmt.Printf("allocation audit: %d probes, %d sourcing-capacity violations, worst slots/requests margin %.3f\n",
			res.Probes, res.Violations, res.Margin)
		if res.Violations > 0 {
			fmt.Println("  note: static replica holders alone cannot absorb worst-case concurrent demand")
			fmt.Println("  (Lemma 1 applied to sourcing only); serving such bursts depends on swarming,")
			fmt.Println("  i.e. playback caches — which is the paper's point. Margin ≥ 1 would mean the")
			fmt.Println("  allocation survives even with caches disabled.")
		}
	}

	var gen vod.Generator
	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vodsim:", err)
			os.Exit(1)
		}
		tr, err := trace.ReadJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vodsim:", err)
			os.Exit(1)
		}
		st := tr.Summarize()
		fmt.Printf("replaying %d demands over %d rounds (%d boxes, %d videos)\n",
			st.Events, st.Rounds, st.DistinctBoxes, st.DistinctVids)
		gen = trace.NewReplayer(tr)
	} else {
		var ok bool
		gen, ok = mkGen(*seed, spec.UStar)
		if !ok {
			fmt.Fprintf(os.Stderr, "vodsim: unknown workload %q\n", *workload)
			os.Exit(1)
		}
	}
	var recorder *trace.Recorder
	if *recordPath != "" {
		recorder = trace.NewRecorder(gen)
		recorder.Trace.Meta = fmt.Sprintf("vodsim -workload %s -seed %d", *workload, *seed)
		gen = recorder
	}

	rep, err := sys.Run(gen, *rounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodsim:", err)
		os.Exit(1)
	}
	printReport(rep)

	if recorder != nil {
		f, err := os.Create(*recordPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vodsim:", err)
			os.Exit(1)
		}
		if err := recorder.Trace.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "vodsim:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nrecorded %d demands to %s\n", recorder.Trace.Len(), *recordPath)
	}
}

// scenarioIgnores refuses a -scenario run any set flag it would ignore: the
// spec fixes the system and the workload, so only -seed, -seeds, -workers
// and -golden still mean something.
func scenarioIgnores(set []string) error {
	for _, name := range set {
		switch name {
		case "scenario", "seed", "seeds", "workers", "golden":
		default:
			return fmt.Errorf("-%s has no effect with -scenario, which takes only -seed, -seeds, -workers and -golden", name)
		}
	}
	return nil
}

// simIgnores refuses a simulation any set flag it would ignore: -hetero
// takes uploads and storage from the bimodal fleet, -ustar shapes only a
// heterogeneous system, a replay takes its demands from the recording, and
// only the zipf workload reads -load and -zipf-s.
func simIgnores(set []string, hetero, replay bool, workload string) error {
	for _, name := range set {
		switch {
		case hetero && (name == "u" || name == "d"):
			return fmt.Errorf("-%s has no effect with -hetero, which takes uploads and storage from the bimodal fleet", name)
		case !hetero && name == "ustar":
			return fmt.Errorf("-ustar needs -hetero > 0")
		case replay && (name == "workload" || name == "load" || name == "zipf-s"):
			return fmt.Errorf("-%s has no effect with -replay, which takes its demands from the recording", name)
		case !replay && workload != "zipf" && (name == "load" || name == "zipf-s"):
			return fmt.Errorf("-%s has no effect with -workload %s; only zipf reads it", name, workload)
		}
	}
	return nil
}

// runScenario expands a declarative scenario, replays its corpus through
// a fresh engine, and prints the stable golden summary. With a golden
// file it compares instead, failing on any drift — the CI scenario-smoke
// job runs exactly this.
func runScenario(path, golden string, seed uint64, seedSet bool) error {
	spec, err := scenario.ParseFile(path)
	if err != nil {
		return err
	}
	var opt scenario.RunOptions
	if seedSet {
		opt.Seed = seed
	}
	res, err := scenario.Run(spec, opt)
	if err != nil {
		return err
	}
	summary := res.GoldenSummary()
	if golden == "" {
		fmt.Print(summary)
		return nil
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		return err
	}
	if summary != string(want) {
		return fmt.Errorf("scenario %s drifted from golden %s:\n--- got ---\n%s--- want ---\n%s",
			spec.Name, golden, summary, want)
	}
	fmt.Printf("scenario %s matches golden %s\n", spec.Name, golden)
	return nil
}

// runScenarioSeeds runs a scenario under `seeds` consecutive seeds (base,
// base+1, …) on a worker pool and prints a per-seed outcome table plus the
// mean/min/max of every golden counter — a quick sensitivity read on how
// much of a scenario's golden summary is seed-luck versus configuration.
func runScenarioSeeds(path string, seed uint64, seedSet bool, seeds, workers int) error {
	spec, err := scenario.ParseFile(path)
	if err != nil {
		return err
	}
	base := spec.Seed
	if seedSet {
		base = seed
	}
	results := make([]*scenario.Result, seeds)
	pool := workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	err = experiments.ForEach(pool, seeds, func(i int) error {
		res, err := scenario.Run(spec, scenario.RunOptions{Seed: base + uint64(i)})
		if err != nil {
			return fmt.Errorf("seed %d: %w", base+uint64(i), err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Printf("scenario seed sweep: %s, %d seeds (%d…%d), boxes=%d rounds=%d\n",
		spec.Name, seeds, base, base+uint64(seeds)-1, results[0].Expanded.VodSpec.Boxes, spec.TotalRounds())
	tbl := report.New("per-seed outcomes", "seed", "admitted", "completed", "stalls", "obstructions", "util", "startup mean")
	for i, res := range results {
		rep := res.Report
		tbl.AddRowValues(int(base)+i, float64(rep.Admitted), float64(rep.CompletedViewings),
			float64(rep.Stalls), float64(len(rep.Obstructions)), rep.MeanUtilization, rep.StartupDelay.Mean)
	}
	if err := tbl.WriteText(os.Stdout); err != nil {
		return err
	}

	// Aggregate every counter of the golden summary across seeds.
	counters := []struct {
		name string
		get  func(rep vod.Report) float64
	}{
		{"demands", func(r vod.Report) float64 { return float64(r.Demands) }},
		{"admitted", func(r vod.Report) float64 { return float64(r.Admitted) }},
		{"rejected-busy", func(r vod.Report) float64 { return float64(r.RejectedBusy) }},
		{"rejected-swarm", func(r vod.Report) float64 { return float64(r.RejectedSwarm) }},
		{"completed", func(r vod.Report) float64 { return float64(r.CompletedViewings) }},
		{"stalls", func(r vod.Report) float64 { return float64(r.Stalls) }},
		{"obstructions", func(r vod.Report) float64 { return float64(len(r.Obstructions)) }},
		{"peak-requests", func(r vod.Report) float64 { return float64(r.PeakRequests) }},
		{"max-swarm", func(r vod.Report) float64 { return float64(r.MaxSwarm) }},
		{"mean-utilization", func(r vod.Report) float64 { return r.MeanUtilization }},
		{"startup-mean", func(r vod.Report) float64 { return r.StartupDelay.Mean }},
		{"startup-p99", func(r vod.Report) float64 { return r.StartupDelay.P99 }},
	}
	fmt.Println()
	agg := report.New("aggregate over seeds", "counter", "mean", "min", "max")
	for _, c := range counters {
		sum, min, max := 0.0, math.Inf(1), math.Inf(-1)
		for _, res := range results {
			v := c.get(res.Report)
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		agg.AddRowValues(c.name, sum/float64(seeds), min, max)
	}
	return agg.WriteText(os.Stdout)
}

// runReplicas runs `seeds` independent simulations (allocation and
// workload seeded seed, seed+1, …) on a worker pool and prints a per-seed
// outcome table plus aggregate statistics — a quick Monte-Carlo view of
// how robustly a configuration serves its workload.
func runReplicas(mkSpec func(uint64) vod.Spec, mkGen func(uint64, float64) (vod.Generator, bool), seed uint64, seeds, workers, rounds int) error {
	type outcome struct {
		rep vod.Report
		cat vod.Catalog
	}
	outcomes := make([]outcome, seeds)
	pool := workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	err := experiments.ForEach(pool, seeds, func(i int) error {
		s := seed + uint64(i)
		spec := mkSpec(s)
		sys, err := vod.New(spec)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		gen, ok := mkGen(s, spec.UStar)
		if !ok {
			return fmt.Errorf("unknown workload") // unreachable: validated before dispatch
		}
		rep, err := sys.Run(gen, rounds)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		outcomes[i] = outcome{rep: rep, cat: sys.Catalog()}
		return nil
	})
	if err != nil {
		return err
	}

	cat := outcomes[0].cat
	headSpec := mkSpec(seed)
	fmt.Printf("replicas: %d seeds (%d…%d), n=%d, catalog m=%d c=%d T=%d, µ=%.2f\n",
		seeds, seed, seed+uint64(seeds)-1, headSpec.Boxes, cat.M, cat.C, cat.T, headSpec.Growth)
	tbl := report.New("per-seed outcomes", "seed", "rounds", "admitted", "completed", "stalls", "util", "failed round")
	survived := 0
	var utilSum, completedSum float64
	for i, o := range outcomes {
		failRound := float64(o.rep.FailRound)
		if !o.rep.Failed {
			survived++
			failRound = -1
		}
		utilSum += o.rep.MeanUtilization
		completedSum += float64(o.rep.CompletedViewings)
		tbl.AddRowValues(int(seed)+i, o.rep.Rounds, float64(o.rep.Admitted),
			float64(o.rep.CompletedViewings), float64(o.rep.Stalls), o.rep.MeanUtilization, failRound)
	}
	if err := tbl.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nsurvived %d/%d replicas; mean utilization %.3f; mean completed viewings %.1f\n",
		survived, seeds, utilSum/float64(seeds), completedSum/float64(seeds))
	return nil
}

func printReport(rep vod.Report) {
	tbl := report.New("simulation report", "metric", "value")
	tbl.AddRowValues("rounds", rep.Rounds)
	tbl.AddRowValues("demands", float64(rep.Demands))
	tbl.AddRowValues("admitted", float64(rep.Admitted))
	tbl.AddRowValues("rejected (busy box)", float64(rep.RejectedBusy))
	tbl.AddRowValues("rejected (swarm growth)", float64(rep.RejectedSwarm))
	tbl.AddRowValues("completed viewings", float64(rep.CompletedViewings))
	tbl.AddRowValues("peak concurrent requests", rep.PeakRequests)
	tbl.AddRowValues("max swarm size", rep.MaxSwarm)
	tbl.AddRowValues("mean upload utilization", rep.MeanUtilization)
	tbl.AddRowValues("stall request-rounds", float64(rep.Stalls))
	tbl.AddRowValues("startup delay mean", rep.StartupDelay.Mean)
	tbl.AddRowValues("startup delay p99", rep.StartupDelay.P99)
	_ = tbl.WriteText(os.Stdout)

	if rep.Failed {
		fmt.Printf("\nFAILED at round %d — obstruction certificates (Lemma 1 Hall violators):\n", rep.FailRound)
	} else if len(rep.Obstructions) > 0 {
		fmt.Printf("\nobstructions encountered (resilient mode):\n")
	}
	if len(rep.Obstructions) > 0 {
		ob := report.New("", "round", "|X| requests", "distinct stripes", "|B(X)| boxes", "slots U_B(X)")
		limit := len(rep.Obstructions)
		if limit > 10 {
			limit = 10
		}
		for _, o := range rep.Obstructions[:limit] {
			ob.AddRowValues(o.Round, o.Requests, o.DistinctStripes, o.Boxes, float64(o.Slots))
		}
		_ = ob.WriteText(os.Stdout)
	}

	if len(rep.Trace) > 0 {
		fmt.Println()
		tr := report.New("per-round trace (last 20)", "round", "active", "matched", "unmatched", "viewers", "swarms", "util")
		start := len(rep.Trace) - 20
		if start < 0 {
			start = 0
		}
		for _, rs := range rep.Trace[start:] {
			tr.AddRowValues(rs.Round, rs.ActiveReqs, rs.Matched, rs.Unmatched, rs.Viewers, rs.ActiveSwarm, rs.Utilization)
		}
		_ = tr.WriteText(os.Stdout)
	}
}
