// Command vodbench runs the reproduction experiment suite: every table and
// figure in the experiment index (DESIGN.md §5) can be regenerated from
// here. Results print as aligned text tables; use -format to get Markdown
// or CSV for EXPERIMENTS.md.
//
// Usage:
//
//	vodbench                 # run everything, quick sizes
//	vodbench -full           # full-size run (minutes)
//	vodbench -run E1,E5      # selected experiments
//	vodbench -list           # list experiment IDs and claims
//	vodbench -scenario s.yaml # run one declarative scenario spec
//	vodbench -format md      # markdown output
//	vodbench -plot           # add ASCII plots of figure series
//	vodbench -seq            # run experiments sequentially
//	vodbench -serial-augment # per-root matcher reference (ablation)
//
// Experiments run concurrently on a worker pool by default (output is
// buffered until every selected experiment finishes and prints in index
// order); -seq restores one-at-a-time streaming output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		runIDs  = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		full    = flag.Bool("full", false, "full-size runs (default: quick)")
		seed    = flag.Uint64("seed", 42, "master random seed")
		workers = flag.Int("workers", 0, "Monte-Carlo trial pool: how many independent trials run concurrently (0 = GOMAXPROCS)")
		format  = flag.String("format", "text", "output format: text, md, csv")
		plot    = flag.Bool("plot", false, "render ASCII plots for figures (text format only)")
		seq     = flag.Bool("seq", false, "run experiments sequentially, streaming output")
		serial  = flag.Bool("serial-augment", false, "use the matcher's per-root serial augmentation reference instead of blocking-flow batch phases")
		scen    = flag.String("scenario", "", "run a declarative scenario spec (YAML/JSON) instead of the experiment suite")
	)
	flag.Parse()

	switch *format {
	case "text", "md", "csv":
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(1)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-20s %s\n", e.ID, e.Name, e.Claim)
		}
		return
	}

	if *scen != "" {
		// Only an explicit -seed overrides the spec's own default seed,
		// so a bare `vodbench -scenario s.yaml` reproduces the spec's
		// committed golden corpus.
		seedSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedSet = true
			}
		})
		spec, err := scenario.ParseFile(*scen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var opt scenario.RunOptions
		if seedSet {
			opt.Seed = *seed
		}
		run, err := scenario.Run(spec, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printResult(experiments.Result{
			ID:     "scenario",
			Name:   spec.Name,
			Claim:  "spec-driven workload; same spec + seed reproduces this corpus and report byte-for-byte",
			Tables: run.Tables(),
		}, *format, *plot)
		return
	}

	opts := experiments.Options{Seed: *seed, Quick: !*full, Workers: *workers, SerialAugment: *serial}
	var selected []experiments.Experiment
	if *runIDs == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := experiments.Get(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	if *seq {
		for _, e := range selected {
			printResult(e.Run(opts), *format, *plot)
		}
		return
	}
	for _, res := range experiments.RunMany(opts, selected) {
		printResult(res, *format, *plot)
	}
}

func printResult(res experiments.Result, format string, plot bool) {
	switch format {
	case "text":
		fmt.Println(res.Text())
		if plot {
			for _, f := range res.Figures {
				fmt.Println(f.ASCIIPlot(72, 18))
			}
		}
	case "md":
		fmt.Printf("## %s — %s\n\n> %s\n\n", res.ID, res.Name, res.Claim)
		for _, t := range res.Tables {
			if err := t.WriteMarkdown(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println()
		}
		for _, f := range res.Figures {
			if err := f.Table().WriteMarkdown(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	case "csv":
		for _, t := range res.Tables {
			if err := t.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println()
		}
		for _, f := range res.Figures {
			if err := f.Table().WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	default:
		panic(fmt.Sprintf("format %q not rejected by flag validation", format))
	}
}
