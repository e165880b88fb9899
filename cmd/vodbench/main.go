// Command vodbench runs the reproduction experiment suite: every table and
// figure of E1–E11, E13, E14 and T1 can be regenerated from here. Results
// print as aligned text tables; use -format to get Markdown or CSV.
//
// Usage:
//
//	vodbench                 # run everything, quick sizes
//	vodbench -full           # full-size run (minutes)
//	vodbench -run E1,E5      # selected experiments
//	vodbench -list           # list experiment IDs and claims
//	vodbench -format md      # markdown output
//	vodbench -plot           # add ASCII plots of figure series
//	vodbench -seq            # run experiments sequentially
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

	opts := experiments.Options{Seed: *seed, Quick: !*full, Workers: *workers}
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
