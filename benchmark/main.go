// Command benchmark is the repository's one benchmark: five named
// workloads driven only through the system's public entry points, nine
// end-to-end metrics from an untraced run and the per-layer metrics from a
// traced one. See README.md in this directory and BENCHMARK.json at the
// root of the repository.
//
//	go run ./benchmark -workload near-threshold -seed 1            # one run, one result line
//	go run ./benchmark -workload wire-steady -seed 1 -trace 1 -out d   # per-layer metrics, spans in d
//	go run ./benchmark                                             # the whole set, one JSON document
//	go run ./benchmark -aa                                         # two sets of the same build, compared
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (empty = the whole set)")
		seed    = flag.Uint64("seed", 1, "seed of the allocation and the demand stream")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed section")
		traced  = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		out     = flag.String("out", "", "directory for run.json and, when traced, spans.json")
		scale   = flag.String("scale", "full", "full, or tiny for the smoke test")
		aa      = flag.Bool("aa", false, "run the whole set twice and compare the two against the bounds")
		repeats = flag.Int("repeats", 3, "set mode: untraced runs per workload, on consecutive seeds")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*scale != "full" && *scale != "tiny") || (*traced != 0 && *traced != 1) || *seconds <= 0 || *repeats < 1 {
		flag.Usage()
		os.Exit(2)
	}

	// A signal cancels the context: loops stop, the daemon child is killed,
	// temp files are removed on the way out, and the exit code is not 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	os.Exit(func() int {
		if *name == "" {
			sc := setConfig{seed: *seed, seconds: *seconds, tiny: *scale == "tiny", repeats: *repeats}
			if *aa {
				return runAA(ctx, sc)
			}
			return runSetMode(ctx, sc)
		}
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		rep, err := run(ctx, runConfig{
			w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, tiny: *scale == "tiny",
			outDir: *out, workDir: ".bench_build",
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d timed rounds, fingerprint of rounds 1..%d is %s\n",
			rep.Workload, rep.Seed, rep.TimedRounds, rep.PrefixRounds, rep.PrefixFingerprint)
		line, err := json.Marshal(rep.Result)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
		if !rep.Result.Correct {
			return 1
		}
		return 0
	}())
}
