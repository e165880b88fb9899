// Command vodgen expands a declarative scenario spec into a deterministic
// workload corpus. The corpus is a plain internal/trace file, so it flows
// through everything that already speaks that format: vodsim -replay and a
// running vodserve daemon via POST /demand.
//
// Examples:
//
//	vodgen -spec examples/scenarios/steady-zipf.yaml -o corpus.json
//	vodgen -spec spec.yaml -seed 7 -csv -o corpus.csv
//	vodgen -spec spec.yaml -post http://127.0.0.1:8080   # stream + step a daemon
//
// The same spec + seed produces a byte-identical corpus on every run and
// host: generation never consults an engine, only the spec and the catalog
// geometry.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"

	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	var (
		specPath = flag.String("spec", "", "scenario spec file (YAML or JSON; required)")
		seed     = flag.Uint64("seed", 0, "workload seed (0 = the spec's default seed)")
		out      = flag.String("o", "", "write the corpus to this file (default: stdout summary only)")
		csv      = flag.Bool("csv", false, "write the corpus as CSV instead of JSON")
		post     = flag.String("post", "", "stream the corpus to a vodserve daemon at this base URL, stepping one round per batch")
		quiet    = flag.Bool("quiet", false, "suppress the summary line")
	)
	flag.Parse()

	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "vodgen: -spec is required")
		os.Exit(2)
	}
	spec, err := scenario.ParseFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodgen:", err)
		os.Exit(1)
	}
	ex, err := scenario.Expand(spec, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodgen:", err)
		os.Exit(1)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vodgen:", err)
			os.Exit(1)
		}
		if *csv {
			err = ex.Trace.WriteCSV(f)
		} else {
			err = ex.Trace.WriteJSON(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vodgen:", err)
			os.Exit(1)
		}
	}

	if *post != "" {
		if err := stream(*post, spec, ex.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "vodgen:", err)
			os.Exit(1)
		}
	}

	if !*quiet {
		st := ex.Trace.Summarize()
		fmt.Printf("scenario %s seed %d: %d demands over %d rounds (%d boxes, %d videos, peak %d/round, %d dropped) %s\n",
			spec.Name, ex.Seed, st.Events, spec.TotalRounds(), st.DistinctBoxes,
			st.DistinctVids, st.PeakPerRound, ex.Dropped, scenario.CorpusHash(ex.Trace))
	}
}

// stream delivers the corpus to a vodserve daemon on its round clock: for
// every scenario round, POST the round's demands as one /demand batch,
// then advance the daemon one round with POST /step — so the daemon plays
// the scenario exactly as vodsim -replay would.
func stream(base string, spec *scenario.Spec, tr *trace.Trace) error {
	type demandIn struct {
		Box   int `json:"box"`
		Video int `json:"video"`
	}
	post := func(path string, payload any) error {
		body, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var msg struct {
				Error string `json:"error"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&msg)
			return fmt.Errorf("%s: %s %s", path, resp.Status, msg.Error)
		}
		return nil
	}

	pos := 0
	for round := 1; round <= spec.TotalRounds(); round++ {
		var batch []demandIn
		for pos < len(tr.Events) && tr.Events[pos].Round == round {
			e := tr.Events[pos]
			batch = append(batch, demandIn{Box: e.Box, Video: int(e.Video)})
			pos++
		}
		if len(batch) > 0 {
			if err := post("/demand", map[string]any{"demands": batch}); err != nil {
				return err
			}
		}
		if err := post("/step", map[string]int{"rounds": 1}); err != nil {
			return err
		}
	}
	return nil
}
