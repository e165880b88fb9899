package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"text/tabwriter"
)

// setConfig is one pass over every workload.
type setConfig struct {
	seed    uint64
	seconds float64
	tiny    bool
	repeats int
}

// series is one end-to-end metric of one workload over the runs of a set.
// Spread is the distance between the quartiles as a share of the median,
// the number the driver holds against the metric's bound.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"`
}

func summarize(unit string, values []float64) series {
	q1, q2, q3 := quartiles(values)
	s := sortedCopy(values)
	out := series{Unit: unit, Values: values, Median: q2, Min: s[0], Max: s[len(s)-1]}
	if q2 != 0 {
		out.Spread = (q3 - q1) / math.Abs(q2)
	}
	return out
}

// workloadSet is one workload's part of a set.
type workloadSet struct {
	Workload     string            `json:"workload"`
	Why          string            `json:"why"`
	Seeds        []uint64          `json:"seeds"`
	TimedRounds  []int             `json:"timed_rounds"`
	Fingerprints []string          `json:"prefix_fingerprints"`
	EndToEnd     map[string]series `json:"end_to_end"`
	PerLayer     map[string]metric `json:"per_layer"`
	// TraceOverhead is untraced over traced rounds_per_s at the first seed.
	// On the wire it also holds the difference between the real daemon and
	// the handler hosted in the harness process.
	TraceOverhead float64  `json:"trace_overhead"`
	Problems      []string `json:"problems,omitempty"`
}

type hostInfo struct {
	CPUCount   int    `json:"cpu_count"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

// setDoc is the one JSON document the whole-set mode prints.
type setDoc struct {
	Host      hostInfo           `json:"host"`
	Scale     string             `json:"scale"`
	Seconds   float64            `json:"seconds"`
	Workloads []workloadSet      `json:"workloads"`
	Derived   map[string]float64 `json:"derived"`
	Correct   bool               `json:"correct"`
}

// childRun runs one workload in a process of its own (peak RSS and CPU time
// are per process) and reads its report back from -out.
func childRun(ctx context.Context, cfg setConfig, w *workload, seed uint64, traced bool) (*runReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	out, err := os.MkdirTemp(".bench_build", "out-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(out)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace, "-scale", scaleName(cfg.tiny), "-out", out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // an incorrect run exits 1 but still leaves its report
	data, err := os.ReadFile(filepath.Join(out, "run.json"))
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: no report (%v)", w.name, seed, runErr)
	}
	var rep runReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// runSet makes cfg.repeats untraced runs of every workload, on consecutive
// seeds, and one traced run at the first seed.
func runSet(ctx context.Context, cfg setConfig) (*setDoc, error) {
	doc := &setDoc{
		Host: hostInfo{
			CPUCount: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), CPUModel: cpuModel(),
		},
		Scale: scaleName(cfg.tiny), Seconds: cfg.seconds, Derived: map[string]float64{}, Correct: true,
	}
	for _, w := range workloads {
		ws := workloadSet{Workload: w.name, Why: w.why, EndToEnd: map[string]series{}}
		values := map[string][]float64{}
		for i := 0; i < cfg.repeats; i++ {
			seed := cfg.seed + uint64(i)
			rep, err := childRun(ctx, cfg, w, seed, false)
			if err != nil {
				return nil, err
			}
			ws.Seeds = append(ws.Seeds, seed)
			ws.TimedRounds = append(ws.TimedRounds, rep.TimedRounds)
			ws.Fingerprints = append(ws.Fingerprints, rep.PrefixFingerprint)
			ws.Problems = append(ws.Problems, rep.Problems...)
			for name, m := range rep.Result.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range endToEnd {
			ws.EndToEnd[d.Name] = summarize(d.Unit, values[d.Name])
		}
		rep, err := childRun(ctx, cfg, w, cfg.seed, true)
		if err != nil {
			return nil, err
		}
		ws.Problems = append(ws.Problems, rep.Problems...)
		if rep.PrefixFingerprint != ws.Fingerprints[0] {
			ws.Problems = append(ws.Problems, fmt.Sprintf("traced run's fingerprint %s differs from the untraced run's %s",
				rep.PrefixFingerprint, ws.Fingerprints[0]))
		}
		ws.PerLayer = rep.Result.Metrics
		if tr := rep.Result.Metrics["harness.traced_rounds_per_s"].Value; tr > 0 {
			ws.TraceOverhead = values["rounds_per_s"][0] / tr
		}
		if len(ws.Problems) > 0 {
			doc.Correct = false
		}
		doc.Workloads = append(doc.Workloads, ws)
	}

	serial, sharded := doc.workload("contended-serial"), doc.workload("contended-sharded")
	doc.Derived["core.sharded_over_serial"] = sharded.EndToEnd["rounds_per_s"].Median / serial.EndToEnd["rounds_per_s"].Median
	for i := range serial.Fingerprints {
		if serial.Fingerprints[i] != sharded.Fingerprints[i] {
			sharded.Problems = append(sharded.Problems, fmt.Sprintf("seed %d: fingerprint %s differs from contended-serial's %s",
				serial.Seeds[i], sharded.Fingerprints[i], serial.Fingerprints[i]))
			doc.Correct = false
		}
	}
	return doc, nil
}

func (d *setDoc) workload(name string) *workloadSet {
	for i := range d.Workloads {
		if d.Workloads[i].Workload == name {
			return &d.Workloads[i]
		}
	}
	panic("benchmark: no workload " + name)
}

func runSetMode(ctx context.Context, cfg setConfig) int {
	doc, err := runSet(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(data))
	if !doc.Correct {
		return 1
	}
	return 0
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction (negative when b is better).
func worseBy(d metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// simulatedCounts are the per-layer metrics that count simulated events or
// bytes of generated input: they must repeat exactly from one set to the
// next.
var simulatedCounts = []string{
	"scenario.events", "scenario.dropped", "trace.bytes",
	"core.live_requests_mean", "core.matched_per_round", "core.mean_utilization",
	"core.admitted", "core.rejected_busy", "core.rejected_swarm",
	"core.stall_request_rounds", "core.obstructions",
	"bipartite.probe_matched", "ckpt.roundtrip_ok",
}

// runAA is the A/A check, the driver's own acceptance procedure: two sets
// of the same build; every end-to-end metric's spread within each set
// (setup_s excepted) and the shift of its median from the first set to the
// second must stay within the metric's bound, and everything simulated must
// repeat exactly. It writes benchmark/baseline.json.
func runAA(ctx context.Context, cfg setConfig) int {
	baseline := filepath.Join("benchmark", "baseline.json")
	if _, err := os.Stat(filepath.Dir(baseline)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -aa writes", baseline, "and must run from the root of the repository:", err)
		return 2
	}
	var sets [2]*setDoc
	for i := range sets {
		fmt.Fprintf(os.Stderr, "benchmark: A/A set %d of 2\n", i+1)
		doc, err := runSet(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		sets[i] = doc
	}
	a, b := sets[0], sets[1]
	breaches := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tB worse by\tspread A\tspread B\tbound\t")
	for i := range a.Workloads {
		wa, wb := &a.Workloads[i], &b.Workloads[i]
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			shift := worseBy(d, sa.Median, sb.Median)
			verdict := ""
			if shift > d.Bound || (d.Name != "setup_s" && (sa.Spread > d.Bound || sb.Spread > d.Bound)) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.4f\t%.4f\t%.4f\t%.2f\t%s\n",
				wa.Workload, d.Name, sa.Median, sb.Median, shift, sa.Spread, sb.Spread, d.Bound, verdict)
		}
		fmt.Fprintf(tw, "%s\ttrace_overhead\t%.4f\t%.4f\t\t\t\t\t\n", wa.Workload, wa.TraceOverhead, wb.TraceOverhead)
		for j := range wa.Fingerprints {
			if wa.Fingerprints[j] != wb.Fingerprints[j] {
				fmt.Fprintf(tw, "%s\tfingerprint, seed %d\t%s\t%s\t\t\t\t\tBREACH\n", wa.Workload, wa.Seeds[j], wa.Fingerprints[j], wb.Fingerprints[j])
				breaches++
			}
		}
		for _, name := range simulatedCounts {
			if va, vb := wa.PerLayer[name].Value, wb.PerLayer[name].Value; va != vb {
				fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t\t\t\t\tBREACH\n", wa.Workload, name, va, vb)
				breaches++
			}
		}
	}
	tw.Flush()
	if !a.Correct || !b.Correct {
		fmt.Println("a correctness check failed; see the problems in baseline.json")
		breaches++
	}
	fmt.Printf("%d breaches\n", breaches)

	data, err := json.MarshalIndent(map[string]any{"set_a": a, "set_b": b, "breaches": breaches}, "", " ")
	if err == nil {
		err = os.WriteFile(baseline, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if breaches > 0 {
		return 1
	}
	return 0
}
