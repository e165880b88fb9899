package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesHarness holds BENCHMARK.json against the tables
// the harness reports from: same workloads, same metrics, same units,
// directions and bounds, in the same order.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the harness defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: malformed name or why over 200 characters", w.name)
		}
	}
	for _, tc := range []struct {
		what        string
		file, table []metricDecl
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(tc.file) != len(tc.table) {
			t.Fatalf("%s: %d metrics declared, %d in the harness", tc.what, len(tc.file), len(tc.table))
		}
		seen := map[string]bool{}
		for i, d := range tc.table {
			if tc.file[i] != d {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", tc.what, i, tc.file[i], d)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s: metric name %q is malformed or repeated", tc.what, d.Name)
			}
			seen[d.Name] = true
		}
	}
}

// checkMetrics requires exactly the declared metrics, each once, with its
// unit and a finite value.
func checkMetrics(t *testing.T, got map[string]metric, decls []metricDecl, nonZero bool) {
	t.Helper()
	if len(got) != len(decls) {
		t.Errorf("%d metrics emitted, %d declared", len(got), len(decls))
	}
	for _, d := range decls {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", d.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("end-to-end metric %s is %v; it may never read 0", d.Name, m.Value)
		}
	}
}

// checkSpans parses the span file and requires every child to lie inside
// its parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 || doc.Dropped != 0 {
		t.Fatalf("%d spans, %d dropped", len(doc.Spans), doc.Dropped)
	}
	for i, s := range doc.Spans {
		if s.EndNS < s.StartNS {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if int(s.Parent) >= i {
			t.Fatalf("span %d (%s) names a later span %d as its parent", i, s.Name, s.Parent)
		}
		if p := doc.Spans[s.Parent]; s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Fatalf("span %d (%s, %d..%d) lies outside its parent %d (%s, %d..%d)",
				i, s.Name, s.StartNS, s.EndNS, s.Parent, p.Name, p.StartNS, p.EndNS)
		}
	}
}

// TestSmoke runs every workload at the tiny scale, untraced and traced.
// The wire workloads start the real vodserve child, so -short skips them.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.kind != inProcess && testing.Short() {
				t.Skip("starts the vodserve child")
			}
			for _, traced := range []bool{false, true} {
				out := t.TempDir()
				rep, err := run(context.Background(), runConfig{
					w: w, seed: expectedSeed, seconds: 0.25, traced: traced, tiny: true, outDir: out, workDir: work,
				})
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d problems=%v",
						traced, rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed, rep.Problems)
				}
				if traced {
					checkMetrics(t, rep.Result.Metrics, perLayer, false)
					checkSpans(t, filepath.Join(out, "spans.json"))
					if ok := rep.Result.Metrics["ckpt.roundtrip_ok"].Value; ok != 1 {
						t.Errorf("ckpt.roundtrip_ok is %v", ok)
					}
				} else {
					checkMetrics(t, rep.Result.Metrics, endToEnd, true)
				}
				if _, err := os.Stat(filepath.Join(out, "run.json")); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("got %v %v %v, Python gives 1 2 3", q1, q2, q3)
	}
}
