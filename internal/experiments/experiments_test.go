package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Seed: 42, Quick: true} }

func TestRegistryComplete(t *testing.T) {
	var got []string
	for _, e := range All() {
		got = append(got, e.ID)
	}
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E13", "E14", "T1"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("registry = %v, want %v", got, want)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown ID should fail")
	}
}

func TestRegistryOrdering(t *testing.T) {
	all := All()
	// E1 must come before E2 and E10 after E9; T1 last-ish.
	pos := map[string]int{}
	for i, e := range all {
		pos[e.ID] = i
	}
	if pos["E2"] < pos["E1"] || pos["E10"] < pos["E9"] {
		t.Errorf("ordering wrong: %v", pos)
	}
}

// runQuick runs an experiment in quick mode and sanity-checks the output.
func runQuick(t *testing.T, id string) Result {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(quickOpts())
	if res.ID != id {
		t.Fatalf("result ID %q, want %q", res.ID, id)
	}
	if len(res.Tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	text := res.Text()
	if strings.Contains(text, "error:") {
		t.Fatalf("%s reported errors:\n%s", id, text)
	}
	return res
}

func TestE1ThresholdShape(t *testing.T) {
	res := runQuick(t, "E1")
	fig := res.Figures[0]
	measured := fig.Series[0]
	// Catalog at the largest u must exceed catalog at the smallest u and
	// beat the d·c cap (threshold shape).
	first, last := measured.Y[0], measured.Y[measured.Len()-1]
	if !(last > first) {
		t.Errorf("no threshold shape: m(%v)=%v vs m(%v)=%v",
			measured.X[0], first, measured.X[measured.Len()-1], last)
	}
	dcCap := fig.Series[1].Y[0]
	if !(last > dcCap) {
		t.Errorf("u>1 catalog %v does not beat the u<1 cap %v", last, dcCap)
	}
	if first > dcCap {
		t.Errorf("u<1 catalog %v exceeds the theoretical cap %v", first, dcCap)
	}
}

func TestE2LinearityShape(t *testing.T) {
	res := runQuick(t, "E2")
	measured := res.Figures[0].Series[0]
	if measured.Len() < 2 {
		t.Fatal("too few points")
	}
	// m must grow with n, and m/n must stay within a factor 3 band.
	var ratios []float64
	for i := 0; i < measured.Len(); i++ {
		if i > 0 && measured.Y[i] < measured.Y[i-1] {
			t.Errorf("catalog shrank with n: %v", measured.Y)
		}
		ratios = append(ratios, measured.Y[i]/measured.X[i])
	}
	minR, maxR := ratios[0], ratios[0]
	for _, r := range ratios {
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	if maxR > 3*minR {
		t.Errorf("m/n not roughly constant: %v", ratios)
	}
}

func TestE3MonotoneInU(t *testing.T) {
	res := runQuick(t, "E3")
	measured := res.Figures[0].Series[0]
	if measured.Y[measured.Len()-1] < measured.Y[0] {
		t.Errorf("catalog not growing in u: %v", measured.Y)
	}
}

func TestE4BoundDecreases(t *testing.T) {
	res := runQuick(t, "E4")
	emp := res.Figures[0].Series[0]
	// Highest-k defeat probability must not exceed lowest-k one.
	if emp.Y[emp.Len()-1] > emp.Y[0] {
		t.Errorf("defeat probability grew with k: %v", emp.Y)
	}
}

func TestE5CrossesThreshold(t *testing.T) {
	res := runQuick(t, "E5")
	fr := res.Figures[0].Series[0]
	// Failure rate at the largest c must be at most the smallest-c rate.
	if fr.Y[fr.Len()-1] > fr.Y[0] {
		t.Errorf("failure rate did not drop across the c threshold: %v", fr.Y)
	}
}

func TestE6ThresholdRow(t *testing.T) {
	res := runQuick(t, "E6")
	served := res.Figures[0].Series[0]
	// 0% poor must serve; 80% poor must not.
	if served.Y[0] != 1 {
		t.Errorf("homogeneous-rich row failed: %v", served.Y)
	}
	if served.Y[served.Len()-1] != 0 {
		t.Errorf("deficit-dominated row served: %v", served.Y)
	}
}

func TestE7DelayFloor(t *testing.T) {
	res := runQuick(t, "E7")
	mean := res.Figures[0].Series[0]
	for i := 0; i < mean.Len(); i++ {
		if mean.Y[i] < 3 {
			t.Errorf("mean delay %v below the intrinsic 3-round floor", mean.Y[i])
		}
	}
}

func TestE8PermutationExact(t *testing.T) {
	res := runQuick(t, "E8")
	tbl := res.Tables[0]
	for _, row := range tbl.Rows {
		if row[2] == "permutation" {
			if row[3] != "1" {
				t.Errorf("permutation max/mean = %q, want 1", row[3])
			}
			if row[4] != "0" {
				t.Errorf("permutation overflow = %q, want 0", row[4])
			}
		}
	}
}

func TestE9SwarmingDominates(t *testing.T) {
	res := runQuick(t, "E9")
	fig := res.Figures[0]
	sw, so := fig.Series[0], fig.Series[1]
	for i := 0; i < sw.Len() && i < so.Len(); i++ {
		if sw.Y[i] < so.Y[i] {
			t.Errorf("sourcing-only beat swarming at u=%v: %v < %v", sw.X[i], sw.Y[i], so.Y[i])
		}
	}
}

func TestE10CapIsSharp(t *testing.T) {
	res := runQuick(t, "E10")
	series := res.Figures[0].Series[0]
	for i := 0; i < series.Len(); i++ {
		m := series.X[i]
		if m > 8 && series.Y[i] != 1 {
			t.Errorf("m=%v above cap 8 was not defeated", m)
		}
	}
}

// TestE11GreedyGap pins E11's claim: greedy never beats the exact matcher,
// strands requests on at least one instance, and Dinic's max flow on the
// flow formulation equals the matcher's cardinality on every instance.
func TestE11GreedyGap(t *testing.T) {
	res := runQuick(t, "E11")
	strict := false
	for _, row := range res.Tables[0].Rows {
		optimal, err1 := strconv.Atoi(row[2])
		greedy, err2 := strconv.Atoi(row[3])
		if err1 != nil || err2 != nil {
			t.Fatalf("instance %s: unparsable counts %q, %q", row[0], row[2], row[3])
		}
		if greedy > optimal {
			t.Errorf("instance %s: greedy %d beats optimal %d", row[0], greedy, optimal)
		}
		if greedy < optimal {
			strict = true
		}
		if row[5] != "yes" {
			t.Errorf("instance %s: Dinic's max flow differs from the matcher's cardinality %d", row[0], optimal)
		}
	}
	if !strict {
		t.Error("greedy matched the optimum on every instance: no gap shows that Lemma 1 needs an exact matching")
	}
}

func TestE13PreloadBeatsNaive(t *testing.T) {
	res := runQuick(t, "E13")
	fig := res.Figures[0]
	pre, nai := fig.Series[0], fig.Series[1]
	for i := 0; i < pre.Len() && i < nai.Len(); i++ {
		if pre.Y[i] > nai.Y[i] {
			t.Errorf("preload failure rate %v exceeds naive %v at µ=%v",
				pre.Y[i], nai.Y[i], pre.X[i])
		}
	}
	// At the largest µ the gap must be strict.
	last := pre.Len() - 1
	if !(nai.Y[last] > pre.Y[last]) {
		t.Errorf("no strict advantage at µ=%v: preload %v vs naive %v",
			pre.X[last], pre.Y[last], nai.Y[last])
	}
}

func TestE14AuditMarginGrows(t *testing.T) {
	res := runQuick(t, "E14")
	fig := res.Figures[0]
	margin := fig.Series[0]
	defeat := fig.Series[1]
	// The audit margin must grow with k and the defeat rate must not.
	if margin.Y[margin.Len()-1] < margin.Y[0] {
		t.Errorf("audit margin shrank with k: %v", margin.Y)
	}
	if defeat.Y[defeat.Len()-1] > defeat.Y[0] {
		t.Errorf("defeat rate grew with k: %v", defeat.Y)
	}
}

func TestT1PlannerRows(t *testing.T) {
	res := runQuick(t, "T1")
	if len(res.Tables) != 2 {
		t.Fatalf("planner should emit 2 tables, got %d", len(res.Tables))
	}
	if len(res.Tables[0].Rows) < 5 || len(res.Tables[1].Rows) < 3 {
		t.Errorf("planner tables too small: %d, %d",
			len(res.Tables[0].Rows), len(res.Tables[1].Rows))
	}
}

func TestResultTextRendering(t *testing.T) {
	res := runQuick(t, "T1")
	text := res.Text()
	for _, want := range []string{"T1", "claim:", "Theorem 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered text missing %q", want)
		}
	}
}

// TestSuiteDeterministic pins the reproducibility contract of Options.Seed:
// the whole quick suite renders byte for byte the same whether experiments
// and their trials run on a worker pool or one at a time.
func TestSuiteDeterministic(t *testing.T) {
	render := func(results []Result) string {
		var b strings.Builder
		for _, r := range results {
			b.WriteString(r.Text())
		}
		return b.String()
	}
	all := All()
	parallel := render(RunMany(Options{Seed: 42, Quick: true, Workers: 4}, all))
	var seq []Result
	for _, e := range all {
		seq = append(seq, e.Run(Options{Seed: 42, Quick: true, Workers: 1}))
	}
	if sequential := render(seq); parallel != sequential {
		t.Errorf("parallel and sequential suite output differ:\n--- parallel\n%s\n--- sequential\n%s", parallel, sequential)
	}
}

func TestParallelHelpers(t *testing.T) {
	ok, err := parallelAll(4, 100, func(i int) (bool, error) { return true, nil })
	if !ok || err != nil {
		t.Fatalf("parallelAll all-true: %v %v", ok, err)
	}
	ok, _ = parallelAll(4, 100, func(i int) (bool, error) { return i != 50, nil })
	if ok {
		t.Fatal("parallelAll should fail when one trial fails")
	}
	count, err := parallelCount(4, 100, func(i int) (bool, error) { return i%2 == 0, nil })
	if err != nil || count != 50 {
		t.Fatalf("parallelCount = %d, %v; want 50", count, err)
	}
	// Serial paths.
	ok, _ = parallelAll(1, 3, func(i int) (bool, error) { return true, nil })
	if !ok {
		t.Fatal("serial parallelAll failed")
	}
	count, _ = parallelCount(1, 3, func(i int) (bool, error) { return true, nil })
	if count != 3 {
		t.Fatal("serial parallelCount wrong")
	}
}
