package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"
)

const exampleDir = "../../examples/scenarios"

// referenceSpecs loads every committed reference scenario.
func referenceSpecs(t *testing.T) map[string]*Spec {
	t.Helper()
	entries, err := os.ReadDir(exampleDir)
	if err != nil {
		t.Fatalf("reading %s: %v", exampleDir, err)
	}
	specs := map[string]*Spec{}
	for _, e := range entries {
		ext := filepath.Ext(e.Name())
		if e.IsDir() || (ext != ".yaml" && ext != ".json") {
			continue
		}
		path := filepath.Join(exampleDir, e.Name())
		s, err := ParseFile(path)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		base := strings.TrimSuffix(e.Name(), ext)
		if s.Name != base {
			t.Errorf("%s: spec name %q does not match file name", path, s.Name)
		}
		specs[s.Name] = s
	}
	if len(specs) < 6 {
		t.Fatalf("expected at least 6 reference scenarios, found %d", len(specs))
	}
	return specs
}

// TestReferenceGoldens runs every reference scenario end-to-end and pins
// its summary against the committed golden file. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/scenario -run TestReferenceGoldens
func TestReferenceGoldens(t *testing.T) {
	specs := referenceSpecs(t)
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		s := specs[name]
		t.Run(name, func(t *testing.T) {
			res, err := Run(s, RunOptions{})
			if err != nil {
				t.Fatalf("running %s: %v", name, err)
			}
			got := res.GoldenSummary()
			golden := filepath.Join(exampleDir, "golden", name+".txt")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", golden)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("summary drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestCorpusByteIdentity pins the determinism claim: the same spec + seed
// expands to a byte-identical corpus on every run.
func TestCorpusByteIdentity(t *testing.T) {
	for name, s := range referenceSpecs(t) {
		a, err := Expand(s, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Expand(s, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var bufA, bufB bytes.Buffer
		if err := a.Trace.WriteCSV(&bufA); err != nil {
			t.Fatal(err)
		}
		if err := b.Trace.WriteCSV(&bufB); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
			t.Errorf("%s: two expansions of the same spec+seed differ", name)
		}
		if a.Trace.Len() == 0 {
			t.Errorf("%s: generated an empty corpus", name)
		}
		if CorpusHash(a.Trace) != CorpusHash(b.Trace) {
			t.Errorf("%s: corpus hashes differ", name)
		}
	}
}

// TestGenerateReplayRoundTrip pins the corpus path end to end: the
// generated trace survives CSV and JSON serialization event-for-event,
// and a Replayer re-emits exactly the generated demands.
func TestGenerateReplayRoundTrip(t *testing.T) {
	s := mustParse(t, minimalSpec)
	ex, err := Expand(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	var csv, js bytes.Buffer
	if err := ex.Trace.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := ex.Trace.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := trace.ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := trace.ReadJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCSV.Events) != len(ex.Trace.Events) || len(fromJSON.Events) != len(ex.Trace.Events) {
		t.Fatalf("event counts diverged: gen=%d csv=%d json=%d",
			len(ex.Trace.Events), len(fromCSV.Events), len(fromJSON.Events))
	}
	for i := range ex.Trace.Events {
		if fromCSV.Events[i] != ex.Trace.Events[i] {
			t.Fatalf("csv event %d: got %+v want %+v", i, fromCSV.Events[i], ex.Trace.Events[i])
		}
		if fromJSON.Events[i] != ex.Trace.Events[i] {
			t.Fatalf("json event %d: got %+v want %+v", i, fromJSON.Events[i], ex.Trace.Events[i])
		}
	}
	// Replay re-emits exactly the recorded demands, round by round.
	rp := trace.NewReplayer(fromCSV)
	pos := 0
	for round := 1; round <= s.TotalRounds(); round++ {
		for _, d := range rp.Next(nil, round) {
			e := ex.Trace.Events[pos]
			if e.Round != round || e.Box != d.Box || e.Video != d.Video {
				t.Fatalf("replay event %d: got round=%d %+v want %+v", pos, round, d, e)
			}
			pos++
		}
	}
	if pos != len(ex.Trace.Events) {
		t.Fatalf("replay emitted %d of %d events", pos, len(ex.Trace.Events))
	}
}

const minimalSpec = `
scenario: 1
name: minimal
seed: 5
system:
  boxes: 200
  upload: 1.5
  stripes: 6
  duration: 20
phases:
  - name: only
    rounds: 60
    arrival:
      process: poisson
      rate: 4
`

func mustParse(t *testing.T, text string) *Spec {
	t.Helper()
	s, err := Parse([]byte(text), "test.yaml")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return s
}

// TestSeedChangesCorpus guards against the seed being ignored.
func TestSeedChangesCorpus(t *testing.T) {
	s := mustParse(t, minimalSpec)
	a, err := Expand(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(s, 6)
	if err != nil {
		t.Fatal(err)
	}
	if CorpusHash(a.Trace) == CorpusHash(b.Trace) {
		t.Fatal("different seeds produced identical corpora")
	}
}
