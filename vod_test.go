package vod

import (
	"reflect"
	"testing"
)

func TestNewHomogeneousDefaults(t *testing.T) {
	sys, err := New(Spec{Boxes: 30, Upload: 2.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cat := sys.Catalog()
	if cat.M <= 0 || cat.C <= 0 || cat.T != 100 {
		t.Fatalf("catalog defaults wrong: %v", cat)
	}
	rep, err := sys.Run(NewZipfWorkload(3, 0.3, 0.9), 150)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatalf("default homogeneous run failed: %+v", rep.Obstructions)
	}
	if rep.CompletedViewings == 0 {
		t.Fatal("nothing completed")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		{},                                 // no boxes
		{Boxes: 10},                        // no upload
		{Boxes: 10, Uploads: []float64{1}}, // wrong length
		{Boxes: 10, Upload: 1.5, Storages: []float64{1}}, // wrong length
		{Boxes: 10, Upload: 0.9},                         // below threshold, c underivable
	}
	for i, spec := range cases {
		if _, err := New(spec); err == nil {
			t.Errorf("spec case %d should fail", i)
		}
	}
}

func TestExplicitStripesBelowThreshold(t *testing.T) {
	// u < 1 is allowed when the caller fixes c explicitly (for
	// impossibility experiments).
	sys, err := New(Spec{Boxes: 10, Upload: 0.5, Stripes: 4, Storage: 1, Replicas: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(NewAvoidPossession(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatal("u=0.5 with m=10 catalog should be defeated")
	}
}

func TestResilientMode(t *testing.T) {
	sys, err := New(Spec{Boxes: 10, Upload: 0.5, Stripes: 4, Storage: 1, Replicas: 1,
		Resilient: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(NewAvoidPossession(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatal("resilient mode must not fail-stop")
	}
	if rep.Stalls == 0 {
		t.Fatal("expected stalls")
	}
}

func TestHeterogeneousRelayedSpec(t *testing.T) {
	pop := Bimodal(30, 0.7, 3.0, 0.5, 2.0)
	sys, err := New(Spec{
		Boxes:    30,
		Uploads:  pop.Uploads,
		Storages: pop.Storage,
		UStar:    1.5,
		Growth:   1.05,
		Duration: 40,
		Replicas: 3,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(NewPoorFirst(1.5), 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatalf("relayed spec failed: %+v", rep.Obstructions)
	}
	if rep.CompletedViewings == 0 {
		t.Fatal("no completions")
	}
}

func TestSourcingOnlySpec(t *testing.T) {
	sys, err := New(Spec{Boxes: 48, Upload: 2.5, Storage: 2, Stripes: 4,
		Duration: 20, Growth: 1.5, SourcingOnly: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(NewFlashCrowd(0), 40)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatal("sourcing-only flash crowd should fail")
	}
}

func TestPlanFor(t *testing.T) {
	plan, err := PlanFor(10000, 1.5, 4, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.C <= 0 || plan.K <= 0 || plan.M <= 0 || plan.Bound <= 0 {
		t.Fatalf("degenerate plan: %+v", plan)
	}
	if _, err := PlanFor(100, 0.9, 4, 1.2); err == nil {
		t.Fatal("below-threshold plan should fail")
	}
}

func TestHeteroPlanFor(t *testing.T) {
	pop := Bimodal(1000, 0.7, 3.0, 0.5, 2.0)
	plan, err := HeteroPlanFor(pop, 1.5, 1.05)
	if err != nil {
		t.Fatal(err)
	}
	if plan.C <= 0 || plan.K <= 0 {
		t.Fatalf("degenerate plan: %+v", plan)
	}
	if !plan.NecessaryOK || !plan.Compensatable {
		t.Errorf("healthy population flagged: %+v", plan)
	}
}

func TestStepAndView(t *testing.T) {
	sys, err := New(Spec{Boxes: 12, Upload: 2.0, Duration: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Step(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Round != 1 {
		t.Fatalf("first round = %d, want 1", res.Round)
	}
	if sys.View().NumBoxes() != 12 {
		t.Fatal("view wrong")
	}
	if sys.Failed() {
		t.Fatal("fresh system failed")
	}
}

func TestTraceOption(t *testing.T) {
	sys, err := New(Spec{Boxes: 12, Upload: 2.0, Duration: 10, Trace: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(NewDistinctVideos(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace) != 15 {
		t.Fatalf("trace length %d, want 15", len(rep.Trace))
	}
}

func TestAuditAllocation(t *testing.T) {
	// Generously provisioned: the audit must pass with margin above 1.
	healthy, err := New(Spec{Boxes: 40, Upload: 3.0, Storage: 2, Stripes: 4,
		Replicas: 8, Duration: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res := healthy.AuditAllocation(1, 60)
	if res.Probes == 0 {
		t.Fatal("no probes ran")
	}
	if res.Violations != 0 || res.Margin < 1 {
		t.Errorf("healthy system flagged: %+v", res)
	}
	// Starved: u=0.5 with k=1 must be flagged.
	starved, err := New(Spec{Boxes: 20, Upload: 0.5, Storage: 1, Stripes: 4,
		Replicas: 1, Duration: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res = starved.AuditAllocation(1, 60)
	if res.Violations == 0 || res.Margin >= 1 {
		t.Errorf("starved system passed: %+v", res)
	}
}

func TestWithRetryWrapping(t *testing.T) {
	sys, err := New(Spec{Boxes: 12, Upload: 2.0, Duration: 10, Growth: 1.0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen := WithRetry(NewZipfWorkload(5, 0.8, 1.0))
	rep, err := sys.Run(gen, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted == 0 {
		t.Fatal("nothing admitted through retry wrapper")
	}
}

// TestDeprecatedShardShims pins the three names the benchmark harness
// still uses of the removed sharded engine: Spec.Shards is accepted and
// changes nothing, Close does nothing any number of times (the system
// steps afterwards), and StageTiming is zero.
func TestDeprecatedShardShims(t *testing.T) {
	run := func(spec Spec) []StepResult {
		sys, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		gen := NewZipfWorkload(3, 0.4, 0.9)
		var out []StepResult
		for r := 0; r < 60; r++ {
			if r == 30 {
				sys.Close()
				sys.Close()
			}
			res, err := sys.Step(gen)
			if err != nil {
				t.Fatalf("%+v round %d: %v", spec, r+1, err)
			}
			out = append(out, res)
		}
		if st := sys.StageTiming(); st != (StageTiming{}) {
			t.Fatalf("stage timing %+v, want zeros", st)
		}
		return out
	}
	base := Spec{Boxes: 30, Upload: 2.0, Growth: 1.3, Resilient: true, Seed: 11}
	sharded := base
	sharded.Shards = 4
	if got, want := run(sharded), run(base); !reflect.DeepEqual(got, want) {
		t.Fatal("Spec.Shards changed the StepResult stream")
	}
}
