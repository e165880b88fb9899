package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/allocation"
	"repro/internal/ckpt"
	"repro/internal/stats"
	"repro/internal/video"
)

// buildRelayedSmall assembles a minimal relayed system inside the core
// package so the Section 4 code paths are covered here too (the richer
// integration suite lives in package hetero).
func buildRelayedSmall(t *testing.T, uPoor float64) *System {
	t.Helper()
	const n = 6
	const c, T, k = 25, 30, 2
	uploads := []float64{uPoor, uPoor, 3.0, 3.0, 3.0, 3.0}
	storage := make([]int, n)
	total := 0
	for i := range storage {
		storage[i] = int(uploads[i] * 2 * float64(c))
		total += storage[i]
	}
	m := total / (k * c)
	excess := total - m*k*c
	for b := range storage {
		take := excess
		if take > storage[b]/2 {
			take = storage[b] / 2
		}
		storage[b] -= take
		excess -= take
		if excess == 0 {
			break
		}
	}
	cat := video.MustCatalog(m, c, T)
	alloc, err := allocation.Permutation(stats.NewRNG(11), cat, storage, k)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{
		Alloc:    alloc,
		Uploads:  uploads,
		Mu:       1.05,
		Strategy: StrategyRelayed,
		UStar:    1.5,
		Relays:   []int{2, 3, NoRelay, NoRelay, NoRelay, NoRelay},
		Paranoid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRelayedPoorViewingLifecycle(t *testing.T) {
	sys := buildRelayedSmall(t, 0.5)
	gen := &scripted{byRound: map[int][]Demand{1: {{Box: 0, Video: 0}}}}
	// Stepped by hand so the run links, which mirror entries (issued a
	// round before they start) put to the test, are checked every round.
	for r := 0; r < 40 && !sys.Failed(); r++ {
		if _, err := sys.Step(gen); err != nil {
			t.Fatal(err)
		}
		checkRunLinks(t, sys)
	}
	rep := sys.Report()
	if rep.Failed {
		t.Fatalf("relayed poor viewing failed: %+v", rep.Obstructions)
	}
	if rep.CompletedViewings != 1 {
		t.Fatalf("completed = %d", rep.CompletedViewings)
	}
	if rep.StartupDelay.Mean != 6 {
		t.Errorf("poor relayed delay = %v, want 6", rep.StartupDelay.Mean)
	}
	// c_b = ⌊0.5·25 − 4·1.05⁴⌋ = ⌊7.64⌋ = 7 direct postponed requests.
	if rep.PostponedRequests == 0 {
		t.Error("no direct postponed requests despite c_b > 0")
	}
	if rep.RelayedRequests == 0 {
		t.Error("no relayed requests")
	}
}

func TestRelayedTinyUploadAllViaRelay(t *testing.T) {
	// u_b so small that c_b = 0: every postponed stripe goes via the relay.
	sys := buildRelayedSmall(t, 0.1)
	gen := &scripted{byRound: map[int][]Demand{1: {{Box: 0, Video: 0}}}}
	rep, err := sys.Run(gen, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatalf("tiny-upload viewing failed: %+v", rep.Obstructions)
	}
	if rep.PostponedRequests != 0 {
		t.Errorf("c_b should be 0, got %d direct requests", rep.PostponedRequests)
	}
	if rep.RelayedRequests == 0 {
		t.Error("no relayed requests")
	}
}

func TestRelayedRichViewingLifecycle(t *testing.T) {
	sys := buildRelayedSmall(t, 0.5)
	gen := &scripted{byRound: map[int][]Demand{1: {{Box: 2, Video: 0}}}}
	rep, err := sys.Run(gen, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed || rep.CompletedViewings != 1 {
		t.Fatalf("rich relayed-mode viewing wrong: %+v", rep)
	}
	if rep.StartupDelay.Mean != 4 {
		t.Errorf("rich relayed delay = %v, want 4", rep.StartupDelay.Mean)
	}
	if rep.RelayedRequests != 0 {
		t.Errorf("rich box should not relay, got %d", rep.RelayedRequests)
	}
}

func TestStrategyAndPolicyStrings(t *testing.T) {
	cases := map[string]string{
		StrategyPreload.String(): "preload",
		StrategyNaive.String():   "naive",
		StrategyRelayed.String(): "relayed",
		Strategy(42).String():    "strategy(42)",
		FailStop.String():        "stop",
		FailStall.String():       "stall",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

func TestSystemAccessors(t *testing.T) {
	sys := buildHomogeneous(t, 30, 12, 2, 3, 10, 4, 2.0, 1.5, nil)
	if sys.Round() != 0 {
		t.Errorf("fresh Round = %d", sys.Round())
	}
	if sys.NumBoxes() != 12 {
		t.Errorf("NumBoxes = %d", sys.NumBoxes())
	}
	if sys.Catalog().C != 3 {
		t.Errorf("Catalog = %v", sys.Catalog())
	}
	if !strings.Contains(sys.String(), "system{") {
		t.Errorf("String = %q", sys.String())
	}
	v := sys.View()
	if v.Round() != 0 {
		t.Errorf("view Round = %d", v.Round())
	}
	if v.SwarmSize(0) != 0 {
		t.Errorf("fresh SwarmSize = %d", v.SwarmSize(0))
	}
	if sys.TotalSlots() != 12*6 {
		t.Errorf("TotalSlots = %d", sys.TotalSlots())
	}
}

func TestDirectStripeCountClamps(t *testing.T) {
	// ⌊c·u − 4µ⁴⌋ clamped to [0, c−1].
	if got := directStripeCount(0.01, 10, 1.5); got != 0 {
		t.Errorf("tiny u: c_b = %d", got)
	}
	if got := directStripeCount(5.0, 10, 1.0); got != 9 {
		t.Errorf("huge u: c_b = %d, want c−1 = 9", got)
	}
	// Middle: u=0.5, c=25, µ=1.05: ⌊12.5 − 4.86⌋ = 7.
	if got := directStripeCount(0.5, 25, 1.05); got != 7 {
		t.Errorf("c_b = %d, want 7", got)
	}
}

// TestStepRejectsOutOfRangeDemand pins the admission boundary: a batch
// naming a box or video the system does not have is refused whole — the
// valid demand ahead of the bad one is not admitted either — Step names
// the offender in its error, and the system is still consistent (Paranoid
// verifies every round) and admits a clean batch on the next round.
func TestStepRejectsOutOfRangeDemand(t *testing.T) {
	const n = 12
	build := func() *System { return buildHomogeneous(t, 31, n, 2, 3, 10, 4, 2.0, 1.5, nil) }
	pastCatalog := video.ID(build().Catalog().M)
	for _, tc := range []struct {
		bad  Demand
		want string
	}{
		{Demand{Box: -1, Video: 0}, "names box -1"},
		{Demand{Box: n, Video: 0}, fmt.Sprintf("names box %d", n)},
		{Demand{Box: 0, Video: -1}, "names video -1"},
		{Demand{Box: 0, Video: pastCatalog}, fmt.Sprintf("names video %d", pastCatalog)},
		// Born in a round that has not come: the delay would fall below the
		// strategy's minimum, and far enough ahead it would be negative.
		{Demand{Box: 0, Video: 0, Born: 2}, "names birth round 2, a demand is born in rounds 1..1"},
		{Demand{Box: 0, Video: 0, Born: 1 << 40}, fmt.Sprintf("names birth round %d", 1<<40)},
	} {
		sys := build()
		gen := &scripted{byRound: map[int][]Demand{
			1: {{Box: 3, Video: 0}, tc.bad},
			2: {{Box: 3, Video: 0, Born: 2}}, // born this round: the boundary is legal
		}}
		res, err := sys.Step(gen)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "round 1: demand 1 of 2") {
			t.Fatalf("%+v: Step error %v, want one naming round 1, demand 1 of 2 and %q", tc.bad, err, tc.want)
		}
		if res.Round != 1 || res.Demanded != 0 || res.Admitted != 0 || !sys.View().BoxIdle(3) {
			t.Fatalf("%+v: refused batch left a trace: %+v, box 3 idle %v", tc.bad, res, sys.View().BoxIdle(3))
		}
		res, err = sys.Step(gen)
		if err != nil || res.Round != 2 || res.Admitted != 1 {
			t.Fatalf("%+v: round after the refused batch: %+v, %v", tc.bad, res, err)
		}
		if d := sys.Report().StartupDelay; d.N != 1 || d.Min != 3 {
			t.Fatalf("%+v: start-up delays after the refused batch: %+v, want the one admitted demand at 3", tc.bad, d)
		}
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		if err := sys.EncodeState(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := build().DecodeState(ckpt.NewReader(&buf)); err != nil {
			t.Fatalf("%+v: checkpoint taken after the refused batch does not load: %v", tc.bad, err)
		}
	}
}

// TestParanoidAuditsRefusedBatchRound: a round whose batch is refused
// still runs to its end, so Paranoid audits it like any other and reports
// a corrupt state ahead of the refusal.
func TestParanoidAuditsRefusedBatchRound(t *testing.T) {
	sys := buildHomogeneous(t, 31, 12, 2, 3, 10, 4, 2.0, 1.5, nil)
	sys.boxes[5].outstanding++ // work nobody views
	gen := &scripted{byRound: map[int][]Demand{1: {{Box: -1, Video: 0}}}}
	if _, err := sys.Step(gen); err == nil || !strings.Contains(err.Error(), "state corrupt") {
		t.Fatalf("Step error %v, want the audit's", err)
	}
}

func TestRunStopsEarlyOnFailure(t *testing.T) {
	const n, d, c, T, k = 10, 1, 4, 12, 1
	sys := buildHomogeneous(t, 8, n, d, c, T, k, 0.5, 2.0, nil)
	rep, err := sys.Run(genAvoidStored{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatal("expected failure")
	}
	if rep.Rounds >= 1000 {
		t.Errorf("Run did not stop early: %d rounds", rep.Rounds)
	}
}
