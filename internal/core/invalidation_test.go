package core

import (
	"reflect"
	"testing"

	"repro/internal/stats"
)

// TestEventInvalidationMatchesSweepRandomized steps an event-driven
// system and a swept reference (sweepStep) in lockstep under a random
// FailStall workload aggressive enough to mix fully matched rounds,
// stall episodes, cache expiry, and frozen-entry decay, comparing the
// complete observable state every round: step results, busy sets,
// request progress, and the actual matching. Both systems use the
// indexed store, so any divergence is the invalidation path's fault.
func TestEventInvalidationMatchesSweepRandomized(t *testing.T) {
	mk := func() *System {
		return buildHomogeneous(t, 41, 18, 1, 4, 9, 2, 0.8, 2.0, func(cfg *Config) {
			cfg.Failure = FailStall
			cfg.TraceRounds = true
		})
	}
	event, sweep := mk(), mk()
	genE := &uniformGen{rng: stats.NewRNG(977), p: 0.8}
	genS := &uniformGen{rng: stats.NewRNG(977), p: 0.8}
	for r := 1; r <= 160; r++ {
		resE, errE := event.Step(genE)
		resS, errS := sweepStep(sweep, genS)
		if errE != nil || errS != nil {
			t.Fatalf("round %d: errors event=%v sweep=%v", r, errE, errS)
		}
		if !reflect.DeepEqual(resE, resS) {
			t.Fatalf("round %d step results diverge:\nevent: %+v\nsweep: %+v", r, resE, resS)
		}
		for b := 0; b < event.n; b++ {
			if event.boxes[b].busy() != sweep.boxes[b].busy() {
				t.Fatalf("round %d: busy[%d] diverges", r, b)
			}
		}
		for _, slot := range event.matcher.ActiveLefts() {
			if event.encodedProgress(int(slot)) != sweep.encodedProgress(int(slot)) {
				t.Fatalf("round %d: progress of slot %d diverges: %d vs %d",
					r, slot, event.encodedProgress(int(slot)), sweep.encodedProgress(int(slot)))
			}
			if se, ss := event.matcher.Server(int(slot)), sweep.matcher.Server(int(slot)); se != ss {
				t.Fatalf("round %d: slot %d assigned %d (event) vs %d (sweep)", r, slot, se, ss)
			}
		}
	}
	repE, repS := event.Report(), sweep.Report()
	if !reflect.DeepEqual(repE, repS) {
		t.Fatalf("reports diverge:\nevent: %+v\nsweep: %+v", repE, repS)
	}
	if repE.Stalls == 0 {
		t.Fatal("workload produced no stalls: sweep-fallback transitions untested")
	}
}

// TestBatchStallSweepComposition confirms the batch augmentation path
// composes with the invalidation machinery end to end: an aggressive
// FailStall workload on an event-driven system (certificates + recheck
// ring, sweep fallback during stall episodes) must mix stall rounds and
// recoveries without ever corrupting the matcher (Paranoid verifies every
// round), and must come back to a certificate-driven steady state — a
// fully matched round with the sweep flag cleared — after stalling.
func TestBatchStallSweepComposition(t *testing.T) {
	sys := buildHomogeneous(t, 47, 18, 1, 4, 9, 2, 0.8, 2.0, func(cfg *Config) {
		cfg.Failure = FailStall
	})
	gen := &uniformGen{rng: stats.NewRNG(733), p: 0.8}
	stalledRounds, recoveries := 0, 0
	stalled := false
	for r := 1; r <= 200; r++ {
		res, err := sys.Step(gen)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if res.Unmatched > 0 {
			stalledRounds++
			stalled = true
			if !sys.needSweep {
				t.Fatalf("round %d: stall did not arm the sweep fallback", r)
			}
		} else if stalled && !sys.needSweep {
			// A full matching after a stall episode: certificates rebuilt.
			recoveries++
			stalled = false
		}
	}
	if stalledRounds == 0 {
		t.Fatal("workload produced no stalls: the sweep-fallback composition is untested")
	}
	if recoveries == 0 {
		t.Fatal("system never recovered to certificate-driven operation after a stall episode")
	}
}
