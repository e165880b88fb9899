package core

import (
	"reflect"
	"testing"

	"repro/internal/stats"
)

// driveLockstep steps every system through the same seeded workload for
// `rounds` rounds, applying the same deterministic capacity changes to
// all of them, and fails on the first observable divergence from the
// first system: StepResult (including the obstruction certificate, which
// reflect.DeepEqual follows through the pointer), per-slot progress, and
// the busy set. Returns the number of rounds with unmatched requests.
func driveLockstep(t *testing.T, systems []*System, seed uint64, p float64, rounds int, capFlip bool) int {
	t.Helper()
	gens := make([]Generator, len(systems))
	for i := range systems {
		gens[i] = &uniformGen{rng: stats.NewRNG(seed), p: p}
	}
	ref := systems[0]
	n := ref.NumBoxes()
	origCap := ref.View().UploadSlots(0)
	stallRounds := 0
	for r := 1; r <= rounds; r++ {
		var refRes StepResult
		for i, sys := range systems {
			if capFlip {
				checkpointChurn(t, sys, r, origCap)
			}
			res, err := sys.Step(gens[i])
			if err != nil {
				t.Fatalf("round %d system %d: %v", r, i, err)
			}
			if i == 0 {
				refRes = res
				continue
			}
			if !reflect.DeepEqual(res, refRes) {
				t.Fatalf("round %d: step results diverge\nsystem 0: %+v\nsystem %d: %+v", r, refRes, i, res)
			}
			for _, slot := range ref.activeList {
				if ref.reqProgress[slot] != sys.reqProgress[slot] {
					t.Fatalf("round %d system %d: progress of slot %d diverges: %d vs %d",
						r, i, slot, ref.reqProgress[slot], sys.reqProgress[slot])
				}
			}
			for b := 0; b < n; b++ {
				if ref.boxes[b].busy != sys.boxes[b].busy {
					t.Fatalf("round %d system %d: busy state of box %d diverges", r, i, b)
				}
			}
		}
		if refRes.Unmatched > 0 {
			stallRounds++
		}
		if ref.Failed() {
			break
		}
	}
	return stallRounds
}

// TestReferencePinsLockstep holds each retained reference path (naive
// availability, sweep revalidation, serial augmentation) in lockstep with
// the production path over a FailStall workload that mixes admissions,
// retirements, capacity changes, and stall rounds. Stall rounds are the
// hard case — different maximum matchings cover different request subsets
// — and CanonicalizeDeficit is what pins both sides to one stall set.
func TestReferencePinsLockstep(t *testing.T) {
	pins := []struct {
		name  string
		tweak func(*Config)
	}{
		{"naive-availability", func(cfg *Config) { cfg.NaiveAvailability = true }},
		{"sweep-revalidation", func(cfg *Config) { cfg.SweepRevalidation = true }},
		{"serial-augment", func(cfg *Config) { cfg.SerialAugment = true }},
	}
	for _, pin := range pins {
		t.Run(pin.name, func(t *testing.T) {
			mk := func(tweak func(*Config)) *System {
				return buildHomogeneous(t, 43, 18, 1, 4, 9, 2, 0.8, 2.0, func(cfg *Config) {
					cfg.Failure = FailStall
					if tweak != nil {
						tweak(cfg)
					}
				})
			}
			systems := []*System{mk(nil), mk(pin.tweak)}
			if driveLockstep(t, systems, 1213, 0.8, 120, true) == 0 {
				t.Fatal("workload never stalled: the canonical-deficit comparison is untested")
			}
		})
	}
}
