package core

import (
	"reflect"
	"testing"

	"repro/internal/stats"
)

// sweepStep forces the Revalidate sweep for s's next round and steps it:
// the reference that targeted invalidation is pinned to. Certificates
// rebuilt at the end of a fully matched round are never consulted, since
// the next call forces the sweep again.
func sweepStep(s *System, gen Generator) (StepResult, error) {
	s.needSweep = true
	return s.Step(gen)
}

// useNaiveStore swaps in the linear-scan reference store. It must run
// right after NewSystem, and the system must then be stepped with
// sweepStep: the naive store logs no invalidation events.
func useNaiveStore(s *System) {
	s.avail = newNaiveAvailability(s.cat.NumStripes(), s.cat.T)
}

// driveLockstep steps a production system and a reference (stepped with
// sweepStep) through the same seeded workload for `rounds` rounds,
// applying the same deterministic capacity changes to both, and fails on
// the first observable divergence: StepResult (including the obstruction
// certificate, which reflect.DeepEqual follows through the pointer),
// per-slot progress, and the busy set. Returns the number of rounds with
// unmatched requests.
func driveLockstep(t *testing.T, prod, ref *System, seed uint64, p float64, rounds int, capFlip bool) int {
	t.Helper()
	genP := &uniformGen{rng: stats.NewRNG(seed), p: p}
	genR := &uniformGen{rng: stats.NewRNG(seed), p: p}
	n := prod.NumBoxes()
	origCap := prod.View().UploadSlots(0)
	stallRounds := 0
	for r := 1; r <= rounds; r++ {
		if capFlip {
			checkpointChurn(t, prod, r, origCap)
			checkpointChurn(t, ref, r, origCap)
		}
		resP, errP := prod.Step(genP)
		resR, errR := sweepStep(ref, genR)
		if errP != nil || errR != nil {
			t.Fatalf("round %d: errors production=%v reference=%v", r, errP, errR)
		}
		if !reflect.DeepEqual(resP, resR) {
			t.Fatalf("round %d: step results diverge\nproduction: %+v\nreference:  %+v", r, resP, resR)
		}
		for _, slot := range prod.matcher.ActiveLefts() {
			if prod.encodedProgress(int(slot)) != ref.encodedProgress(int(slot)) {
				t.Fatalf("round %d: progress of slot %d diverges: %d vs %d",
					r, slot, prod.encodedProgress(int(slot)), ref.encodedProgress(int(slot)))
			}
		}
		for b := 0; b < n; b++ {
			if prod.boxes[b].busy() != ref.boxes[b].busy() {
				t.Fatalf("round %d: busy state of box %d diverges", r, b)
			}
		}
		if resP.Unmatched > 0 {
			stallRounds++
		}
		if prod.Failed() {
			break
		}
	}
	return stallRounds
}

// TestReferencePinsLockstep holds each retained reference (naive
// availability, sweep revalidation) in lockstep with the production path
// over a FailStall workload that mixes admissions, retirements, capacity
// changes, and stall rounds. Stall rounds are the hard case — different
// maximum matchings cover different request subsets — and
// CanonicalizeDeficit is what pins both sides to one stall set.
func TestReferencePinsLockstep(t *testing.T) {
	pins := []struct {
		name    string
		install func(*System)
	}{
		{"naive-availability", useNaiveStore},
		{"sweep-revalidation", nil},
	}
	for _, pin := range pins {
		t.Run(pin.name, func(t *testing.T) {
			mk := func() *System {
				return buildHomogeneous(t, 43, 18, 1, 4, 9, 2, 0.8, 2.0, func(cfg *Config) {
					cfg.Failure = FailStall
				})
			}
			prod, ref := mk(), mk()
			if pin.install != nil {
				pin.install(ref)
			}
			if driveLockstep(t, prod, ref, 1213, 0.8, 120, true) == 0 {
				t.Fatal("workload never stalled: the canonical-deficit comparison is untested")
			}
		})
	}
}
