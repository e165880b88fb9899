package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/allocation"
	"repro/internal/stats"
	"repro/internal/video"
)

// This file pins the indexed availability substrate to the retained naive
// linear-scan reference, two ways:
//
//  1. A store-level property test drives both implementations with one
//     randomized event stream (adds, freezes, window expiry) and asserts
//     every query — visitHead/visitStep walks, canServe, margin, hasFull,
//     live counts — agrees after each round.
//  2. A system-level differential test runs full simulations twice, once
//     per store (the reference installed by useNaiveStore and stepped with
//     sweepStep), and asserts identical step results, obstruction
//     certificates, and reports round by round.
//     Under FailStop every pre-failure round has all requests matched and
//     the Hall-violator sets are invariant across maximum matchings, so
//     runs must agree exactly however the matcher orders its search.

// diffReq is the property driver's model of a request backing entries.
type diffReq struct {
	slot   int32
	stripe video.StripeID
	live   bool
}

func TestAvailabilityStoresAgree(t *testing.T) {
	// small keeps every chain and list short enough to read in a failure.
	// wide holds a few hundred (stripe, box) keys at once and expires as
	// many per round, so the indexed store's key table doubles several
	// times and backward-shifts constantly.
	t.Run("small", func(t *testing.T) { storesAgree(t, 24, 16, 9, 120, 3) })
	t.Run("wide", func(t *testing.T) {
		idx := storesAgree(t, 64, 200, 9, 60, 60)
		if len(idx.byKey.slots) == keyIndexMinSlots {
			t.Fatal("the key table never grew: the scenario is too small to exercise it")
		}
	})
}

// storesAgree drives one indexed and one naive store through the same
// random rounds of up to maxAdds requests each and returns the indexed one.
func storesAgree(t *testing.T, numStripes, numBoxes, T, rounds, maxAdds int) *indexedAvailability {
	rng := stats.NewRNG(0xd1ff)
	idx := newIndexedAvailability(numStripes, T)
	naive := newNaiveAvailability(numStripes, T)
	stores := []availabilityStore{idx, naive}

	// Progress as the engine keeps it: clock − base, with the clock at the
	// round number while requests are issued, so a request's base starts
	// at its issue round.
	pv := progressView{clock: 1}
	var reqs []diffReq
	newSlot := func(st video.StripeID) int32 {
		slot := int32(len(pv.base))
		pv.base = append(pv.base, pv.clock)
		reqs = append(reqs, diffReq{slot: slot, stripe: st, live: true})
		return slot
	}

	for round := 1; round <= rounds; round++ {
		for _, s := range stores {
			s.expire(round)
		}
		// A few new requests, occasionally with a lagged mirror entry. The
		// first is (stripe 0, box 0): key 0 of the index.
		for i := 0; i < 1+rng.Intn(maxAdds); i++ {
			st := video.StripeID(rng.Intn(numStripes))
			box := int32(rng.Intn(numBoxes))
			if round == 1 && i == 0 {
				st, box = 0, 0
			}
			slot := newSlot(st)
			for _, s := range stores {
				s.add(st, entry{box: box, start: int32(round), req: slot})
			}
			if rng.Bool(0.4) {
				mirror := int32(rng.Intn(numBoxes))
				for _, s := range stores {
					s.add(st, entry{box: mirror, start: int32(round + 1), req: slot, lag: 1})
				}
			}
		}
		// Progress advances on a random subset of live requests: the clock
		// ticks and the rest stall.
		pv.clock++
		for i := range reqs {
			if reqs[i].live && !rng.Bool(0.8) {
				pv.base[reqs[i].slot]++
			}
		}
		// Some requests retire (freeze their entries).
		for i := range reqs {
			r := &reqs[i]
			if r.live && (pv.of(r.slot) >= int32(T) || rng.Bool(0.05)) {
				for _, s := range stores {
					s.retire(r.stripe, r.slot, pv.of(r.slot))
				}
				r.live = false
			}
		}

		if err := runLinkError(idx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Compare every query the system can pose.
		for st := video.StripeID(0); int(st) < numStripes; st++ {
			if idx.live(st) != naive.live(st) {
				t.Fatalf("round %d stripe %d: live %d (indexed) != %d (naive)",
					round, st, idx.live(st), naive.live(st))
			}
			exclude := int32(rng.Intn(numBoxes))
			need := int32(rng.Intn(T + 1))
			// The walk the adjacency's cursor runs. The indexed store
			// prepends and the naive one appends, so the indexed walk must
			// yield exactly the naive walk reversed: matcher visit order,
			// and with it bit-identity, rests on that order.
			want := walkBoxes(naive, st, exclude, need, pv)
			slices.Reverse(want)
			if got := walkBoxes(idx, st, exclude, need, pv); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d stripe %d walk(exclude=%d, need=%d): indexed %v, naive reversed %v",
					round, st, exclude, need, got, want)
			}
			for box := int32(0); int(box) < numBoxes; box++ {
				if g, w := idx.canServe(st, box, need, pv), naive.canServe(st, box, need, pv); g != w {
					t.Fatalf("round %d stripe %d canServe(box=%d, need=%d): indexed %v, naive %v",
						round, st, box, need, g, w)
				}
				gLive, gBest, gOK := idx.margin(st, box, need, pv)
				wLive, wBest, wOK := naive.margin(st, box, need, pv)
				if gLive != wLive || gBest != wBest || gOK != wOK {
					t.Fatalf("round %d stripe %d margin(box=%d, need=%d): indexed (%v, %d, %v), naive (%v, %d, %v)",
						round, st, box, need, gLive, gBest, gOK, wLive, wBest, wOK)
				}
				// The engine only asks about full copies; partial thresholds
				// must agree too.
				for _, full := range []int32{int32(T), int32(rng.Intn(T))} {
					if g, w := idx.hasFull(st, box, full), naive.hasFull(st, box, full); g != w {
						t.Fatalf("round %d stripe %d hasFull(box=%d, full=%d): indexed %v, naive %v",
							round, st, box, full, g, w)
					}
				}
			}
		}
	}
	return idx
}

// runDifferential steps a production system and a reference — built by
// mkSys(t, true) and stepped with sweepStep — in lockstep and fails on
// the first observable divergence.
func runDifferential(t *testing.T, name string, mkSys func(t *testing.T, ref bool) *System, mkGen func() Generator, rounds int) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		indexed := mkSys(t, false)
		naive := mkSys(t, true)
		genI, genN := mkGen(), mkGen()
		for r := 0; r < rounds && !indexed.Failed() && !naive.Failed(); r++ {
			resI, errI := indexed.Step(genI)
			resN, errN := sweepStep(naive, genN)
			if (errI == nil) != (errN == nil) {
				t.Fatalf("round %d: errors diverge: indexed %v, naive %v", r+1, errI, errN)
			}
			if errI != nil {
				t.Fatalf("round %d: %v", r+1, errI)
			}
			if !reflect.DeepEqual(resI, resN) {
				t.Fatalf("round %d: step results diverge:\nindexed: %+v\nnaive:   %+v", r+1, resI, resN)
			}
		}
		if indexed.Failed() != naive.Failed() {
			t.Fatalf("failure state diverges: indexed %v, naive %v", indexed.Failed(), naive.Failed())
		}
		repI, repN := indexed.Report(), naive.Report()
		if !reflect.DeepEqual(repI, repN) {
			t.Fatalf("reports diverge:\nindexed: %+v\nnaive:   %+v", repI, repN)
		}
	})
}

// burstGen forwards the inner generator's demands only on burst rounds,
// so an under-provisioned system stalls, drains, and stalls again.
type burstGen struct {
	inner       Generator
	burstRounds map[int]bool
}

func (g *burstGen) Next(v *View, round int) []Demand {
	if !g.burstRounds[round] {
		return nil
	}
	return g.inner.Next(v, round)
}

// relayedPoorFirst demands videos round-robin, poor boxes before rich —
// the in-package stand-in for the adversary package's PoorFirst.
type relayedPoorFirst struct {
	uStar float64
	next  video.ID
}

func (g *relayedPoorFirst) Next(v *View, _ int) []Demand {
	var out []Demand
	m := v.Catalog().M
	emit := func(b int) {
		if v.SwarmAllowance(g.next) > 0 {
			out = append(out, Demand{Box: b, Video: g.next})
		}
		g.next = video.ID((int(g.next) + 1) % m)
	}
	for b := 0; b < v.NumBoxes(); b++ {
		if v.BoxIdle(b) && v.Upload(b) < g.uStar {
			emit(b)
		}
	}
	for b := 0; b < v.NumBoxes(); b++ {
		if v.BoxIdle(b) && v.Upload(b) >= g.uStar {
			emit(b)
		}
	}
	return out
}

// buildRelayedDiff is buildRelayedSmall with a config hook.
func buildRelayedDiff(t *testing.T, naive bool) *System {
	t.Helper()
	const n = 6
	const c, T, k = 25, 30, 2
	uploads := []float64{0.5, 0.5, 3.0, 3.0, 3.0, 3.0}
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
		Alloc:       alloc,
		Uploads:     uploads,
		Mu:          1.05,
		Strategy:    StrategyRelayed,
		UStar:       1.5,
		Relays:      []int{2, 3, NoRelay, NoRelay, NoRelay, NoRelay},
		Paranoid:    true,
		TraceRounds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return withStore(naive, sys)
}

// withStore installs the naive reference store on sys when naive is set.
func withStore(naive bool, sys *System) *System {
	if naive {
		useNaiveStore(sys)
	}
	return sys
}

func TestIndexedMatchesNaiveAvailability(t *testing.T) {
	homogeneous := func(seed uint64, strategy Strategy, u float64) func(*testing.T, bool) *System {
		return func(t *testing.T, naive bool) *System {
			return withStore(naive, buildHomogeneous(t, seed, 24, 2, 4, 12, 4, u, 1.4, func(cfg *Config) {
				cfg.Strategy = strategy
				cfg.TraceRounds = true
			}))
		}
	}

	runDifferential(t, "preload/uniform", homogeneous(21, StrategyPreload, 2.5),
		func() Generator { return &uniformGen{rng: stats.NewRNG(501), p: 0.4} }, 90)
	runDifferential(t, "preload/flash", homogeneous(22, StrategyPreload, 2.5),
		func() Generator { return genFlashCrowd{target: 0} }, 60)
	runDifferential(t, "naive/uniform", homogeneous(23, StrategyNaive, 2.5),
		func() Generator { return &uniformGen{rng: stats.NewRNG(502), p: 0.4} }, 90)
	runDifferential(t, "naive/flash", homogeneous(24, StrategyNaive, 3.0),
		func() Generator { return genFlashCrowd{target: 1} }, 60)
	runDifferential(t, "relayed/poorfirst", buildRelayedDiff,
		func() Generator { return &relayedPoorFirst{uStar: 1.5} }, 80)

	// Under-provisioned: both stores must fail on the same round with the
	// same Hall-violator certificate.
	underProvisioned := func(t *testing.T, naive bool) *System {
		return withStore(naive, buildHomogeneous(t, 8, 10, 1, 4, 12, 1, 0.5, 2.0, func(cfg *Config) {
			cfg.TraceRounds = true
		}))
	}
	runDifferential(t, "obstruction/avoid", underProvisioned,
		func() Generator { return genAvoidStored{} }, 20)

	// Overload burst, drain, second burst under FailStall: stall rounds
	// force the event-driven engine into its Revalidate-sweep fallback,
	// and the first fully matched round afterwards rebuilds every
	// invalidation certificate — both transitions must stay bit-identical
	// to the always-sweep reference. The reference here is the *indexed*
	// store, swept every round (not the naive store): under stalls the
	// victim choice among equally maximum matchings depends on server
	// enumeration order, which differs between the two stores, so only
	// same-store pairs are exactly comparable in stall regimes (the
	// naive-store pairs above all run fully matched until failure).
	overloaded := func(t *testing.T, _ bool) *System {
		return buildHomogeneous(t, 33, 12, 1, 4, 10, 1, 0.75, 3.0, func(cfg *Config) {
			cfg.Failure = FailStall
			cfg.TraceRounds = true
		})
	}
	mkBursts := func() Generator {
		return &burstGen{inner: genAvoidStored{}, burstRounds: map[int]bool{
			1: true, 2: true, 3: true, 30: true, 31: true,
		}}
	}
	runDifferential(t, "stall/recovery", overloaded, mkBursts, 55)

	// The stall scenario must actually stall and then recover, or the
	// sweep-mode transitions it is meant to pin never happen.
	probe := overloaded(t, false)
	rep, err := probe.Run(mkBursts(), 55)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalls == 0 {
		t.Fatal("stall/recovery scenario produced no stalls")
	}
	recovered := false
	for i := 1; i < len(rep.Trace); i++ {
		if rep.Trace[i-1].Unmatched > 0 && rep.Trace[i].Unmatched == 0 {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("stall/recovery scenario never exited its stall episode")
	}

	// Back-to-back viewings exercise frozen-entry self-possession.
	backToBack := func(t *testing.T, naive bool) *System {
		return withStore(naive, buildHomogeneous(t, 25, 12, 2, 3, 8, 4, 2.0, 1.5, func(cfg *Config) {
			cfg.TraceRounds = true
		}))
	}
	runDifferential(t, "preload/backtoback", backToBack,
		func() Generator {
			return &scripted{byRound: map[int][]Demand{
				1:  {{Box: 0, Video: 0}},
				11: {{Box: 0, Video: 1}},
				12: {{Box: 1, Video: 0}},
			}}
		}, 30)
}
