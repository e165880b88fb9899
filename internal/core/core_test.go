package core

import (
	"testing"
	"unsafe"

	"repro/internal/allocation"
	"repro/internal/stats"
	"repro/internal/video"
)

// TestRecordSizes pins the per-request records whose size is the engine's
// memory per live request: a cache entry with its index links fills half a
// cache line, and a pending issuance carries no round and no mirror.
func TestRecordSizes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		size, want uintptr
	}{
		{"idxEntry", unsafe.Sizeof(idxEntry{}), 32},
		{"issuance", unsafe.Sizeof(issuance{}), 12},
	} {
		if tc.size != tc.want {
			t.Errorf("%s is %d bytes, want %d", tc.name, tc.size, tc.want)
		}
	}
}

// scripted replays a fixed demand schedule.
type scripted struct {
	byRound map[int][]Demand
}

func (g *scripted) Next(_ *View, round int) []Demand { return g.byRound[round] }

// uniformGen has every idle box demand a random non-stored video with
// probability p, respecting swarm allowances.
type uniformGen struct {
	rng *stats.RNG
	p   float64
}

func (g *uniformGen) Next(v *View, _ int) []Demand {
	var out []Demand
	cat := v.Catalog()
	for b := 0; b < v.NumBoxes(); b++ {
		if !v.BoxIdle(b) || !g.rng.Bool(g.p) {
			continue
		}
		vid := video.ID(g.rng.Intn(cat.M))
		if v.SwarmAllowance(vid) <= 0 {
			continue
		}
		out = append(out, Demand{Box: b, Video: vid})
	}
	return out
}

// buildHomogeneous builds a homogeneous test system.
func buildHomogeneous(t testing.TB, seed uint64, n, d, c, T, k int, u, mu float64, tweak func(*Config)) *System {
	t.Helper()
	rng := stats.NewRNG(seed)
	alloc, _, err := allocation.HomogeneousPermutation(rng, n, d, c, T, k)
	if err != nil {
		t.Fatal(err)
	}
	uploads := make([]float64, n)
	for i := range uploads {
		uploads[i] = u
	}
	cfg := Config{Alloc: alloc, Uploads: uploads, Mu: mu, Paranoid: true}
	if tweak != nil {
		tweak(&cfg)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestConfigValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	alloc, _, err := allocation.HomogeneousPermutation(rng, 4, 2, 2, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	ups := []float64{1.5, 1.5, 1.5, 1.5}
	cases := []Config{
		{},                           // no allocation
		{Alloc: alloc},               // missing uploads
		{Alloc: alloc, Uploads: ups}, // µ < 1
		{Alloc: alloc, Uploads: ups[:2], Mu: 1.2},                                    // wrong upload count
		{Alloc: alloc, Uploads: []float64{-1, 1, 1, 1}, Mu: 1.2},                     // negative upload
		{Alloc: alloc, Uploads: []float64{1e10, 1, 1, 1}, Mu: 1.2},                   // capacity past int32 slots
		{Alloc: alloc, Uploads: ups, Mu: 1.2, Relays: []int{-1, -1, -1, -1}},         // relays without strategy
		{Alloc: alloc, Uploads: ups, Mu: 1.2, Strategy: StrategyRelayed},             // relayed without u*
		{Alloc: alloc, Uploads: ups, Mu: 1.2, Strategy: StrategyRelayed, UStar: 1.2}, // relayed without relays
		{Alloc: alloc, Uploads: ups, Mu: 1.2, Strategy: Strategy(99)},                // unknown strategy
	}
	for i, cfg := range cases {
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("config case %d should fail", i)
		}
	}
}

func TestSingleViewingLifecycle(t *testing.T) {
	const T = 10
	sys := buildHomogeneous(t, 2, 12, 2, 3, T, 4, 2.0, 1.5, nil)
	gen := &scripted{byRound: map[int][]Demand{1: {{Box: 0, Video: 0}}}}
	rep, err := sys.Run(gen, T+3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatalf("single viewing failed: %+v", rep.Obstructions)
	}
	if rep.Admitted != 1 {
		t.Fatalf("admitted = %d", rep.Admitted)
	}
	if rep.CompletedViewings != 1 {
		t.Fatalf("completed = %d, want 1", rep.CompletedViewings)
	}
	if rep.StartupDelay.Mean != 3 {
		t.Errorf("preload startup delay = %v, want 3", rep.StartupDelay.Mean)
	}
	// Box must be idle again at the end.
	if !sys.View().BoxIdle(0) {
		t.Error("box 0 still busy after viewing")
	}
}

func TestBusyBoxRejected(t *testing.T) {
	sys := buildHomogeneous(t, 3, 12, 2, 3, 10, 4, 2.0, 1.5, nil)
	gen := &scripted{byRound: map[int][]Demand{
		1: {{Box: 0, Video: 0}},
		2: {{Box: 0, Video: 1}}, // box 0 is mid-viewing
	}}
	rep, err := sys.Run(gen, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedBusy != 1 {
		t.Errorf("rejectedBusy = %d, want 1", rep.RejectedBusy)
	}
}

func TestSwarmGrowthRejection(t *testing.T) {
	// µ=1.5 and an empty swarm admit ⌈1.5⌉=2 boxes at round 0; a third
	// demand the same round must be rejected.
	sys := buildHomogeneous(t, 4, 12, 2, 3, 10, 4, 2.0, 1.5, nil)
	gen := &scripted{byRound: map[int][]Demand{
		1: {{Box: 0, Video: 0}, {Box: 1, Video: 0}, {Box: 2, Video: 0}},
	}}
	rep, err := sys.Run(gen, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != 2 || rep.RejectedSwarm != 1 {
		t.Errorf("admitted=%d rejectedSwarm=%d, want 2 and 1", rep.Admitted, rep.RejectedSwarm)
	}
}

func TestRandomWorkloadNoObstruction(t *testing.T) {
	// Comfortable parameters: u=2.5, c=4, k=6, µ=1.2 — swarming plus
	// allocation should serve random demand without obstruction.
	sys := buildHomogeneous(t, 5, 30, 2, 4, 15, 6, 2.5, 1.2, nil)
	gen := &uniformGen{rng: stats.NewRNG(99), p: 0.3}
	rep, err := sys.Run(gen, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatalf("random workload failed at round %d: %+v", rep.FailRound, rep.Obstructions)
	}
	if rep.CompletedViewings == 0 {
		t.Fatal("nothing completed")
	}
	if rep.MeanUtilization <= 0 || rep.MeanUtilization > 1 {
		t.Errorf("utilization = %v", rep.MeanUtilization)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Report {
		sys := buildHomogeneous(t, 7, 20, 2, 4, 12, 5, 2.5, 1.2, nil)
		gen := &uniformGen{rng: stats.NewRNG(123), p: 0.4}
		rep, err := sys.Run(gen, 60)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Admitted != b.Admitted || a.CompletedViewings != b.CompletedViewings ||
		a.Stalls != b.Stalls || a.MeanUtilization != b.MeanUtilization {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestImpossibilityBelowThreshold(t *testing.T) {
	// u = 0.5 < 1 and every box demands a video it has no data of: the
	// Section 1.3 adversary. Aggregate demand exceeds aggregate upload, so
	// an obstruction must appear.
	const n, d, c, T, k = 10, 1, 4, 12, 1 // m = dn/k = 10 videos
	sys := buildHomogeneous(t, 8, n, d, c, T, k, 0.5, 2.0, nil)
	gen := genAvoidStored{}
	rep, err := sys.Run(gen, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatal("u<1 with avoid-possession demands should produce an obstruction")
	}
	ob := rep.Obstructions[0]
	if int64(ob.Requests) <= ob.Slots {
		t.Errorf("certificate invalid: requests=%d slots=%d", ob.Requests, ob.Slots)
	}
	if ob.DistinctStripes <= 0 || ob.Boxes < 0 {
		t.Errorf("degenerate certificate: %+v", ob)
	}
}

// genAvoidStored makes every idle box demand a video it stores nothing of.
type genAvoidStored struct{}

func (genAvoidStored) Next(v *View, _ int) []Demand {
	var out []Demand
	cat := v.Catalog()
	for b := 0; b < v.NumBoxes(); b++ {
		if !v.BoxIdle(b) {
			continue
		}
		for m := 0; m < cat.M; m++ {
			vid := video.ID(m)
			stored := false
			for i := 0; i < cat.C; i++ {
				if v.Stores(b, cat.Stripe(vid, i)) {
					stored = true
					break
				}
			}
			if !stored && v.SwarmAllowance(vid) > 0 {
				out = append(out, Demand{Box: b, Video: vid})
				break
			}
		}
	}
	return out
}

func TestFailStallKeepsRunning(t *testing.T) {
	const n, d, c, T, k = 10, 1, 4, 12, 1
	sys := buildHomogeneous(t, 8, n, d, c, T, k, 0.5, 2.0, func(cfg *Config) {
		cfg.Failure = FailStall
	})
	rep, err := sys.Run(genAvoidStored{}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatal("stall mode must not fail-stop")
	}
	if rep.Stalls == 0 {
		t.Fatal("expected stalls under starvation")
	}
	if rep.Rounds != 30 {
		t.Errorf("rounds = %d, want 30", rep.Rounds)
	}
}

func TestFlashCrowdPreloadSurvives(t *testing.T) {
	// Everyone piles onto video 0 at maximal growth µ=1.5 with c=4 >
	// (2µ²−1)/(u−1) = 2.33: the preloading strategy must absorb it.
	const n, d, c, T, k = 24, 2, 4, 20, 4
	sys := buildHomogeneous(t, 9, n, d, c, T, k, 2.5, 1.5, nil)
	rep, err := sys.Run(genFlashCrowd{target: 0}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatalf("flash crowd broke the preload strategy at round %d: %+v",
			rep.FailRound, rep.Obstructions)
	}
	if rep.MaxSwarm < n/2 {
		t.Errorf("flash crowd never grew: max swarm %d", rep.MaxSwarm)
	}
}

// genFlashCrowd floods one video at the maximum admissible rate.
type genFlashCrowd struct{ target video.ID }

func (g genFlashCrowd) Next(v *View, _ int) []Demand {
	var out []Demand
	allow := v.SwarmAllowance(g.target)
	for b := 0; b < v.NumBoxes() && allow > 0; b++ {
		if v.BoxIdle(b) {
			out = append(out, Demand{Box: b, Video: g.target})
			allow--
		}
	}
	return out
}

func TestSourcingOnlyWeakerThanSwarming(t *testing.T) {
	// With caches disabled (sourcing-only baseline, experiment E9) a flash
	// crowd larger than the per-stripe sourcing capacity k·⌊uc⌋ = 40 must
	// hit an obstruction...
	const n, d, c, T, k = 48, 2, 4, 20, 4
	sourcing := buildHomogeneous(t, 9, n, d, c, T, k, 2.5, 1.5, func(cfg *Config) {
		cfg.DisableCacheServing = true
	})
	rep, err := sourcing.Run(genFlashCrowd{target: 0}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatal("sourcing-only baseline should collapse under a flash crowd")
	}
	// ...that swarming absorbs at identical parameters.
	swarming := buildHomogeneous(t, 9, n, d, c, T, k, 2.5, 1.5, nil)
	rep2, err := swarming.Run(genFlashCrowd{target: 0}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Failed {
		t.Fatalf("swarming should absorb the same crowd; failed at round %d: %+v",
			rep2.FailRound, rep2.Obstructions)
	}
}

func TestSelfPossessionSkipsRequests(t *testing.T) {
	// One box stores the full catalog (n=1... use 2 boxes, box 0 stores
	// everything of video 0 by construction): build a tiny custom
	// allocation where box 0 stores all stripes of video 0.
	cat := video.MustCatalog(2, 2, 8)
	alloc, err := allocation.Permutation(stats.NewRNG(1), cat, []int{4, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Find a box and video fully self-stored, if any; otherwise force the
	// scenario through FullReplication.
	full, _ := allocation.FullReplication(cat, []int{4, 4}, 2)
	_ = alloc
	cfg := Config{Alloc: full, Uploads: []float64{2, 2}, Mu: 2, Paranoid: true}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With k=2 over 2 boxes round-robin, both boxes store every stripe:
	// a demand completes instantly with zero requests.
	gen := &scripted{byRound: map[int][]Demand{1: {{Box: 0, Video: 0}}}}
	rep, err := sys.Run(gen, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompletedViewings != 1 {
		t.Fatalf("self-possessed viewing did not complete instantly: %+v", rep)
	}
	if rep.PeakRequests != 0 {
		t.Errorf("no requests should have been issued, peak = %d", rep.PeakRequests)
	}
}

func TestNaiveStrategyStartupDelay(t *testing.T) {
	sys := buildHomogeneous(t, 11, 12, 2, 3, 10, 4, 2.0, 1.5, func(cfg *Config) {
		cfg.Strategy = StrategyNaive
	})
	gen := &scripted{byRound: map[int][]Demand{1: {{Box: 0, Video: 0}}}}
	rep, err := sys.Run(gen, 13)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatalf("naive single viewing failed")
	}
	if rep.StartupDelay.Mean != 2 {
		t.Errorf("naive startup delay = %v, want 2", rep.StartupDelay.Mean)
	}
}

func TestTraceRounds(t *testing.T) {
	sys := buildHomogeneous(t, 12, 12, 2, 3, 10, 4, 2.0, 1.5, func(cfg *Config) {
		cfg.TraceRounds = true
	})
	gen := &uniformGen{rng: stats.NewRNG(5), p: 0.5}
	rep, err := sys.Run(gen, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace) != 20 {
		t.Fatalf("trace has %d rounds, want 20", len(rep.Trace))
	}
	for i, rs := range rep.Trace {
		if rs.Round != i+1 {
			t.Fatalf("trace round %d labeled %d", i, rs.Round)
		}
		if rs.Utilization < 0 || rs.Utilization > 1 {
			t.Fatalf("utilization %v out of range", rs.Utilization)
		}
	}
}

func TestStepAfterFailureErrors(t *testing.T) {
	const n, d, c, T, k = 10, 1, 4, 12, 1
	sys := buildHomogeneous(t, 8, n, d, c, T, k, 0.5, 2.0, nil)
	if _, err := sys.Run(genAvoidStored{}, 10); err != nil {
		t.Fatal(err)
	}
	if !sys.Failed() {
		t.Fatal("system should have failed")
	}
	if _, err := sys.Step(nil); err == nil {
		t.Fatal("stepping a failed system should error")
	}
}

func TestStartupDelayWithBorn(t *testing.T) {
	sys := buildHomogeneous(t, 13, 12, 2, 3, 10, 4, 2.0, 1.5, nil)
	// Demand born at round 1 but only admitted at round 4.
	gen := &scripted{byRound: map[int][]Demand{4: {{Box: 0, Video: 0, Born: 1}}}}
	rep, err := sys.Run(gen, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StartupDelay.Mean != 6 { // 3 waiting + 3 intrinsic
		t.Errorf("delay with Born = %v, want 6", rep.StartupDelay.Mean)
	}
}

func TestViewAccessors(t *testing.T) {
	sys := buildHomogeneous(t, 14, 12, 2, 3, 10, 4, 2.0, 1.5, nil)
	v := sys.View()
	if v.NumBoxes() != 12 {
		t.Errorf("NumBoxes = %d", v.NumBoxes())
	}
	if v.Upload(0) != 2.0 {
		t.Errorf("Upload = %v", v.Upload(0))
	}
	if v.UploadSlots(0) != 6 {
		t.Errorf("UploadSlots = %d, want ⌊2·3⌋ = 6", v.UploadSlots(0))
	}
	idle := v.IdleBoxes(nil)
	if len(idle) != 12 {
		t.Errorf("IdleBoxes = %d", len(idle))
	}
	if v.ActiveRequests() != 0 {
		t.Errorf("ActiveRequests = %d", v.ActiveRequests())
	}
	st := v.Catalog().Stripe(0, 0)
	if v.Replicas(st) != 4 {
		t.Errorf("Replicas = %d", v.Replicas(st))
	}
	if len(v.StripeHolders(st)) != 4 {
		t.Errorf("StripeHolders = %d", len(v.StripeHolders(st)))
	}
}

func TestBackToBackViewings(t *testing.T) {
	// A box watches two videos in sequence; its playback cache from the
	// first viewing stays serviceable (window T) during the second.
	const T = 8
	sys := buildHomogeneous(t, 15, 12, 2, 3, T, 4, 2.0, 1.5, nil)
	gen := &scripted{byRound: map[int][]Demand{
		1:     {{Box: 0, Video: 0}},
		T + 3: {{Box: 0, Video: 1}},
	}}
	rep, err := sys.Run(gen, 2*T+8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatal("sequential viewings failed")
	}
	if rep.CompletedViewings != 2 {
		t.Fatalf("completed = %d, want 2", rep.CompletedViewings)
	}
}
