package core

import (
	"testing"

	"repro/internal/allocation"
	"repro/internal/stats"
	"repro/internal/video"
)

// TestSoakMixedWorkload runs a long paranoid simulation with a workload
// that mixes background demand, churn waves, and periodic flash crowds,
// checking engine invariants every round: once with upload to spare and
// once below the threshold, where requests stall and the retire ring has
// to move them on.
func TestSoakMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	t.Run("u=2.5", func(t *testing.T) { soakMixed(t, 2.5) })
	t.Run("u=0.9", func(t *testing.T) { soakMixed(t, 0.9) })
}

func soakMixed(t *testing.T, u float64) {
	const n, d, c, T, k = 40, 2, 4, 12, 5
	sys := buildHomogeneous(t, 77, n, d, c, T, k, u, 1.3, func(cfg *Config) {
		cfg.Failure = FailStall
	})
	rng := stats.NewRNG(101)
	gen := &mixedGen{rng: rng}
	early := 0
	for round := 0; round < 600; round++ {
		wasLive, before := liveSlots(sys), progressTable(sys)
		res, err := sys.Step(gen)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkLinks(t, sys)
		// A slot retires exactly when its progress has reached T, so T is
		// what the checkpoint's progress column says of every retired slot.
		early += checkRetireRing(t, sys)
		for slot, live := range wasLive {
			retired := !sys.matcher.Active(slot) || int(sys.reqStart[slot]) == sys.Round()
			if live && retired != (before[slot] == int32(T)) {
				t.Fatalf("round %d: slot %d entered at progress %d, retired %v", round, slot, before[slot], retired)
			}
		}
		for slot, live := range liveSlots(sys) {
			if !live && sys.encodedProgress(slot) != int32(T) {
				t.Fatalf("round %d: retired slot %d encodes progress %d", round, slot, sys.encodedProgress(slot))
			}
		}
		if res.Matched < 0 || res.Unmatched < 0 {
			t.Fatalf("round %d: negative counts %+v", round, res)
		}
		// Engine invariants.
		for b := 0; b < n; b++ {
			if sys.boxes[b].outstanding < 0 {
				t.Fatalf("round %d: box %d negative outstanding", round, b)
			}
		}
		for slot, active := range liveSlots(sys) {
			if !active {
				continue
			}
			if sys.encodedProgress(slot) < 0 || sys.encodedProgress(slot) > int32(T) {
				t.Fatalf("round %d: request %d progress %d out of [0,%d]",
					round, slot, sys.encodedProgress(slot), T)
			}
		}
	}
	rep := sys.Report()
	if rep.CompletedViewings < 100 {
		t.Errorf("soak completed only %d viewings", rep.CompletedViewings)
	}
	t.Logf("%d viewings, %d stalled request-rounds, %d slot-rounds filed ahead of their due clock",
		rep.CompletedViewings, rep.Stalls, early)
	if (u < 1) != (rep.Stalls > 0 && early > 0) {
		t.Errorf("u=%v soak stalled %d request-rounds and filed %d slot-rounds early", u, rep.Stalls, early)
	}
}

// mixedGen interleaves background Zipf-ish demand with periodic flash
// bursts and churn waves.
type mixedGen struct {
	rng *stats.RNG
}

func (g *mixedGen) Next(v *View, round int) []Demand {
	var out []Demand
	cat := v.Catalog()
	used := make(map[video.ID]int)
	take := func(vid video.ID) bool {
		if v.SwarmAllowance(vid)-used[vid] <= 0 {
			return false
		}
		used[vid]++
		return true
	}
	burst := round%37 < 3 // periodic flash phase
	target := video.ID(round / 37 % cat.M)
	for b := 0; b < v.NumBoxes(); b++ {
		if !v.BoxIdle(b) {
			continue
		}
		if burst {
			if take(target) {
				out = append(out, Demand{Box: b, Video: target})
			}
			continue
		}
		if g.rng.Bool(0.25) {
			vid := video.ID(g.rng.Intn(cat.M))
			if take(vid) {
				out = append(out, Demand{Box: b, Video: vid})
			}
		}
	}
	return out
}

func TestStallRecovery(t *testing.T) {
	// Build a system where an initial overload stalls requests, then
	// demand stops: stalled requests must finish once capacity frees up.
	const n, d, c, T, k = 12, 2, 4, 10, 2
	sys := buildHomogeneous(t, 5, n, d, c, T, k, 1.1, 4.0, func(cfg *Config) {
		cfg.Failure = FailStall
	})
	// Slam everyone onto one video instantly (µ=4 admits fast).
	gen := &scripted{byRound: map[int][]Demand{}}
	for r := 1; r <= 3; r++ {
		var ds []Demand
		for b := 0; b < n; b++ {
			ds = append(ds, Demand{Box: b, Video: 0})
		}
		gen.byRound[r] = ds
	}
	rep, err := sys.Run(gen, 120)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted == 0 {
		t.Fatal("nothing admitted")
	}
	// All admitted viewings must eventually complete despite stalls.
	if rep.CompletedViewings != rep.Admitted {
		t.Errorf("completed %d of %d admitted — stalled requests never recovered",
			rep.CompletedViewings, rep.Admitted)
	}
}

func TestSingleStripeCatalog(t *testing.T) {
	// c = 1: no striping at all. The engine must still work (one request
	// per viewing, preload only).
	sys := buildHomogeneous(t, 6, 12, 2, 1, 10, 4, 2.0, 1.5, nil)
	gen := &scripted{byRound: map[int][]Demand{1: {{Box: 0, Video: 0}, {Box: 1, Video: 1}}}}
	rep, err := sys.Run(gen, 14)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed || rep.CompletedViewings != 2 {
		t.Fatalf("c=1 run wrong: %+v", rep)
	}
}

func TestShortVideos(t *testing.T) {
	// T = 2: two-chunk videos; retirement and cache windows at their
	// smallest.
	sys := buildHomogeneous(t, 7, 12, 2, 2, 2, 4, 2.0, 1.5, nil)
	gen := &uniformGen{rng: stats.NewRNG(3), p: 0.5}
	rep, err := sys.Run(gen, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatalf("short videos failed: %+v", rep.Obstructions)
	}
	if rep.CompletedViewings == 0 {
		t.Fatal("nothing completed")
	}
}

func TestZeroUploadPopulation(t *testing.T) {
	// All-zero upload: any real demand must fail immediately (nobody can
	// serve), but construction itself is legal (pure-client population).
	rng := stats.NewRNG(8)
	alloc, _, err := allocation.HomogeneousPermutation(rng, 8, 1, 2, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{
		Alloc:   alloc,
		Uploads: make([]float64, 8),
		Mu:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(genAvoidStored{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatal("zero-upload system served an avoid-possession demand")
	}
}

func TestFirstObstructionRoundConsistent(t *testing.T) {
	// FailStop and FailStall must detect the first obstruction at the same
	// round on the same inputs.
	const n, d, c, T, k = 10, 1, 4, 12, 1
	stop := buildHomogeneous(t, 8, n, d, c, T, k, 0.5, 2.0, nil)
	repStop, err := stop.Run(genAvoidStored{}, 30)
	if err != nil {
		t.Fatal(err)
	}
	stall := buildHomogeneous(t, 8, n, d, c, T, k, 0.5, 2.0, func(cfg *Config) {
		cfg.Failure = FailStall
	})
	repStall, err := stall.Run(genAvoidStored{}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !repStop.Failed || len(repStall.Obstructions) == 0 {
		t.Fatal("expected obstructions in both modes")
	}
	if repStop.FailRound != repStall.Obstructions[0].Round {
		t.Errorf("first obstruction differs: stop=%d stall=%d",
			repStop.FailRound, repStall.Obstructions[0].Round)
	}
}

func TestServerLoadVisibleInView(t *testing.T) {
	sys := buildHomogeneous(t, 9, 12, 2, 3, 10, 4, 2.0, 1.5, nil)
	gen := &scripted{byRound: map[int][]Demand{1: {{Box: 0, Video: 0}}}}
	if _, err := sys.Step(gen); err != nil {
		t.Fatal(err)
	}
	v := sys.View()
	var total int64
	for b := 0; b < v.NumBoxes(); b++ {
		total += v.ServerLoad(b)
	}
	if total == 0 {
		t.Fatal("no server load visible after a matched preload request")
	}
}

func TestMuOneNoGrowth(t *testing.T) {
	// µ = 1: swarms never exceed one box; sequential viewings still work.
	sys := buildHomogeneous(t, 10, 12, 2, 3, 8, 4, 2.0, 1.0, nil)
	gen := &scripted{byRound: map[int][]Demand{
		1: {{Box: 0, Video: 0}, {Box: 1, Video: 0}},
	}}
	rep, err := sys.Run(gen, 12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != 1 || rep.RejectedSwarm != 1 {
		t.Fatalf("µ=1 admission wrong: admitted=%d rejected=%d", rep.Admitted, rep.RejectedSwarm)
	}
}

func TestRequestMixHomogeneous(t *testing.T) {
	// With no self-possession skips, each admitted viewing issues exactly
	// one preload and c−1 postponed requests.
	const c = 3
	sys := buildHomogeneous(t, 21, 12, 2, c, 10, 4, 2.0, 1.5, nil)
	gen := &scripted{byRound: map[int][]Demand{
		1: {{Box: 0, Video: 0}},
		2: {{Box: 1, Video: 1}},
	}}
	rep, err := sys.Run(gen, 16)
	if err != nil {
		t.Fatal(err)
	}
	issued := rep.PreloadRequests + rep.PostponedRequests + rep.SkippedSelfServed
	if issued != int64(rep.Admitted)*c {
		t.Fatalf("request mix does not account for all stripes: %d of %d",
			issued, int64(rep.Admitted)*c)
	}
	if rep.PreloadRequests+rep.SkippedSelfServed < int64(rep.Admitted) {
		t.Errorf("fewer preloads (%d) + skips (%d) than admissions (%d)",
			rep.PreloadRequests, rep.SkippedSelfServed, rep.Admitted)
	}
	if rep.RelayedRequests != 0 {
		t.Errorf("homogeneous run recorded %d relayed requests", rep.RelayedRequests)
	}
}

func TestObstructionCertificateDetail(t *testing.T) {
	const n, d, c, T, k = 10, 1, 4, 12, 1
	sys := buildHomogeneous(t, 8, n, d, c, T, k, 0.5, 2.0, nil)
	rep, err := sys.Run(genAvoidStored{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatal("expected failure")
	}
	ob := rep.Obstructions[0]
	// The certificate must satisfy the Lemma 1 inequality strictly and the
	// structural bounds.
	if int64(ob.Requests) <= ob.Slots {
		t.Errorf("U_B(X) = %d slots does not violate |X| = %d", ob.Slots, ob.Requests)
	}
	if ob.DistinctStripes > ob.Requests {
		t.Errorf("distinct stripes %d exceeds requests %d", ob.DistinctStripes, ob.Requests)
	}
	if ob.DistinctStripes > n*c {
		t.Errorf("distinct stripes %d exceeds catalog bound", ob.DistinctStripes)
	}
	if ob.Round <= 0 {
		t.Errorf("round %d not positive", ob.Round)
	}
}
