package vod

// The benchmark harness: one Benchmark per experiment (each regenerates its
// table/figure and logs it), plus micro-benchmarks and ablations of the
// design choices: warm vs cold matching, greedy vs exact, Step cost at
// bounded live work.
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=BenchmarkE5 -v   (-v prints the tables)

import (
	"bytes"
	"io"
	"strconv"
	"testing"

	"repro/internal/allocation"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/expander"
	"repro/internal/experiments"
	"repro/internal/maxflow"
	"repro/internal/stats"
	"repro/internal/trace"
)

// benchExperiment runs one experiment per iteration and logs its tables.
func benchExperiment(b *testing.B, id string) {
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{Seed: 42, Quick: true}
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = e.Run(opts)
	}
	b.Log("\n" + res.Text())
}

func BenchmarkE1Threshold(b *testing.B)              { benchExperiment(b, "E1") }
func BenchmarkE2CatalogLinearity(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3CatalogVsU(b *testing.B)             { benchExperiment(b, "E3") }
func BenchmarkE4ObstructionProbability(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5SwarmGrowth(b *testing.B)            { benchExperiment(b, "E5") }
func BenchmarkE6HeteroThreshold(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7StartupDelay(b *testing.B)           { benchExperiment(b, "E7") }
func BenchmarkE8AllocationBalance(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9SourcingBaseline(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Impossibility(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11MatchingEnginesTable(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE13StrategyAblation(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14ExpanderAudit(b *testing.B)         { benchExperiment(b, "E14") }
func BenchmarkT1Planner(b *testing.B)                { benchExperiment(b, "T1") }

// --- Micro-benchmark: Dinic, the exact side of E11 ---

// benchFlowNetwork builds a bipartite-shaped flow instance: L requests,
// R servers, degree k, server capacity cap.
func benchFlowNetwork(seed uint64, l, r, k int, capacity int64) (*maxflow.Network, int, int) {
	rng := stats.NewRNG(seed)
	g := maxflow.NewNetwork(2 + l + r)
	src, sink := 0, 1
	for i := 0; i < l; i++ {
		g.AddEdge(src, 2+i, 1)
		for _, srv := range rng.SampleWithoutReplacement(r, k) {
			g.AddEdge(2+i, 2+l+srv, 1)
		}
	}
	for j := 0; j < r; j++ {
		g.AddEdge(2+l+j, sink, capacity)
	}
	return g, src, sink
}

func BenchmarkMaxflowDinic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, s, t := benchFlowNetwork(uint64(i), 2000, 500, 4, 5)
		var d maxflow.Dinic
		b.StartTimer()
		if d.MaxFlow(g, s, t) <= 0 {
			b.Fatal("no flow")
		}
	}
}

// --- Ablation: warm-started incremental matching vs cold recompute ---

func benchMatcherChurn(b *testing.B, warm bool) {
	const nL, nR, deg = 1200, 300, 4
	rng := stats.NewRNG(7)
	lists := make(bipartite.Lists, nL)
	caps := make([]int64, nR)
	for r := range caps {
		caps[r] = 5
	}
	for l := range lists {
		for _, r := range rng.SampleWithoutReplacement(nR, deg) {
			lists[l] = append(lists[l], int32(r))
		}
	}
	var adj bipartite.Adjacency = lists // boxed once, not per call
	b.ReportAllocs()
	b.ResetTimer()
	m := bipartite.NewMatcher(caps)
	for l := 0; l < nL; l++ {
		m.AddLeft(l)
	}
	m.AugmentAll(adj)
	churn := stats.NewRNG(11)
	for i := 0; i < b.N; i++ {
		if warm {
			// Churn 5% of requests and re-augment incrementally.
			for j := 0; j < nL/20; j++ {
				l := churn.Intn(nL)
				if m.Active(l) {
					m.RemoveLeft(l)
					m.AddLeft(l)
				}
			}
			m.AugmentAll(adj)
		} else {
			// Cold: rebuild the matching from scratch.
			cold := bipartite.NewMatcher(caps)
			for l := 0; l < nL; l++ {
				cold.AddLeft(l)
			}
			cold.AugmentAll(adj)
		}
	}
}

func BenchmarkMatcherWarmIncremental(b *testing.B) { benchMatcherChurn(b, true) }
func BenchmarkMatcherColdRecompute(b *testing.B)   { benchMatcherChurn(b, false) }

// --- Ablation: greedy vs optimal matcher on identical instances ---

func BenchmarkMatcherGreedy(b *testing.B) {
	const nL, nR, deg = 1200, 300, 4
	rng := stats.NewRNG(7)
	lists := make(bipartite.Lists, nL)
	caps := make([]int64, nR)
	lefts := make([]int, nL)
	for r := range caps {
		caps[r] = 5
	}
	for l := range lists {
		lefts[l] = l
		for _, r := range rng.SampleWithoutReplacement(nR, deg) {
			lists[l] = append(lists[l], int32(r))
		}
	}
	var adj bipartite.Adjacency = lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := bipartite.NewGreedy(caps)
		g.Match(adj, lefts)
	}
}

// --- Allocation benchmarks ---

func BenchmarkAllocationPermutation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := allocation.HomogeneousPermutation(stats.NewRNG(uint64(i)), 1000, 4, 8, 100, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocationIndependent(b *testing.B) {
	cat := Catalog{M: 500, C: 8, T: 100}
	slots := make([]int, 1000)
	for i := range slots {
		slots[i] = 4 * 8
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := allocation.Independent(stats.NewRNG(uint64(i)), cat, slots, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulation round throughput ---

func benchSimRounds(b *testing.B, n int, strategy core.Strategy) {
	sys, err := New(Spec{
		Boxes:    n,
		Upload:   2.0,
		Storage:  2,
		Stripes:  4,
		Replicas: 4,
		Duration: 50,
		Growth:   1.2,
		Seed:     3,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = strategy // strategy fixed to preload through the public API
	gen := NewZipfWorkload(9, 0.3, 0.9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Step(gen); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sys.View().ActiveRequests()), "active_requests")
}

func BenchmarkSimRound100(b *testing.B)  { benchSimRounds(b, 100, core.StrategyPreload) }
func BenchmarkSimRound500(b *testing.B)  { benchSimRounds(b, 500, core.StrategyPreload) }
func BenchmarkSimRound2000(b *testing.B) { benchSimRounds(b, 2000, core.StrategyPreload) }

// sweepArrivals emits a bounded number of demands per round, cycling boxes
// and videos round-robin without ever scanning the population, so generator
// cost (O(arrivals)) never masks engine cost at large n.
type sweepArrivals struct {
	perRound  int
	nextBox   int
	nextVideo int
	out       []Demand // reused across rounds (the engine consumes it before the next Next)
}

func (g *sweepArrivals) Next(v *View, _ int) []Demand {
	cat := v.Catalog()
	n := v.NumBoxes()
	out := g.out[:0]
	for tries := 0; tries < 2*g.perRound && len(out) < g.perRound; tries++ {
		box := g.nextBox % n
		g.nextBox++
		if !v.BoxIdle(box) {
			continue
		}
		vid := VideoID(g.nextVideo % cat.M)
		g.nextVideo++
		if v.SwarmAllowance(vid) <= 0 {
			continue
		}
		out = append(out, Demand{Box: box, Video: vid})
	}
	g.out = out
	return out
}

// benchStepBounded drives Step at population n with an arrival rate that
// is *independent* of n (fixed demands/round), so the live request set —
// and therefore, with fully output-sensitive rounds, the per-round cost —
// is the same at every population size.
func benchStepBounded(b *testing.B, n, perRound int) {
	sys, err := New(boundedSpec(n))
	if err != nil {
		b.Fatal(err)
	}
	// Warm past the first cache-window expiry so measured rounds carry
	// steady-state expiry and retirement work.
	benchSteps(b, sys, &sweepArrivals{perRound: perRound}, 60)
}

// boundedSpec is the population-n system of the bounded Step benchmarks.
func boundedSpec(n int) Spec {
	return Spec{
		Boxes: n, Upload: 2.0, Storage: 2, Stripes: 4, Replicas: 4,
		Duration: 50, Growth: 1.2, Seed: 17,
	}
}

// nearThresholdSpec is the repository benchmark's near-threshold system.
var nearThresholdSpec = Spec{
	Boxes: 4000, Upload: 1.25, Storage: 4, Stripes: 8, Replicas: 4,
	Duration: 40, Growth: 1.2, Seed: 1, Resilient: true,
}

// benchSteps steps sys through warm untimed rounds, then b.N timed ones.
func benchSteps(b *testing.B, sys *System, gen Generator, warm int) {
	for r := 0; r < warm; r++ {
		if _, err := sys.Step(gen); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Step(gen); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sys.View().ActiveRequests()), "active_requests")
}

// BenchmarkStepLargeSwarm tracks the availability/scheduling hot path at
// production scale: 100k boxes, a ~50k-video catalog (200k stripes), and
// sustained arrivals. Per-round cost must scale with live cache entries and
// in-flight requests, not with catalog size or the historical peak slot
// count.
func BenchmarkStepLargeSwarm(b *testing.B) { benchStepBounded(b, 100_000, 100) }

// BenchmarkStepMillionBoxes is BenchmarkStepLargeSwarm at 10× the
// population with the *same* bounded live workload (100 arrivals/round).
// With event-driven invalidation and the idle-box index the round loop is
// fully output-sensitive, so ns/op here must stay within ~2× of the
// large-swarm benchmark — round cost no longer scales with n.
func BenchmarkStepMillionBoxes(b *testing.B) { benchStepBounded(b, 1_000_000, 100) }

// BenchmarkStepTenMillionBoxes pushes the bounded workload to 10⁷ boxes
// (an ~5M-video catalog, 20M stripes).
func BenchmarkStepTenMillionBoxes(b *testing.B) { benchStepBounded(b, 10_000_000, 100) }

// BenchmarkStepMillionContended is the million-box population under 10×
// the bounded benches' arrivals (1000/round, ≈200k live requests), so
// matching and invalidation — not the O(active) bookkeeping — dominate the
// round.
func BenchmarkStepMillionContended(b *testing.B) { benchStepBounded(b, 1_000_000, 1000) }

// BenchmarkStepNearThreshold is the repository benchmark's near-threshold
// workload as a Go benchmark: 4000 always-viewing boxes at u=1.25 (slot
// utilization 0.75), where most of a round is invalidation and blocking-
// flow augmentation through full boxes — the one Step bench in which the
// layered BFS and its class memo run every round, so its allocs/round
// ceiling is what holds the memo table to "grown once, then reused".
func BenchmarkStepNearThreshold(b *testing.B) {
	sys, err := New(nearThresholdSpec)
	if err != nil {
		b.Fatal(err)
	}
	// Two cache windows, as the benchmark warms.
	benchSteps(b, sys, NewZipfWorkload(1, 0.5, 0.9), 80)
}

// BenchmarkStepNearThresholdLadder is BenchmarkStepNearThreshold's spec
// with only Boxes changed, at 4000, 16 000 and 64 000 boxes: the ruler for
// how a near-threshold round grows with the population. Live requests grow
// with the boxes, so ns/live_request — ns/op over the timed rounds' mean
// live requests — stays flat exactly when the round is linear in them.
func BenchmarkStepNearThresholdLadder(b *testing.B) {
	for _, boxes := range []int{4000, 16_000, 64_000} {
		b.Run("boxes="+strconv.Itoa(boxes), func(b *testing.B) {
			spec := nearThresholdSpec
			spec.Boxes = boxes
			sys, err := New(spec)
			if err != nil {
				b.Fatal(err)
			}
			gen := NewZipfWorkload(1, 0.5, 0.9)
			for r := 0; r < 80; r++ {
				if _, err := sys.Step(gen); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			live := 0
			for i := 0; i < b.N; i++ {
				if _, err := sys.Step(gen); err != nil {
					b.Fatal(err)
				}
				live += sys.View().ActiveRequests()
			}
			b.ReportMetric(float64(live)/float64(b.N), "active_requests")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(live), "ns/live_request")
		})
	}
}

// BenchmarkStepBelowThreshold is BenchmarkStepNearThreshold's spec with
// upload cut to u=0.95 and 200 boxes: below the paper's threshold, so most
// rounds leave requests unmatched, run the canonical-deficit rewrite and
// record an obstruction, and the stalled requests are the ones the retire
// ring has to move on. It is the only Step bench on that path.
func BenchmarkStepBelowThreshold(b *testing.B) {
	sys, err := New(Spec{
		Boxes: 200, Upload: 0.95, Storage: 4, Stripes: 8, Replicas: 4,
		Duration: 40, Growth: 1.2, Seed: 1, Resilient: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchSteps(b, sys, NewZipfWorkload(1, 0.5, 0.9), 80)
}

// BenchmarkStepContended is the repository benchmark's contended-serial
// workload as a Go benchmark, seed 1: 250 000 boxes at 2.5% slot
// utilization with 250 arrivals a round. Phase 0 of the matcher places
// every arrival on a free allocation holder, so the round is bookkeeping —
// retire, issue, expire, cache-entry adds — over population-sized arrays,
// and its cost is cache misses per operation, not search.
func BenchmarkStepContended(b *testing.B) {
	sys, gen := contendedSystem(b)
	benchSteps(b, sys, gen, 0)
}

// contendedSystem is the contended-serial system 100 rounds in, with its
// demand generator.
func contendedSystem(b *testing.B) (*System, Generator) {
	sys, err := New(Spec{
		Boxes: 250_000, Upload: 2.0, Storage: 2, Stripes: 4, Replicas: 4,
		Duration: 50, Growth: 1.2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := &sweepArrivals{perRound: 250, nextBox: 1}
	for r := 0; r < 100; r++ {
		if _, err := sys.Step(gen); err != nil {
			b.Fatal(err)
		}
	}
	return sys, gen
}

// BenchmarkCheckpoint saves and loads the contended-serial system (250 000
// boxes, a 125 000-video catalog, 100 rounds in), reporting MB/s of
// checkpoint. first is a fresh system's first save, which hashes the
// configuration for its fingerprint; warm is every later save, which
// reads the cached one; load rebuilds the system from its spec and
// decodes the state.
func BenchmarkCheckpoint(b *testing.B) {
	sys, _ := contendedSystem(b)
	var saved bytes.Buffer
	if err := sys.SaveCheckpoint(&saved); err != nil {
		b.Fatal(err)
	}
	b.Run("save/first", func(b *testing.B) {
		b.SetBytes(int64(saved.Len()))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys, _ := contendedSystem(b)
			b.StartTimer()
			if err := sys.SaveCheckpoint(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("save/warm", func(b *testing.B) { // the save above cached the fingerprint
		b.SetBytes(int64(saved.Len()))
		for i := 0; i < b.N; i++ {
			if err := sys.SaveCheckpoint(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(saved.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := LoadCheckpoint(bytes.NewReader(saved.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Expander audit ---

func BenchmarkExpanderAudit(b *testing.B) {
	alloc, _, err := allocation.HomogeneousPermutation(stats.NewRNG(3), 500, 4, 8, 100, 8)
	if err != nil {
		b.Fatal(err)
	}
	caps := make([]int64, 500)
	for i := range caps {
		caps[i] = 12
	}
	aud := expander.New(alloc, caps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aud.Full(stats.NewRNG(uint64(i)), 100, 10)
	}
}

// --- Trace record/replay ---

func BenchmarkTraceRecordReplay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := New(Spec{Boxes: 100, Upload: 2, Storage: 2, Stripes: 4,
			Replicas: 4, Duration: 20, Growth: 1.2, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rec := trace.NewRecorder(NewZipfWorkload(uint64(i), 0.3, 0.9))
		b.StartTimer()
		if _, err := sys.Run(rec, 60); err != nil {
			b.Fatal(err)
		}
		sys2, err := New(Spec{Boxes: 100, Upload: 2, Storage: 2, Stripes: 4,
			Replicas: 4, Duration: 20, Growth: 1.2, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys2.Run(trace.NewReplayer(&rec.Trace), 60); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Heterogeneous relayed round throughput ---

func BenchmarkRelayedSimRound(b *testing.B) {
	pop := Bimodal(200, 0.7, 3.0, 0.5, 2.0)
	sys, err := New(Spec{
		Boxes:    200,
		Uploads:  pop.Uploads,
		Storages: pop.Storage,
		UStar:    1.5,
		Growth:   1.05,
		Duration: 50,
		Replicas: 3,
		Seed:     5,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := NewPoorFirst(1.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Step(gen); err != nil {
			b.Fatal(err)
		}
	}
}

// --- End-to-end flash crowd at several scales ---

func benchFlashCrowd(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := New(Spec{
			Boxes: n, Upload: 2.5, Storage: 2, Stripes: 4, Replicas: 4,
			Duration: 30, Growth: 1.5, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := sys.Run(NewFlashCrowd(0), 60)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed {
			b.Fatal("flash crowd failed at n=" + strconv.Itoa(n))
		}
	}
}

func BenchmarkFlashCrowd64(b *testing.B)  { benchFlashCrowd(b, 64) }
func BenchmarkFlashCrowd256(b *testing.B) { benchFlashCrowd(b, 256) }
