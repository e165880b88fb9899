package main

import (
	"fmt"

	vod "repro"
)

// kind says how a workload reaches the engine.
type kind int

const (
	inProcess  kind = iota // one goroutine calling System.Step back to back
	wireSteady             // vodserve child: one batched POST /demand + POST /step per round
	wireOps                // vodserve child: single-demand posts, /metrics scrapes, periodic /checkpoint
)

// workload is one named set of inputs. Sizes are fixed per scale; the seed
// changes the allocation and the demand stream, never the shape.
type workload struct {
	name string
	why  string
	kind kind

	boxes, tinyBoxes int
	// spec builds the in-process system for a population and seed. Wire
	// workloads build theirs from the scenario text (scenarioText).
	spec func(boxes int, seed uint64) vod.Spec
	// gen builds the demand generator of an in-process workload.
	gen func(boxes int, seed uint64) vod.Generator

	// warm is the number of untimed warm-up rounds (≥ 2·T, so the first
	// playback-cache window has expired before the first timed round).
	warm int
	// check is the length of the fixed window of timed rounds over which
	// simulated counts and the prefix fingerprint are taken; a run never
	// times fewer rounds than this.
	check, tinyCheck int
	// roundsPerSecond turns -seconds into a number of timed rounds: the
	// workload's rate on the reference host (2-CPU Xeon 2.6 GHz container),
	// rounded down. A run times that many rounds however long they take,
	// because what a round costs, what a checkpoint weighs and what the
	// process holds all depend on how long the system has been up: timing
	// by the clock would let a faster engine run further and then be
	// charged for the bigger state.
	roundsPerSecond, tinyRoundsPerSecond int
}

// contendedSpec is BenchmarkStepShardScaling's system. The issue sized it at
// 10⁶ boxes and 1000 demands/round; this harness runs it at a quarter of
// that (same utilization, same live-request share, same per-box arrival
// rate) because the driver makes 22 runs per workload inside a fixed total
// budget and every run also repeats set-up and makes five checkpoint saves
// and loads, each of which rebuilds the whole population.
func contendedSpec(shards int) func(int, uint64) vod.Spec {
	return func(boxes int, seed uint64) vod.Spec {
		return vod.Spec{
			Boxes: boxes, Upload: 2.0, Storage: 2, Stripes: 4, Replicas: 4,
			Duration: 50, Growth: 1.2, Seed: seed, Shards: shards,
		}
	}
}

func contendedGen(boxes int, seed uint64) vod.Generator {
	return &sweepArrivals{perRound: boxes / 1000, nextBox: int(seed % uint64(boxes))}
}

var workloads = []*workload{
	{
		name: "contended-serial",
		why:  "250k boxes at 2.5% slot utilization on the serial engine: the matcher idles and O(active) bookkeeping before admission dominates the round",
		kind: inProcess, boxes: 250_000, tinyBoxes: 5_000,
		spec: contendedSpec(0), gen: contendedGen,
		warm: 100, check: 200, tinyCheck: 30,
		roundsPerSecond: 950, tinyRoundsPerSecond: 4000,
	},
	{
		name: "contended-sharded",
		why:  "same spec, seed and demands with Shards=2: the same layer used differently, so a serial-path gain that taxes the sharded twin shows",
		kind: inProcess, boxes: 250_000, tinyBoxes: 5_000,
		spec: contendedSpec(2), gen: contendedGen,
		warm: 100, check: 200, tinyCheck: 30,
		roundsPerSecond: 650, tinyRoundsPerSecond: 4000,
	},
	{
		name: "near-threshold",
		why:  "4000 always-viewing boxes at u=1.25 (utilization 0.75): upload just above the threshold, so invalidation and augmenting paths after admission dominate",
		kind: inProcess, boxes: 4_000, tinyBoxes: 400,
		spec: func(boxes int, seed uint64) vod.Spec {
			return vod.Spec{
				Boxes: boxes, Upload: 1.25, Storage: 4, Stripes: 8, Replicas: 4,
				Duration: 40, Growth: 1.2, Seed: seed, Resilient: true,
			}
		},
		gen: func(_ int, seed uint64) vod.Generator {
			return vod.NewZipfWorkload(seed, 0.5, 0.9)
		},
		warm: 80, check: 200, tinyCheck: 30,
		roundsPerSecond: 185, tinyRoundsPerSecond: 4000,
	},
	{
		name: "wire-steady",
		why:  "real vodserve child, one batched /demand and one /step per round: the engine is a small share of the round trip, so transport, queue and codec do the work",
		kind: wireSteady, boxes: 800, tinyBoxes: 200,
		warm: 80, check: 200, tinyCheck: 30,
		roundsPerSecond: 1750, tinyRoundsPerSecond: 1750,
	},
	{
		name: "wire-ops",
		why:  "same daemon and corpus, but every demand its own POST, /metrics every 10 rounds and /checkpoint every 1000: the serve layer with writes beside reads",
		kind: wireOps, boxes: 800, tinyBoxes: 200,
		warm: 80, check: 200, tinyCheck: 30,
		roundsPerSecond: 400, tinyRoundsPerSecond: 400,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) population(tiny bool) int {
	if tiny {
		return w.tinyBoxes
	}
	return w.boxes
}

func (w *workload) checkRounds(tiny bool) int {
	if tiny {
		return w.tinyCheck
	}
	return w.check
}

// timedRounds is the length of the timed section, never shorter than the
// check window.
func (w *workload) timedRounds(seconds float64, tiny bool) int {
	rate := w.roundsPerSecond
	if tiny {
		rate = w.tinyRoundsPerSecond
	}
	return max(int(seconds*float64(rate)), w.checkRounds(tiny))
}

// twinSpec is the engine the run is verified against: the same system on
// the other round engine (serial ↔ two shards). Both engines promise
// bit-identical results, so the pair is a differential oracle at any seed.
func twinSpec(s vod.Spec) vod.Spec {
	if s.Shards > 1 {
		s.Shards = 0
	} else {
		s.Shards = 2
	}
	return s
}

// sweepArrivals is bench_test.go's generator of the same name: a bounded
// number of demands per round, cycling boxes and videos round-robin without
// scanning the population, so generator cost never masks engine cost.
type sweepArrivals struct {
	perRound  int
	nextBox   int
	nextVideo int
	out       []vod.Demand // reused: the engine consumes it before the next Next
}

func (g *sweepArrivals) Next(v *vod.View, _ int) []vod.Demand {
	cat := v.Catalog()
	n := v.NumBoxes()
	out := g.out[:0]
	for tries := 0; tries < 2*g.perRound && len(out) < g.perRound; tries++ {
		box := g.nextBox % n
		g.nextBox++
		if !v.BoxIdle(box) {
			continue
		}
		vid := vod.VideoID(g.nextVideo % cat.M)
		g.nextVideo++
		if v.SwarmAllowance(vid) <= 0 {
			continue
		}
		out = append(out, vod.Demand{Box: box, Video: vid})
	}
	g.out = out
	return out
}

// scenarioText is steady-zipf's system with one long Poisson/Zipf phase.
// The arrival rate scales with the population so the tiny scale keeps the
// same share of boxes viewing.
func scenarioText(boxes int, seed uint64, rounds int) string {
	return fmt.Sprintf(`# generated by repro/benchmark
scenario: 1
name: bench-wire
description: steady-zipf's system with one long Poisson/Zipf phase
seed: %d
system:
  boxes: %d
  upload: 1.5
  storage: 4
  stripes: 8
  replicas: 4
  duration: 40
  growth: 1.2
phases:
  - name: steady
    rounds: %d
    arrival:
      process: poisson
      rate: %g
    popularity:
      model: zipf
      s: 0.9
`, seed, boxes, rounds, 12*float64(boxes)/800)
}
