// Protocol: the paper proves connection matchings exist via max-flow
// (Lemma 1) but notes the result "does not yield directly a practical
// distributed algorithm". This example builds one matching round's worth
// of requests, then compares the centralized optimum against two
// decentralized proposal protocols running over a simulated network —
// including the classic stale-load herding pathology.
//
//	go run ./examples/protocol
package main

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/stats"
)

func main() {
	// One round of a busy system: 600 stripe requests over 150 boxes with
	// 5 upload slots each; each request can be served by 3 allocation
	// holders plus a couple of swarm predecessors.
	rng := stats.NewRNG(2009)
	const nRequests, nBoxes, degree = 600, 150, 3
	inst := protocol.Instance{Caps: make([]int64, nBoxes)}
	for b := range inst.Caps {
		inst.Caps[b] = 5
	}
	for r := 0; r < nRequests; r++ {
		cand := make([]int32, 0, degree+2)
		for _, b := range rng.SampleWithoutReplacement(nBoxes, degree) {
			cand = append(cand, int32(b))
		}
		for e := 0; e < 2; e++ {
			cand = append(cand, int32(rng.Intn(nBoxes)))
		}
		inst.Candidates = append(inst.Candidates, cand)
	}

	// Centralized optimum (what Lemma 1 guarantees exists).
	m := bipartite.NewMatcher(inst.Caps)
	for r := range inst.Candidates {
		m.AddLeft(r)
	}
	m.AugmentAll(bipartite.Lists(inst.Candidates))
	optimal := m.MatchedCount()
	fmt.Printf("centralized max-flow optimum: %d / %d requests served\n\n", optimal, nRequests)

	cfg := netsim.Config{BaseLatency: 1, Jitter: 0.4, Seed: 7}
	show := func(name string, res protocol.Result) {
		gap := 100 * float64(optimal-res.Matched) / float64(optimal)
		fmt.Printf("%-28s served %4d (gap %5.2f%%)  %5d msgs  converged at t=%.1f\n",
			name, res.Matched, gap, res.Messages, res.Time)
	}
	show("blind proposals:", protocol.Run(inst, cfg))
	show("herd (stale best-first):", protocol.RunInformed(inst, cfg, protocol.VariantHerd))
	show("randomized informed:", protocol.RunInformed(inst, cfg, protocol.VariantRandomInformed))

	fmt.Println("\nevery variant produces a valid maximal matching (≥ half optimal by")
	fmt.Println("theory); the measured gaps show a handful of messages per request")
	fmt.Println("buys a near-optimal decentralized matching.")
}
