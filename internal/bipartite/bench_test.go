package bipartite

import (
	"testing"

	"repro/internal/stats"
)

// benchAugmentAll is the high-utilization long-path crowd: the demand
// slightly oversubscribes the slot capacity at sparse degree, so free
// slots are rare, augmenting paths must cascade through many full
// servers, and a residue of requests stays unmatched — the E5 µ=3 flash
// crowd at matcher level. Batch phases settle the whole frontier with one
// layered BFS per phase instead of one failed search per unmatched root.
// Each iteration churns 5% of the requests and re-augments to the maximum
// matching cardinality.
func BenchmarkAugmentAllBatch(b *testing.B) {
	const nR, capR, deg = 400, 4, 3
	const nL = nR * capR * 101 / 100
	rng := stats.NewRNG(23)
	lists := make(Lists, nL)
	caps := make([]int64, nR)
	for r := range caps {
		caps[r] = capR
	}
	for l := range lists {
		for _, r := range rng.SampleWithoutReplacement(nR, deg) {
			lists[l] = append(lists[l], int32(r))
		}
	}
	var adj Adjacency = lists // boxed once, not per call
	m := NewMatcher(caps)
	for l := 0; l < nL; l++ {
		m.AddLeft(l)
	}
	m.AugmentAll(adj)
	churn := stats.NewRNG(29)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < nL/20; j++ {
			l := churn.Intn(nL)
			if m.Active(l) {
				m.RemoveLeft(l)
				m.AddLeft(l)
			}
		}
		m.AugmentAll(adj)
	}
	b.ReportMetric(float64(m.MatchedCount()), "matched")
}
