package main

import (
	"time"

	vod "repro"
	"repro/internal/allocation"
	"repro/internal/bipartite"
	"repro/internal/hetero"
	"repro/internal/stats"
	"repro/internal/video"
)

// probeAdj is a static adjacency list behind the matcher's cursor API.
type probeAdj struct{ neighbors [][]int32 }

func (a *probeAdj) VisitServers(l int, fn func(int) bool) {
	for _, r := range a.neighbors[l] {
		if !fn(int(r)) {
			return
		}
	}
}

func (a *probeAdj) BeginServers(l int, c *bipartite.Cursor) {
	c.Left = int32(l)
	c.Index = 0
}

func (a *probeAdj) NextServer(c *bipartite.Cursor) int {
	ns := a.neighbors[c.Left]
	if int(c.Index) >= len(ns) {
		return -1
	}
	r := ns[c.Index]
	c.Index++
	return int(r)
}

func (a *probeAdj) CanServe(l, r int) bool {
	for _, x := range a.neighbors[l] {
		if int(x) == r {
			return true
		}
	}
	return false
}

// matcherProbe times Matcher.AugmentAll in isolation, because Step's calls
// into the matcher are not visible from outside. The instance is
// bench_test.go's benchAugmentAll: 400 rights of capacity 4, degree 3, 1%
// oversubscribed, 5% of the requests churned before every call. It is the
// same at every seed and on every workload.
func matcherProbe(sp *spans) (augmentP50US float64, matched int) {
	const nR, capR, deg, calls = 400, 4, 3, 200
	const nL = nR * capR * 101 / 100
	rng := stats.NewRNG(23)
	adj := &probeAdj{neighbors: make([][]int32, nL)}
	caps := make([]int64, nR)
	for r := range caps {
		caps[r] = capR
	}
	for l := range adj.neighbors {
		for _, r := range rng.SampleWithoutReplacement(nR, deg) {
			adj.neighbors[l] = append(adj.neighbors[l], int32(r))
		}
	}
	m := bipartite.NewMatcher(caps)
	for l := 0; l < nL; l++ {
		m.AddLeft(l)
	}
	m.AugmentAll(adj)
	churn := stats.NewRNG(29)
	root := sp.begin("bipartite.probe", -1, 0)
	for i := 0; i < calls; i++ {
		for j := 0; j < nL/20; j++ {
			if l := churn.Intn(nL); m.Active(l) {
				m.RemoveLeft(l)
				m.AddLeft(l)
			}
		}
		id := sp.begin("bipartite.augment_all", root, 0)
		m.AugmentAll(adj)
		sp.end(id)
	}
	sp.end(root)
	return median(sp.durationsUS("bipartite.augment_all", 0, 0)), m.MatchedCount()
}

// allocationProbe times the random permutation allocation alone, for the
// catalog vod.New derives from spec (homogeneous storage, fixed stripes).
func allocationProbe(sp *spans, spec vod.Spec) (time.Duration, error) {
	storages := make([]float64, spec.Boxes)
	for i := range storages {
		storages[i] = spec.Storage
	}
	slots, m, err := hetero.AllocationSlots(storages, spec.Stripes, spec.Replicas)
	if err != nil {
		return 0, err
	}
	cat, err := video.NewCatalog(m, spec.Stripes, spec.Duration)
	if err != nil {
		return 0, err
	}
	id := sp.begin("allocation.permutation", -1, 0)
	t0 := time.Now()
	_, err = allocation.Permutation(stats.NewRNG(spec.Seed), cat, slots, spec.Replicas)
	d := time.Since(t0)
	sp.end(id)
	return d, err
}
