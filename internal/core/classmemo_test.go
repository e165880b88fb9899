package core

import (
	"reflect"
	"testing"

	"repro/internal/allocation"
	"repro/internal/stats"
	"repro/internal/video"
)

// classlessAdj is the reference the matcher's class memo is held against:
// the same graph with every request reporting no class, so the layered BFS
// walks every request's full server list.
type classlessAdj struct{ adjacency }

func (classlessAdj) ServerClass(int) (int32, int32, int) { return -1, 0, -1 }

// buildRelayedTight assembles a relayed system just above its threshold:
// a third of the boxes are poor and fetch every stripe through a rich
// relay, whose forwarded copy is a lag-1 mirror entry on the viewer — a
// cache entry whose box is not the backing request's requester.
func buildRelayedTight(t *testing.T) *System {
	t.Helper()
	const n, poor = 45, 15
	const c, T, k = 6, 14, 2
	uploads := make([]float64, n)
	relays := make([]int, n)
	storage := make([]int, n)
	total := 0
	for b := range uploads {
		uploads[b], relays[b] = 1.7, NoRelay
		if b < poor {
			uploads[b], relays[b] = 0.5, poor+b
		}
		storage[b] = 2 * c
		total += storage[b]
	}
	m := total / (k * c)
	if total != m*k*c {
		t.Fatalf("storage %d does not divide into %d-replica videos of %d stripes", total, k, c)
	}
	alloc, err := allocation.Permutation(stats.NewRNG(29), video.MustCatalog(m, c, T), storage, k)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{
		Alloc:    alloc,
		Uploads:  uploads,
		Mu:       1.3,
		Strategy: StrategyRelayed,
		UStar:    1.5,
		Relays:   relays,
		Failure:  FailStall,
		Paranoid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestClassMemoRelayedLockstep steps a relayed, near-threshold, stalling
// system beside a twin whose adjacency reports no class. Mirror entries are
// where requester exclusion and per-entry lag decide edges, and stall
// rounds are where requests of one stripe sit at different progress; the
// memo must change nothing: every StepResult, every request's progress and
// every request's server.
func TestClassMemoRelayedLockstep(t *testing.T) {
	memo, ref := buildRelayedTight(t), buildRelayedTight(t)
	ref.adj = classlessAdj{adjacency{ref}}
	gens := [2]*uniformGen{{rng: stats.NewRNG(77), p: 0.9}, {rng: stats.NewRNG(77), p: 0.9}}
	stalls := 0
	for round := 1; round <= 220; round++ {
		got, err := memo.Step(gens[0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Step(gens[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: step results diverge\nmemo      %+v\nclassless %+v", round, got, want)
		}
		if !reflect.DeepEqual(memo.matcher.ActiveLefts(), ref.matcher.ActiveLefts()) {
			t.Fatalf("round %d: live request lists diverge", round)
		}
		for _, slot := range memo.matcher.ActiveLefts() {
			l := int(slot)
			if memo.encodedProgress(int(slot)) != ref.encodedProgress(int(slot)) || memo.matcher.Server(l) != ref.matcher.Server(l) {
				t.Fatalf("round %d slot %d: progress %d server %d, classless progress %d server %d",
					round, slot, memo.encodedProgress(int(slot)), memo.matcher.Server(l),
					ref.encodedProgress(int(slot)), ref.matcher.Server(l))
			}
		}
		if got.Unmatched > 0 {
			stalls++
		}
	}
	rep := memo.Report()
	if stalls == 0 || rep.RelayedRequests == 0 {
		t.Fatalf("%d stall rounds, %d relayed requests: the workload never reached the case under test",
			stalls, rep.RelayedRequests)
	}
}
