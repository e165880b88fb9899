package protocol

import (
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
	"repro/internal/netsim"
	"repro/internal/stats"
)

func cfg(seed uint64) netsim.Config {
	return netsim.Config{BaseLatency: 1, Jitter: 0.3, Seed: seed}
}

func TestTrivialMatch(t *testing.T) {
	inst := Instance{
		Candidates: [][]int32{{0}, {0, 1}},
		Caps:       []int64{1, 1},
	}
	res := Run(inst, cfg(1))
	if err := res.Verify(inst); err != nil {
		t.Fatal(err)
	}
	if res.Matched != 2 {
		t.Fatalf("matched %d, want 2", res.Matched)
	}
	if !res.Maximality(inst) {
		t.Fatal("matching not maximal")
	}
}

func TestUnservableRequest(t *testing.T) {
	inst := Instance{
		Candidates: [][]int32{{0}, {0}},
		Caps:       []int64{1},
	}
	res := Run(inst, cfg(2))
	if err := res.Verify(inst); err != nil {
		t.Fatal(err)
	}
	if res.Matched != 1 || res.Unserved != 1 {
		t.Fatalf("matched=%d unserved=%d", res.Matched, res.Unserved)
	}
}

func TestEmptyCandidates(t *testing.T) {
	inst := Instance{
		Candidates: [][]int32{{}},
		Caps:       []int64{1},
	}
	res := Run(inst, cfg(3))
	if res.Matched != 0 || res.Unserved != 1 {
		t.Fatalf("empty-candidate request should be unserved: %+v", res)
	}
}

func TestCapacityRespected(t *testing.T) {
	inst := Instance{
		Candidates: [][]int32{{0}, {0}, {0}, {0}, {0}},
		Caps:       []int64{3},
	}
	res := Run(inst, cfg(4))
	if err := res.Verify(inst); err != nil {
		t.Fatal(err)
	}
	if res.Matched != 3 {
		t.Fatalf("matched %d, want 3", res.Matched)
	}
}

func TestMessageBudget(t *testing.T) {
	// Each request sends at most |candidates| proposals, each answered
	// once: messages ≤ 2·Σ|candidates|.
	inst := Instance{
		Candidates: [][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}},
		Caps:       []int64{1, 1, 1},
	}
	res := Run(inst, cfg(5))
	if res.Messages > 24 {
		t.Fatalf("messages=%d exceeds budget 24", res.Messages)
	}
	if err := res.Verify(inst); err != nil {
		t.Fatal(err)
	}
	if res.Matched != 3 {
		t.Fatalf("matched %d, want 3 (capacity-limited)", res.Matched)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	inst := Instance{
		Candidates: [][]int32{{0, 1}, {1, 0}, {0, 1}},
		Caps:       []int64{1, 2},
	}
	a := Run(inst, cfg(6))
	b := Run(inst, cfg(6))
	if a.Matched != b.Matched || a.Messages != b.Messages || a.Time != b.Time {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("assignments differ")
		}
	}
}

func randomInstance(rng *stats.RNG) Instance {
	nR := 1 + rng.Intn(20)
	nS := 1 + rng.Intn(8)
	inst := Instance{Caps: make([]int64, nS)}
	for s := range inst.Caps {
		inst.Caps[s] = int64(rng.Intn(3))
	}
	for r := 0; r < nR; r++ {
		var cand []int32
		for s := 0; s < nS; s++ {
			if rng.Bool(0.4) {
				cand = append(cand, int32(s))
			}
		}
		inst.Candidates = append(inst.Candidates, cand)
	}
	return inst
}

// Property: the protocol always yields a valid, maximal matching.
func TestQuickValidMaximal(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		inst := randomInstance(rng)
		res := Run(inst, cfg(seed))
		return res.Verify(inst) == nil && res.Maximality(inst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: maximality implies the protocol matches at least half of the
// optimum (classic maximal-matching bound, which for b-matching gives
// matched ≥ optimal/2).
func TestQuickHalfOptimal(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		inst := randomInstance(rng)
		res := Run(inst, cfg(seed))

		m := bipartite.NewMatcher(inst.Caps)
		adj := bipartite.Lists(inst.Candidates)
		for r := range inst.Candidates {
			m.AddLeft(r)
		}
		m.AugmentAll(adj)
		optimal := m.MatchedCount()
		return 2*res.Matched >= optimal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// newExactMatcher returns the optimal matching size of an instance.
func newExactMatcher(inst Instance) int {
	m := bipartite.NewMatcher(inst.Caps)
	for r := range inst.Candidates {
		m.AddLeft(r)
	}
	m.AugmentAll(bipartite.Lists(inst.Candidates))
	return m.MatchedCount()
}
