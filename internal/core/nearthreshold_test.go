package core_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/adversary"
	"repro/internal/allocation"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/video"
)

// nearThreshold builds the repository benchmark's near-threshold system at
// seed: 4000 boxes of upload 1.25 and storage 4 under an 8-stripe,
// 40-round catalog with 4 replicas, µ = 1.2, stalling instead of halting.
func nearThreshold(t *testing.T, seed uint64) *core.System {
	t.Helper()
	const n, c, T, k, storage = 4000, 8, 40, 4, 4
	slots := make([]int, n)
	uploads := make([]float64, n)
	for b := range slots {
		slots[b], uploads[b] = storage*c, 1.25
	}
	cat := video.MustCatalog(n*storage/k, c, T)
	alloc, err := allocation.Permutation(stats.NewRNG(seed), cat, slots, k)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{Alloc: alloc, Uploads: uploads, Mu: 1.2, Failure: core.FailStall})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestNearThresholdMatchingPinned steps the near-threshold system for 400
// rounds of the benchmark's Zipf demands at seeds 1–3, hashing the
// matching every round ends with, and hashes the checkpoint written after
// the last round. The recorded values come from the matcher whose layered
// BFS labels the whole layer of its first free right and whose phase DFS
// reads every right's label and walks every server list from the top —
// the reference kept in bipartite's phasememo_test.go — so the matcher
// must reproduce its matching round for round and its checkpoint byte for
// byte.
func TestNearThresholdMatchingPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("steps 3 × 400 rounds of a 4000-box system")
	}
	for _, tc := range []struct {
		seed                   uint64
		matching, checkpointed uint64
	}{
		{1, 0xcbc2900782f501cd, 0xa149ed2155796dcd},
		{2, 0x23aea2da9ca5419f, 0xec9b1a3671daa20e},
		{3, 0xeaf177025de67499, 0xd67e701d731e5e77},
	} {
		sys := nearThreshold(t, tc.seed)
		gen := &adversary.Zipf{RNG: stats.NewRNG(tc.seed), P: 0.5, S: 0.9}
		h := fnv.New64a()
		var live []int32
		for r := 1; r <= 400; r++ {
			if _, err := sys.Step(gen); err != nil {
				t.Fatalf("seed %d round %d: %v", tc.seed, r, err)
			}
			live = core.LiveAssignment(sys, live[:0])
			binary.Write(h, binary.LittleEndian, live)
		}
		ck, size := checkpointHash(t, sys)
		if got := h.Sum64(); got != tc.matching || ck != tc.checkpointed {
			t.Errorf("seed %d: matching hash %#016x, checkpoint hash %#016x (%d bytes); recorded %#016x and %#016x",
				tc.seed, got, ck, size, tc.matching, tc.checkpointed)
		}
	}
}
