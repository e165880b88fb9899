package core_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/allocation"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/video"
)

// contended builds the repository benchmark's contended system at its
// tiny scale and seed: n boxes of upload 2 and storage 2 under a 4-stripe,
// 50-round catalog with 4 replicas, µ = 1.2, halting at an obstruction.
func contended(t *testing.T, n int, seed uint64) *core.System {
	t.Helper()
	const c, T, k, storage = 4, 50, 4, 2
	slots := make([]int, n)
	uploads := make([]float64, n)
	for b := range slots {
		slots[b], uploads[b] = storage*c, 2
	}
	cat := video.MustCatalog(n*storage/k, c, T)
	alloc, err := allocation.Permutation(stats.NewRNG(seed), cat, slots, k)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{Alloc: alloc, Uploads: uploads, Mu: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// sweep is the benchmark's contended demand stream: perRound demands a
// round, boxes and videos taken round-robin, skipping a busy box or a
// video whose swarm may not grow.
type sweep struct {
	perRound, nextBox, nextVideo int
	out                          []core.Demand
}

func (g *sweep) Next(v *core.View, _ int) []core.Demand {
	out := g.out[:0]
	for tries := 0; tries < 2*g.perRound && len(out) < g.perRound; tries++ {
		box := g.nextBox % v.NumBoxes()
		g.nextBox++
		if !v.BoxIdle(box) {
			continue
		}
		vid := video.ID(g.nextVideo % v.Catalog().M)
		g.nextVideo++
		if v.SwarmAllowance(vid) <= 0 {
			continue
		}
		out = append(out, core.Demand{Box: box, Video: vid})
	}
	g.out = out
	return out
}

// checkpointHash returns the FNV-1a hash of sys's encoded state and its
// length in bytes.
func checkpointHash(t *testing.T, sys *core.System) (uint64, int) {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	if err := sys.EncodeState(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64(), buf.Len()
}

// TestContendedMatchingPinned steps the contended system at 5000 boxes for
// 150 rounds of the benchmark's sweep at seeds 1–3, hashing every box's
// assignment list, in list order, after every round, and hashes the
// checkpoint written after the last round. Above the threshold a round's
// StepResult hardly varies (every arrival finds a free holder), so this
// is what holds the bookkeeping passes to the exact matching: which box
// serves each request, and where it sits in the box's list. The values
// were recorded before the passes read their records a batch ahead.
func TestContendedMatchingPinned(t *testing.T) {
	const n = 5000
	for _, tc := range []struct {
		seed                   uint64
		matching, checkpointed uint64
	}{
		{1, 0xe036ff601675f2dd, 0x7aa5fef7e7853dfa},
		{2, 0x6847856ff82a0ab8, 0xb68cd1987b254402},
		{3, 0x7e155091f4301f10, 0x95635af65fea7982},
	} {
		sys := contended(t, n, tc.seed)
		gen := &sweep{perRound: n / 1000, nextBox: int(tc.seed % n)}
		h := fnv.New64a()
		var lists []int32
		for r := 1; r <= 150; r++ {
			res, err := sys.Step(gen)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", tc.seed, r, err)
			}
			if res.Obstruction != nil {
				t.Fatalf("seed %d round %d: obstruction %+v", tc.seed, r, *res.Obstruction)
			}
			lists = core.AssignmentLists(sys, lists[:0])
			binary.Write(h, binary.LittleEndian, lists)
		}
		ck, size := checkpointHash(t, sys)
		if got := h.Sum64(); got != tc.matching || ck != tc.checkpointed {
			t.Errorf("seed %d: matching hash %#016x, checkpoint hash %#016x (%d bytes); recorded %#016x and %#016x",
				tc.seed, got, ck, size, tc.matching, tc.checkpointed)
		}
	}
}
