package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/maxflow"
	"repro/internal/stats"
)

// oracleMaxFlow is the paper's statement of a round, computed without the
// matcher: one unit of flow per live request, each box's upload slots as
// its capacity, and an edge wherever CanServe holds over every (live
// request, box) pair. under is the progress the round was matched under;
// Step has advanced the matched requests since, so the graph is
// enumerated with that view swapped in.
func oracleMaxFlow(s *System, under progressView) int64 {
	now := s.progress()
	s.clock, s.reqBase = under.clock, under.base
	defer func() { s.clock, s.reqBase = now.clock, now.base }()

	live := s.matcher.ActiveLefts()
	const src, sink = 0, 1
	g := maxflow.NewNetwork(2 + len(live) + s.n)
	for i, slot := range live {
		g.AddEdge(src, 2+i, 1)
		for b := 0; b < s.n; b++ {
			if (adjacency{s}).CanServe(int(slot), b) {
				g.AddEdge(2+i, 2+len(live)+b, 1)
			}
		}
	}
	for b := 0; b < s.n; b++ {
		g.AddEdge(2+len(live)+b, sink, s.matcher.Capacity(b))
	}
	return (&maxflow.Dinic{}).MaxFlow(g, src, sink)
}

// foldRound hashes everything one round lets an observer see: the
// StepResult with its certificate, then the progress of every live slot
// and the busy set, which is what says *which* requests a stall round
// left behind.
func foldRound(h hash.Hash64, s *System, res StepResult) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, v := range []int{res.Round, res.Demanded, res.Admitted, res.RejectedBusy,
		res.RejectedSwarm, res.Matched, res.Unmatched} {
		put(int64(v))
	}
	if ob := res.Obstruction; ob != nil {
		put(1)
		put(int64(ob.Round))
		put(int64(ob.Requests))
		put(int64(ob.DistinctStripes))
		put(int64(ob.Boxes))
		put(ob.Slots)
	} else {
		put(0)
	}
	for slot := range s.reqStripe {
		if s.matcher.Active(slot) {
			put(int64(slot))
			put(int64(s.encodedProgress(slot)))
		}
	}
	for b := range s.boxes {
		if s.boxes[b].busy() {
			put(int64(b))
		}
	}
}

// TestRoundOracle holds the round engine to the paper's statement on the
// three workloads the two-engine lockstep used to run: every round,
// Matched is the maximum flow of the request graph enumerated from first
// principles, Unmatched is what that flow leaves over, and an obstruction
// is a Hall violator (more requests than the slots that could serve them).
// The fingerprints were recorded at the last commit that had a second
// engine to agree with (it produced the same three, split four ways);
// the 67 stall rounds of the first workload are what put certificates and
// the canonical-deficit rewrite on the recorded path.
func TestRoundOracle(t *testing.T) {
	cases := []struct {
		name        string
		build       func(t *testing.T) *System
		gen         func() Generator
		rounds      int
		churn       bool
		fingerprint uint64
		stallRounds int
		failRound   int // 0: runs to the end
	}{
		{
			name: "fail-stall-capacity-churn",
			build: func(t *testing.T) *System {
				return buildHomogeneous(t, 43, 18, 1, 4, 9, 2, 0.8, 2.0, func(cfg *Config) { cfg.Failure = FailStall })
			},
			gen:    func() Generator { return &uniformGen{rng: stats.NewRNG(1213), p: 0.8} },
			rounds: 150, churn: true,
			fingerprint: 0x4aa53215668e9180, stallRounds: 67,
		},
		{
			name: "fail-stop",
			build: func(t *testing.T) *System {
				return buildHomogeneous(t, 43, 18, 1, 4, 9, 2, 0.8, 2.0, nil)
			},
			gen:         func() Generator { return &uniformGen{rng: stats.NewRNG(1213), p: 0.8} },
			rounds:      150,
			fingerprint: 0x6063bd52c8290920, stallRounds: 1, failRound: 3,
		},
		{
			name: "flash-crowd-soak",
			build: func(t *testing.T) *System {
				return buildHomogeneous(t, 77, 40, 2, 4, 12, 5, 2.5, 1.3, func(cfg *Config) { cfg.Failure = FailStall })
			},
			gen:         func() Generator { return &mixedGen{rng: stats.NewRNG(101)} },
			rounds:      600,
			fingerprint: 0x44e8ca85eaace57f, // never stalls: this one is about the flow under bursts
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, gen := tc.build(t), tc.gen()
			origCap := sys.View().UploadSlots(0)
			h := fnv.New64a()
			stallRounds := 0
			for r := 1; r <= tc.rounds && !sys.Failed(); r++ {
				if tc.churn {
					checkpointChurn(t, sys, r, origCap)
				}
				before := progressTable(sys)
				res, err := sys.Step(gen)
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				checkRoundOracle(t, sys, r, res, before)
				if res.Obstruction != nil {
					stallRounds++
				}
				foldRound(h, sys, res)
			}
			if tc.failRound != 0 && (!sys.Failed() || sys.Round() != tc.failRound) {
				t.Errorf("failed=%v at round %d, want the obstruction at round %d", sys.Failed(), sys.Round(), tc.failRound)
			}
			if tc.failRound == 0 && sys.Failed() {
				t.Errorf("stopped at round %d, want all %d rounds", sys.Round(), tc.rounds)
			}
			if got := h.Sum64(); got != tc.fingerprint || stallRounds != tc.stallRounds {
				t.Errorf("fingerprint %#016x over %d stall rounds, recorded %#016x over %d",
					got, stallRounds, tc.fingerprint, tc.stallRounds)
			}
		})
	}
}

// checkRoundOracle holds round r's result to the paper's statement: Matched
// is the maximum flow of the request graph enumerated from first
// principles, Unmatched is what that flow leaves over, every matched
// request advanced by one chunk and no other moved, and an obstruction is
// a Hall violator whose deficiency is the round's. before is
// progressTable(sys) taken before the Step.
func checkRoundOracle(t *testing.T, sys *System, r int, res StepResult, before []int32) {
	t.Helper()
	// The progress this round was matched under, at the clock before the
	// round's tick: a request issued this round had none, an older one had
	// what it entered the round with (its slot cannot have been retired and
	// reissued, or it would carry this round as its start).
	matchedUnder := progressView{clock: sys.clock - 1, base: slices.Clone(sys.reqBase)}
	if sys.Failed() {
		matchedUnder.clock++ // a halted round does not tick
	}
	advanced := 0
	for _, slot := range sys.matcher.ActiveLefts() {
		p := int32(0)
		if int(sys.reqStart[slot]) != r {
			p = before[slot]
		}
		now := sys.encodedProgress(int(slot))
		if step := now - p; step == 1 {
			advanced++
		} else if step != 0 {
			t.Fatalf("round %d: slot %d went from progress %d to %d", r, slot, p, now)
		}
		matchedUnder.base[slot] = matchedUnder.clock - p
	}
	live := sys.matcher.ActiveCount()
	flow := int(oracleMaxFlow(sys, matchedUnder))
	if res.Matched != flow || res.Unmatched != live-flow {
		t.Fatalf("round %d: matched %d, unmatched %d; the max flow over %d live requests is %d",
			r, res.Matched, res.Unmatched, live, flow)
	}
	if !sys.Failed() && advanced != res.Matched {
		t.Fatalf("round %d: %d requests advanced, %d were matched", r, advanced, res.Matched)
	}
	if (res.Obstruction != nil) != (res.Unmatched > 0) {
		t.Fatalf("round %d: %d unmatched, obstruction %+v", r, res.Unmatched, res.Obstruction)
	}
	if ob := res.Obstruction; ob != nil {
		if int64(ob.Requests) <= ob.Slots {
			t.Fatalf("round %d: certificate %+v is no Hall violator: %d requests fit %d slots",
				r, *ob, ob.Requests, ob.Slots)
		}
		// The violator's own deficiency is the whole deficiency: its
		// requests can reach no slot outside it.
		if ob.Requests-int(ob.Slots) != res.Unmatched {
			t.Fatalf("round %d: certificate %+v is short by %d, the round by %d",
				r, *ob, ob.Requests-int(ob.Slots), res.Unmatched)
		}
	}
}
