package core

import (
	"bytes"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/stats"
)

// fuzzDecodeSystem is FuzzDecodeState's fixed system: 20 boxes of upload
// 1.2 under a 4-stripe, 10-round catalog with 4 replicas, stalling instead
// of halting, Paranoid.
func fuzzDecodeSystem(tb testing.TB) *System {
	return buildHomogeneous(tb, 9, 20, 2, 4, 10, 4, 1.2, 1.5, func(cfg *Config) { cfg.Failure = FailStall })
}

// FuzzDecodeState hands Restore any bytes over the fixed system.
// Decode must refuse the stream with an error, or load a state that passes
// the audit and then runs 10 Paranoid rounds of demands without a panic.
// A round may end in an error: Paranoid's matcher Verify catches an
// assignment whose edge a hostile stream took away, which the audit does
// not check. The honest seeds must run all 10 rounds. They are the
// system's checkpoints at rounds 0, 15 and 60; plain go test replays them,
// and the fuzzer mutates them into streams no engine writes. One more seed
// is such a stream: the round-60 checkpoint with a cache entry moved to a
// box the system does not have, which decode must refuse before the store
// indexes by it.
func FuzzDecodeState(f *testing.F) { fuzzDecodeState(f, fuzzDecodeSystem) }

// FuzzDecodeStateRelayed is FuzzDecodeState over the relayed system of
// the paper's §4 (buildRelayedSmall: six boxes, the two poor ones each
// relayed by a rich one), whose checkpoints hold relayed issuances and
// the mirror entries of the poor boxes' viewings.
func FuzzDecodeStateRelayed(f *testing.F) {
	fuzzDecodeState(f, func(tb testing.TB) *System { return buildRelayedSmall(tb, 0.5) })
}

// fuzzDecodeState is FuzzDecodeState over the system build returns.
func fuzzDecodeState(f *testing.F, build func(testing.TB) *System) {
	live := build(f)
	gen := &uniformGen{rng: stats.NewRNG(5), p: 0.6}
	honest := map[string]bool{}
	encode := func() []byte {
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		if err := live.EncodeState(w); err != nil {
			f.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, round := range []int{0, 15, 60} {
		for live.Round() < round && !live.Failed() {
			if _, err := live.Step(gen); err != nil {
				f.Fatal(err)
			}
		}
		stream := encode()
		f.Add(stream)
		honest[string(stream)] = true
	}
	ix := live.avail.(*indexedAvailability)
	for _, head := range ix.byStripe {
		if head >= 0 {
			ix.slab[head].box = int32(live.n)
			f.Add(encode())
			break
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeOver(build(t), data)
		if err != nil {
			if honest[string(data)] {
				t.Fatalf("honest checkpoint refused: %v", err)
			}
			return
		}
		if err := s.audit(); err != nil {
			t.Fatalf("decoded state fails the audit: %v", err)
		}
		gen := &uniformGen{rng: stats.NewRNG(7), p: 0.5}
		for i := 0; i < 10 && !s.Failed(); i++ {
			if _, err := s.Step(gen); err != nil {
				if honest[string(data)] {
					t.Fatalf("step %d after decoding an honest checkpoint: %v", i+1, err)
				}
				return
			}
		}
	})
}
