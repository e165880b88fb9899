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

// FuzzDecodeState hands DecodeState any bytes over the fixed system.
// Decode must refuse the stream with an error, or load a state that passes
// the audit and then runs 10 Paranoid rounds of demands without a panic.
// A round may end in an error: Paranoid's matcher Verify catches an
// assignment whose edge a hostile stream took away, which the audit does
// not check. The honest seeds must run all 10 rounds. They are the
// system's checkpoints at rounds 0, 15 and 60; plain go test replays them,
// and the fuzzer mutates them into streams no engine writes.
func FuzzDecodeState(f *testing.F) {
	live := fuzzDecodeSystem(f)
	gen := &uniformGen{rng: stats.NewRNG(5), p: 0.6}
	honest := map[string]bool{}
	for _, round := range []int{0, 15, 60} {
		for live.Round() < round {
			if _, err := live.Step(gen); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		if err := live.EncodeState(w); err != nil {
			f.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		honest[buf.String()] = true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzDecodeSystem(t)
		if err := s.DecodeState(ckpt.NewReader(bytes.NewReader(data))); err != nil {
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
