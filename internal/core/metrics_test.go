package core

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/stats"
	"repro/internal/video"
)

// retryGen asks for one viewing a round — of any box, busy or not, so some
// are refused — and stamps most demands as retries first made up to nine
// rounds earlier. One demand a round makes StepResult.Admitted say which
// demands were admitted, which is what the oracle below needs.
type retryGen struct {
	rng  *stats.RNG
	last Demand
}

func (g *retryGen) Next(v *View, round int) []Demand {
	g.last = Demand{Box: g.rng.Intn(v.NumBoxes()), Video: video.ID(g.rng.Intn(v.Catalog().M))}
	if g.rng.Bool(0.7) {
		g.last.Born = max(1, round-g.rng.Intn(10))
	}
	return []Demand{g.last}
}

// TestReportUnchangedByHistogram keeps, on the test's side, the list of
// start-up delays the engine used to keep — one float64 per admitted demand,
// rounds waited plus the strategy's intrinsic delay — and holds the Report
// built from the counting histogram to stats.Summarize of that list.
func TestReportUnchangedByHistogram(t *testing.T) {
	for _, tc := range []struct {
		name      string
		build     func() *System
		intrinsic func(box int) float64
	}{
		{"preload", func() *System { return buildHomogeneous(t, 13, 12, 2, 3, 10, 4, 2.0, 1.5, nil) },
			func(int) float64 { return 3 }},
		{"naive", func() *System {
			return buildHomogeneous(t, 13, 12, 2, 3, 10, 4, 2.0, 1.5, func(cfg *Config) { cfg.Strategy = StrategyNaive })
		}, func(int) float64 { return 2 }},
		{"relayed", func() *System { return buildRelayedSmall(t, 0.5) },
			func(box int) float64 { // boxes 0 and 1 are the poor ones
				if box < 2 {
					return 6
				}
				return 4
			}},
	} {
		sys := tc.build()
		gen := &retryGen{rng: stats.NewRNG(29)}
		var oracle []float64
		kinds := map[float64]bool{}
		for round := 1; round <= 400; round++ {
			res, err := sys.Step(gen)
			if err != nil {
				t.Fatalf("%s round %d: %v", tc.name, round, err)
			}
			if res.Admitted == 1 {
				born := gen.last.Born
				if born <= 0 {
					born = round
				}
				oracle = append(oracle, float64(round-born)+tc.intrinsic(gen.last.Box))
				kinds[tc.intrinsic(gen.last.Box)] = true
			}
		}
		want, got := stats.Summarize(oracle), sys.Report().StartupDelay
		if want.N < 20 || want.Max < want.Min+5 || (tc.name == "relayed" && len(kinds) != 2) {
			t.Fatalf("%s: scenario too thin to tell: %+v, intrinsic delays seen %v", tc.name, want, kinds)
		}
		if int64(got.N) != sys.Report().Admitted {
			t.Errorf("%s: %d delays recorded for %d admitted demands", tc.name, got.N, sys.Report().Admitted)
		}
		std, stdErr := got.Std, got.StdErr
		got.Std, got.StdErr = want.Std, want.StdErr
		if got != want || math.Abs(std-want.Std) > 1e-12*want.Std || math.Abs(stdErr-want.StdErr) > 1e-12*want.StdErr {
			t.Errorf("%s: start-up delays\nfrom the histogram (Std %v, StdErr %v) %+v\nfrom the list %+v", tc.name, std, stdErr, got, want)
		}
	}
}

// metricsStream is a runMetrics checkpoint section held field by field, so a
// test can put any length and any counts where the start-up histogram goes.
// bytes writes runMetrics.encode's layout by hand (no obstruction, no trace);
// TestDecodeRejectsCorruptStartupHistogram holds the two against each other.
type metricsStream struct {
	m       runMetrics
	histLen uint64
	hist    []int64
	cut     bool // the stream ends with the last count
}

func (ms metricsStream) bytes() []byte {
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	m := &ms.m
	for _, v := range []int64{m.demands, m.admitted, m.rejectedBusy, m.rejectedSwarm, m.stalls, m.completedViewings} {
		w.I64(v)
	}
	w.Int(m.failRound)
	w.Int(m.peakRequests)
	w.Int(0)
	w.U64(ms.histLen)
	for _, c := range ms.hist {
		w.I64(c)
	}
	if !ms.cut {
		w.F64(m.utilSum)
		w.I64(m.utilRounds)
		w.Int(m.maxSwarmEver)
		w.Int(0)
		for _, v := range []int64{m.preloadReqs, m.postponedReqs, m.relayedReqs, m.skippedSelf} {
			w.I64(v)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestDecodeRejectsCorruptStartupHistogram feeds the metrics decoder
// histograms recordStartup cannot have produced. Each comes back as an error
// naming what is wrong, without memory being sized from the stream's own
// length field; and a state stream of the version before the histogram is
// refused by its version, not read as if it were this one.
func TestDecodeRejectsCorruptStartupHistogram(t *testing.T) {
	const round = 40
	honest := func() metricsStream {
		m := runMetrics{demands: 9, admitted: 7, rejectedBusy: 2, completedViewings: 3, failRound: -1,
			peakRequests: 5, utilSum: 1.5, utilRounds: round, maxSwarmEver: 2, preloadReqs: 7, postponedReqs: 14}
		for _, d := range []int{3, 3, 3, 5, 3, 12, 5} {
			m.recordStartup(d)
		}
		return metricsStream{m: m, histLen: uint64(len(m.startupHist)), hist: append([]int64(nil), m.startupHist...)}
	}
	var production bytes.Buffer
	w := ckpt.NewWriter(&production)
	hm := honest().m
	hm.encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(production.Bytes(), honest().bytes()) {
		t.Fatal("runMetrics.encode does not write the layout this test corrupts")
	}
	var back runMetrics
	if err := back.decode(ckpt.NewReader(bytes.NewReader(honest().bytes())), round); err != nil {
		t.Fatalf("honest stream rejected: %v", err)
	}
	if got, want := stats.SummarizeCounts(back.startupHist), stats.SummarizeCounts(hm.startupHist); got != want || got.N != 7 || got.Max != 12 {
		t.Fatalf("histogram did not round-trip: %+v, want %+v", got, want)
	}

	for _, tc := range []struct {
		name    string
		round   int
		corrupt func(ms *metricsStream)
		want    string
	}{
		{"negative count", round, func(ms *metricsStream) { ms.hist[3], ms.hist[5] = -1, 3 }, "counts -1 demands at delay 3"},
		{"one demand too many", round, func(ms *metricsStream) { ms.hist[12]++ }, "counts 2 demands at delay 12, 1 of 7 admitted are unaccounted for"},
		{"one demand too few", round, func(ms *metricsStream) { ms.hist[5]-- }, "counts 6 demands, 7 were admitted"},
		{"counts that overflow their sum", round, func(ms *metricsStream) { ms.hist[3], ms.hist[5] = math.MaxInt64, math.MaxInt64 }, "unaccounted for"},
		{"admitted negative", round, func(ms *metricsStream) { ms.m.admitted = -7 }, "unaccounted for"},
		// Delay 12 is a demand born in round 1 and admitted, on a relayed
		// poor box, in round 7; no earlier round can have recorded it.
		{"the longest delay the clock allows", 7, func(ms *metricsStream) {}, ""},
		{"a delay the clock cannot have produced", 6, func(ms *metricsStream) {}, "has 13 delays, round 6 allows 12"},
		{"length of 2^40", round, func(ms *metricsStream) { ms.histLen = 1 << 40 }, "has 1099511627776 delays"},
		{"length beyond the stream", math.MaxInt32, func(ms *metricsStream) { ms.histLen, ms.cut = math.MaxInt32, true }, "EOF"},
	} {
		ms := honest()
		tc.corrupt(&ms)
		stream := ms.bytes()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := new(runMetrics).decode(ckpt.NewReader(bytes.NewReader(stream)), tc.round)
		runtime.ReadMemStats(&after)
		if tc.want == "" && err != nil {
			t.Errorf("%s: decode returned %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: decode returned %v, want an error naming %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decode allocated %d bytes on a %d-byte stream", tc.name, grew, len(stream))
		}
	}

	// The layout before the histogram: the version word is all a decoder
	// may read of it.
	var v1 bytes.Buffer
	w = ckpt.NewWriter(&v1)
	w.U64(1)
	sys := buildHomogeneous(t, 13, 12, 2, 3, 10, 4, 2.0, 1.5, nil)
	w.U64(sys.Fingerprint())
	w.Int(3)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	err := sys.DecodeState(ckpt.NewReader(&v1))
	if err == nil || !strings.Contains(err.Error(), "checkpoint state version 1, this build reads 4") {
		t.Fatalf("version-1 state: DecodeState returned %v, want the version error", err)
	}
	if sys.Round() != 0 {
		t.Fatalf("version-1 state moved the system to round %d before it was refused", sys.Round())
	}
}
