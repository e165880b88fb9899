package core

import (
	"testing"

	"repro/internal/allocation"
	"repro/internal/stats"
	"repro/internal/video"
)

// FuzzRoundOracle decodes its input into a stalling system of at most 64
// boxes and a stream of rounds — per round an optional capacity change and
// a batch of demands — and holds every round to checkRoundOracle: Matched
// is the Dinic max flow of that round's request graph, and so on. The
// system runs Paranoid, so the matcher's Verify holds after every
// matching or Step fails. The seed corpus is TestRoundOracle's three
// workloads, re-encoded from the demands their generators emit (the
// fail-stop one stalls here instead, and the soak stops at the decoder's
// round cap).
func FuzzRoundOracle(f *testing.F) {
	for _, w := range []struct {
		spec   oracleSpec
		gen    Generator
		rounds int
		churn  bool
	}{
		{oracleSpec{seed: 43, n: 18, d: 1, c: 4, T: 9, k: 2, u: 1, mu: 3}, &uniformGen{rng: stats.NewRNG(1213), p: 0.8}, 150, true},
		{oracleSpec{seed: 43, n: 18, d: 1, c: 4, T: 9, k: 2, u: 1, mu: 3}, &uniformGen{rng: stats.NewRNG(1213), p: 0.8}, 150, false},
		{oracleSpec{seed: 77, n: 40, d: 2, c: 4, T: 12, k: 5, u: 6, mu: 1}, &mixedGen{rng: stats.NewRNG(101)}, oracleMaxRounds, false},
	} {
		f.Add(encodeOracleRun(f, w.spec, w.gen, w.rounds, w.churn))
	}
	f.Fuzz(func(t *testing.T, data []byte) { roundOracle(t, data) })
}

// The header's upload and growth are indices into these tables.
var (
	oracleUploads = [8]float64{0.5, 0.8, 1, 1.25, 1.5, 2, 2.5, 3}
	oracleGrowth  = [4]float64{1.2, 1.3, 1.5, 2}
)

// oracleSpec is the decoded header: an allocation seed, boxes, storage,
// stripes, video length and replicas of a homogeneous permutation
// allocation, and table indices for the upload and µ.
type oracleSpec struct{ seed, n, d, c, T, k, u, mu int }

// Field widths of the input format, and its round cap.
const (
	oracleSeedBits  = 8
	oracleBoxBits   = 6 // boxes − 1, and a box id mod boxes
	oracleVideoBits = 8 // a video id mod the catalog
	oracleCountBits = 6 // demands in a round
	oracleSlotsBits = 4 // a capacity in slots
	oracleMaxRounds = 300
)

func decodeOracleSpec(in *fuzzBits) oracleSpec {
	return oracleSpec{
		seed: in.take(oracleSeedBits),
		n:    1 + in.take(oracleBoxBits),
		d:    1 + in.take(2),
		c:    1 + in.take(3),
		T:    2 + in.take(4),
		k:    1 + in.take(3),
		u:    in.take(3),
		mu:   in.take(2),
	}
}

func (s oracleSpec) encode(out *bitWriter) {
	for _, f := range [][2]int{{s.seed, oracleSeedBits}, {s.n - 1, oracleBoxBits}, {s.d - 1, 2}, {s.c - 1, 3},
		{s.T - 2, 4}, {s.k - 1, 3}, {s.u, 3}, {s.mu, 2}} {
		out.put(f[0], f[1])
	}
}

// build returns the spec's system, or nil when the header names no valid
// allocation.
func (s oracleSpec) build() *System {
	alloc, _, err := allocation.HomogeneousPermutation(stats.NewRNG(uint64(s.seed)), s.n, s.d, s.c, s.T, s.k)
	if err != nil {
		return nil
	}
	uploads := make([]float64, s.n)
	for b := range uploads {
		uploads[b] = oracleUploads[s.u]
	}
	sys, err := NewSystem(Config{Alloc: alloc, Uploads: uploads, Mu: oracleGrowth[s.mu], Failure: FailStall, Paranoid: true})
	if err != nil {
		return nil
	}
	return sys
}

// oracleBatch is the Generator that hands Step the round's decoded demands.
type oracleBatch struct{ demands []Demand }

func (g *oracleBatch) Next(*View, int) []Demand { return g.demands }

func roundOracle(t *testing.T, data []byte) {
	in := &fuzzBits{data: data}
	spec := decodeOracleSpec(in)
	sys := spec.build()
	if sys == nil {
		return
	}
	m := sys.cat.M
	gen := &oracleBatch{}
	for r := 1; r <= oracleMaxRounds && !in.done(); r++ {
		if in.take(1) == 1 {
			b, slots := in.take(oracleBoxBits)%spec.n, in.take(oracleSlotsBits)
			if err := sys.SetCapacity(b, int64(slots)); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		gen.demands = gen.demands[:0]
		for i := in.take(oracleCountBits); i > 0; i-- {
			gen.demands = append(gen.demands, Demand{
				Box:   in.take(oracleBoxBits) % spec.n,
				Video: video.ID(in.take(oracleVideoBits) % m),
			})
		}
		before := progressTable(sys)
		res, err := sys.Step(gen)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		checkRoundOracle(t, sys, r, res, before)
	}
}

// bitWriter is fuzzBits' inverse: it packs little bit fields.
type bitWriter struct {
	data []byte
	pos  int
}

func (w *bitWriter) put(v, n int) {
	for i := 0; i < n; i++ {
		if w.pos%8 == 0 {
			w.data = append(w.data, 0)
		}
		if v>>i&1 == 1 {
			w.data[w.pos/8] |= 1 << (w.pos % 8)
		}
		w.pos++
	}
}

// encodeOracleRun steps spec's system with gen for the given rounds —
// applying checkpointChurn's capacity changes when churn is set — and
// encodes the header, every capacity change and every demand gen emitted
// as a FuzzRoundOracle input that replays the same run.
func encodeOracleRun(f *testing.F, spec oracleSpec, gen Generator, rounds int, churn bool) []byte {
	sys := spec.build()
	if sys == nil {
		f.Fatalf("seed spec %+v builds no system", spec)
	}
	out := &bitWriter{}
	spec.encode(out)
	origCap := sys.View().UploadSlots(0)
	rec := &recordingGen{inner: gen, byRound: map[int][]Demand{}}
	for r := 1; r <= rounds; r++ {
		b, slots := -1, int64(0)
		switch {
		case churn && r%5 == 0:
			b, slots = (r*7)%spec.n, 1
		case churn && r%5 == 2 && r >= 5:
			b, slots = ((r-2)*7)%spec.n, origCap
		}
		if b < 0 {
			out.put(0, 1)
		} else {
			out.put(1, 1)
			out.put(b, oracleBoxBits)
			out.put(int(slots), oracleSlotsBits)
			if err := sys.SetCapacity(b, slots); err != nil {
				f.Fatal(err)
			}
		}
		if _, err := sys.Step(rec); err != nil {
			f.Fatal(err)
		}
		batch := rec.byRound[r]
		if len(batch) >= 1<<oracleCountBits {
			f.Fatalf("round %d: %d demands do not fit the count field", r, len(batch))
		}
		out.put(len(batch), oracleCountBits)
		for _, d := range batch {
			out.put(d.Box, oracleBoxBits)
			out.put(int(d.Video), oracleVideoBits)
		}
	}
	return out.data
}
