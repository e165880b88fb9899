package swarm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/video"
)

// refTracker is the walk-based tracker the ring replaced, kept as the
// reference: per-video arrays and an entry-round queue per video, and a
// BeginRound that walks every live video, snapshots its size, pops its
// expired members and swap-removes it once it has drained and its
// snapshot reached zero. Its EncodeState writes the materialised arrays
// in the checkpoint layout.
type refTracker struct {
	mu    float64
	t     int
	round int

	sizes, prev, entered []int
	counter              []int64
	expiry               [][]int // per video, entry rounds of current members

	activeVids []video.ID
	pos        []int32

	totalViewers, activeSwarms, maxEver int
}

func newRefTracker(m, t int, mu float64) *refTracker {
	ref := &refTracker{
		mu:      mu,
		t:       t,
		sizes:   make([]int, m),
		prev:    make([]int, m),
		entered: make([]int, m),
		counter: make([]int64, m),
		expiry:  make([][]int, m),
		pos:     make([]int32, m),
	}
	for v := range ref.pos {
		ref.pos[v] = -1
	}
	return ref
}

func (ref *refTracker) BeginRound(round int) {
	ref.round = round
	for i := 0; i < len(ref.activeVids); {
		v := ref.activeVids[i]
		ref.prev[v] = ref.sizes[v]
		ref.entered[v] = 0
		for len(ref.expiry[v]) > 0 && ref.expiry[v][0]+ref.t <= round {
			ref.expiry[v] = ref.expiry[v][1:]
			ref.sizes[v]--
			ref.totalViewers--
			if ref.sizes[v] == 0 {
				ref.activeSwarms--
			}
		}
		if ref.sizes[v] == 0 && ref.prev[v] == 0 {
			last := ref.activeVids[len(ref.activeVids)-1]
			ref.activeVids[i] = last
			ref.pos[last] = int32(i)
			ref.activeVids = ref.activeVids[:len(ref.activeVids)-1]
			ref.pos[v] = -1 // revisit index i
		} else {
			i++
		}
	}
}

func (ref *refTracker) Allowance(v video.ID) int {
	base := max(ref.prev[v], 1)
	return max(int(math.Ceil(float64(base)*ref.mu))-ref.sizes[v], 0)
}

func (ref *refTracker) Enter(v video.ID, c int) (int, error) {
	if ref.Allowance(v) <= 0 {
		return 0, fmt.Errorf("growth bound reached for video %d", v)
	}
	idx := int(ref.counter[v] % int64(c))
	ref.counter[v]++
	if ref.sizes[v] == 0 {
		ref.activeSwarms++
	}
	ref.sizes[v]++
	ref.totalViewers++
	ref.maxEver = max(ref.maxEver, ref.sizes[v])
	ref.entered[v]++
	if ref.pos[v] < 0 {
		ref.pos[v] = int32(len(ref.activeVids))
		ref.activeVids = append(ref.activeVids, v)
	}
	ref.expiry[v] = append(ref.expiry[v], ref.round)
	return idx, nil
}

func (ref *refTracker) MaxSize() int {
	best := 0
	for _, v := range ref.activeVids {
		best = max(best, ref.sizes[v])
	}
	return best
}

func (ref *refTracker) EncodeState(w *ckpt.Writer) {
	w.Int(ref.round)
	w.Int(ref.maxEver)
	w.Ints(ref.sizes)
	w.Ints(ref.prev)
	w.Ints(ref.entered)
	w.I64s(ref.counter)
	for _, q := range ref.expiry {
		w.Ints(q)
	}
	w.Int(len(ref.activeVids))
	for _, v := range ref.activeVids {
		w.Int(int(v))
	}
}

// stateBytes returns what enc writes.
func stateBytes(t testing.TB, enc func(*ckpt.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	enc(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runLockstep decodes data into a tracker configuration and a stream of
// operations and drives the tracker and the reference through it,
// comparing every observable after every operation. The first three bytes
// pick the catalog (1..16 videos), T (1..6) and µ (1..4.75); the first
// byte's high bit begins round 0 before the first entry. Each later byte
// is an Enter (below 160; the video is the byte mod m), a BeginRound
// after a gap of 1..T+2 rounds (160..239), or a checkpoint round trip
// that replaces the tracker with a decoded copy (240 and up).
func runLockstep(t testing.TB, data []byte) {
	if len(data) < 3 {
		return
	}
	m, T := 1+int(data[0]%16), 1+int(data[1]%6)
	mu := 1 + float64(data[2]%16)/4
	const c = 3
	tr, ref := NewTracker(m, T, mu), newRefTracker(m, T, mu)
	if data[0] >= 128 {
		tr.BeginRound(0)
		ref.BeginRound(0)
	}
	for i, b := range data[3:] {
		op := ""
		switch {
		case b < 160:
			v := video.ID(int(b) % m)
			op = fmt.Sprintf("Enter(%d)", v)
			gotIdx, gotErr := tr.Enter(v, c)
			wantIdx, wantErr := ref.Enter(v, c)
			if gotIdx != wantIdx || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("op %d %s at round %d: got (%d, %v), reference (%d, %v)",
					i, op, ref.round, gotIdx, gotErr, wantIdx, wantErr)
			}
		case b < 240:
			round := ref.round + 1 + int(b-160)%(T+2)
			op = fmt.Sprintf("BeginRound(%d)", round)
			tr.BeginRound(round)
			ref.BeginRound(round)
		default:
			op = "checkpoint round trip"
			saved := stateBytes(t, tr.EncodeState)
			tr = NewTracker(m, T, mu)
			if err := tr.DecodeState(ckpt.NewReader(bytes.NewReader(saved))); err != nil {
				t.Fatalf("op %d: honest checkpoint refused: %v", i, err)
			}
		}
		for v := range m {
			id := video.ID(v)
			if tr.Size(id) != ref.sizes[v] || tr.Allowance(id) != ref.Allowance(id) ||
				tr.EnteredThisRound(id) != ref.entered[v] || tr.Counter(id) != ref.counter[v] {
				t.Fatalf("op %d %s: video %d size/allowance/entered/counter %d/%d/%d/%d, reference %d/%d/%d/%d",
					i, op, v, tr.Size(id), tr.Allowance(id), tr.EnteredThisRound(id), tr.Counter(id),
					ref.sizes[v], ref.Allowance(id), ref.entered[v], ref.counter[v])
			}
		}
		if tr.ActiveSwarms() != ref.activeSwarms || tr.TotalViewers() != ref.totalViewers ||
			tr.MaxSize() != ref.MaxSize() || tr.MaxSizeEver() != ref.maxEver {
			t.Fatalf("op %d %s: swarms/viewers/max/maxEver %d/%d/%d/%d, reference %d/%d/%d/%d",
				i, op, tr.ActiveSwarms(), tr.TotalViewers(), tr.MaxSize(), tr.MaxSizeEver(),
				ref.activeSwarms, ref.totalViewers, ref.MaxSize(), ref.maxEver)
		}
		if got, want := stateBytes(t, tr.EncodeState), stateBytes(t, ref.EncodeState); !bytes.Equal(got, want) {
			t.Fatalf("op %d %s: checkpoint bytes differ from the reference's (active %v, reference %v)",
				i, op, tr.activeVids, ref.activeVids)
		}
	}
}

// lockstepCases returns n pseudo-random operation streams for runLockstep.
func lockstepCases(n int) [][]byte {
	rng := rand.New(rand.NewPCG(45, 0))
	cases := make([][]byte, n)
	for k := range cases {
		data := make([]byte, 3+50+rng.IntN(350))
		for i := range data {
			data[i] = byte(rng.UintN(256))
		}
		cases[k] = data
	}
	return cases
}

// TestTrackerLockstep holds the ring tracker to the walk-based reference:
// sizes, allowances, this round's entries, counters, aggregates and the
// checkpoint bytes agree after every Enter, BeginRound (gaps of 1..T+2
// rounds) and checkpoint round trip.
func TestTrackerLockstep(t *testing.T) {
	for k, data := range lockstepCases(300) {
		t.Run(fmt.Sprint(k), func(t *testing.T) { runLockstep(t, data) })
	}
}

// FuzzTrackerLockstep searches past TestTrackerLockstep's streams for one
// on which the ring tracker and the reference part.
func FuzzTrackerLockstep(f *testing.F) {
	for _, data := range lockstepCases(16) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runLockstep(t, data) })
}
