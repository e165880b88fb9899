package swarm

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ckpt"
	"repro/internal/video"
)

func TestTrackerBasics(t *testing.T) {
	tr := NewTracker(3, 10, 2)
	tr.BeginRound(0)
	if tr.Size(0) != 0 || tr.ActiveSwarms() != 0 {
		t.Fatal("fresh tracker not empty")
	}
	// Empty swarm: allowance ⌈1·2⌉ = 2.
	if a := tr.Allowance(0); a != 2 {
		t.Fatalf("allowance = %d, want 2", a)
	}
	if _, err := tr.Enter(0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Enter(0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Enter(0, 4); err == nil {
		t.Fatal("third entry should exceed growth bound")
	}
	if tr.Size(0) != 2 || tr.EnteredThisRound(0) != 2 {
		t.Fatalf("size=%d entered=%d", tr.Size(0), tr.EnteredThisRound(0))
	}
}

func TestGrowthSequence(t *testing.T) {
	// µ=2: sizes can at most double (rounded up) each round.
	tr := NewTracker(1, 100, 2)
	expect := []int{2, 4, 8, 16, 32}
	for round, want := range expect {
		tr.BeginRound(round)
		admitted := 0
		for tr.Allowance(0) > 0 {
			if _, err := tr.Enter(0, 4); err != nil {
				t.Fatal(err)
			}
			admitted++
		}
		if tr.Size(0) != want {
			t.Fatalf("round %d: size %d, want %d", round, tr.Size(0), want)
		}
		_ = admitted
	}
}

func TestFractionalGrowth(t *testing.T) {
	// µ=1.5 from size 1: ⌈1.5⌉=2, ⌈3⌉=3, ⌈4.5⌉=5...
	tr := NewTracker(1, 100, 1.5)
	tr.BeginRound(0)
	tr.Enter(0, 4)
	sizes := []int{2, 3, 5, 8, 12}
	for i, want := range sizes {
		tr.BeginRound(i + 1)
		for tr.Allowance(0) > 0 {
			tr.Enter(0, 4)
		}
		if tr.Size(0) != want {
			t.Fatalf("round %d: size %d, want %d", i+1, tr.Size(0), want)
		}
	}
}

func TestExpiry(t *testing.T) {
	tr := NewTracker(1, 5, 4)
	tr.BeginRound(0)
	tr.Enter(0, 2)
	tr.Enter(0, 2)
	for r := 1; r < 5; r++ {
		tr.BeginRound(r)
		if tr.Size(0) != 2 {
			t.Fatalf("round %d: size %d, want 2", r, tr.Size(0))
		}
	}
	tr.BeginRound(5) // entries at round 0 expire when 0+5 <= 5
	if tr.Size(0) != 0 {
		t.Fatalf("expired members linger: size %d", tr.Size(0))
	}
}

func TestExpiryFreesAllowance(t *testing.T) {
	tr := NewTracker(1, 3, 1) // µ=1 exactly: a swarm can never exceed 1
	tr.BeginRound(0)
	if _, err := tr.Enter(0, 2); err != nil {
		t.Fatal(err)
	}
	tr.BeginRound(1)
	if tr.Allowance(0) != 0 {
		t.Fatal("µ=1 should not allow growth beyond 1")
	}
	tr.BeginRound(3) // member expires (0+3 <= 3)
	// prev size was 1, allowance = ⌈1·1⌉ − 0 = 1: a fresh entry is legal.
	if _, err := tr.Enter(0, 2); err != nil {
		t.Fatalf("entry after expiry refused: %v", err)
	}
}

func TestRoundRobinCounter(t *testing.T) {
	tr := NewTracker(2, 100, 16)
	tr.BeginRound(0)
	c := 4
	var got []int
	for i := 0; i < 6; i++ {
		idx, err := tr.Enter(0, c)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, idx)
	}
	want := []int{0, 1, 2, 3, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("preload sequence %v, want %v", got, want)
		}
	}
	// Independent counter for other videos.
	if idx, _ := tr.Enter(1, c); idx != 0 {
		t.Fatalf("video 1 counter should start at 0, got %d", idx)
	}
	if tr.Counter(0) != 6 || tr.Counter(1) != 1 {
		t.Fatalf("counters: %d, %d", tr.Counter(0), tr.Counter(1))
	}
}

func TestAggregates(t *testing.T) {
	tr := NewTracker(3, 10, 4)
	tr.BeginRound(0)
	tr.Enter(0, 2)
	tr.Enter(0, 2)
	tr.Enter(2, 2)
	if tr.ActiveSwarms() != 2 {
		t.Errorf("ActiveSwarms = %d", tr.ActiveSwarms())
	}
	if tr.TotalViewers() != 3 {
		t.Errorf("TotalViewers = %d", tr.TotalViewers())
	}
	if tr.MaxSize() != 2 {
		t.Errorf("MaxSize = %d", tr.MaxSize())
	}
}

func TestPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewTracker(0, 10, 2) },
		func() { NewTracker(1, 0, 2) },
		func() { NewTracker(1, 10, 0.5) },
		func() {
			tr := NewTracker(1, 10, 2)
			tr.BeginRound(5)
			tr.BeginRound(3)
		},
		func() {
			tr := NewTracker(1, 10, 2)
			tr.BeginRound(5)
			tr.BeginRound(0) // round 0 repeats only before any later round
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: under greedy admission, the measured growth never exceeds
// ⌈max{f,1}·µ⌉ at any round.
func TestQuickGrowthBoundHolds(t *testing.T) {
	f := func(seed uint64, muRaw uint8) bool {
		mu := 1 + float64(muRaw%30)/10 // 1.0 .. 3.9
		tr := NewTracker(1, 1000, mu)  // long T: no expiry interference
		prev := 0
		x := seed
		for round := 0; round < 12; round++ {
			tr.BeginRound(round)
			// Admit a pseudo-random number of entries up to the allowance.
			x = x*6364136223846793005 + 1442695040888963407
			want := int(x % 7)
			for i := 0; i < want && tr.Allowance(0) > 0; i++ {
				if _, err := tr.Enter(0, 4); err != nil {
					return false
				}
			}
			base := prev
			if base < 1 {
				base = 1
			}
			if tr.Size(0) > int(math.Ceil(float64(base)*mu)) {
				return false
			}
			prev = tr.Size(0)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Enter never over-admits — Allowance is consistent with Enter's
// error behaviour.
func TestQuickAllowanceConsistent(t *testing.T) {
	f := func(muRaw uint8) bool {
		mu := 1 + float64(muRaw%20)/10
		tr := NewTracker(1, 100, mu)
		tr.BeginRound(0)
		for tr.Allowance(0) > 0 {
			if _, err := tr.Enter(0, 3); err != nil {
				return false
			}
		}
		_, err := tr.Enter(0, 3)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestHotVideoQueueBounded pins the member ring's footprint: a video with
// arrivals every round for many membership windows keeps one ring slot
// per live member, and the buckets' backing arrays stay at one round's
// arrivals, not total entries ever admitted.
func TestHotVideoQueueBounded(t *testing.T) {
	const T = 10
	tr := NewTracker(2, T, 4.0)
	for round := 1; round <= 5000; round++ {
		tr.BeginRound(round)
		for tr.Allowance(0) > 0 && tr.EnteredThisRound(0) < 3 {
			if _, err := tr.Enter(0, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	live, backing := 0, 0
	for _, b := range tr.ring {
		live += len(b)
		backing += cap(b)
	}
	if live != tr.Size(0) {
		t.Fatalf("ring holds %d members, swarm size %d", live, tr.Size(0))
	}
	// 3 entries/round in each of T+1 buckets; append's rounding aside, the
	// backing must be within a small constant of that, not ~15000.
	if backing > 4*3*(T+1) {
		t.Fatalf("ring backing arrays grew to %d for %d live members", backing, tr.Size(0))
	}
}

// TestMaxSizeEver pins the incremental peak against per-round MaxSize.
func TestMaxSizeEver(t *testing.T) {
	tr := NewTracker(3, 4, 2.0)
	peak := 0
	for round := 1; round <= 40; round++ {
		tr.BeginRound(round)
		v := video.ID(round % 3)
		for tr.Allowance(v) > 0 && tr.EnteredThisRound(v) < 2 {
			if _, err := tr.Enter(v, 4); err != nil {
				t.Fatal(err)
			}
		}
		if ms := tr.MaxSize(); ms > peak {
			peak = ms
		}
	}
	if tr.MaxSizeEver() != peak {
		t.Fatalf("MaxSizeEver = %d, per-round peak = %d", tr.MaxSizeEver(), peak)
	}
}

// TestDecodeRejectsRepeatedActiveVideo: the active-video list is restored
// with a position index, so a checkpoint naming one video twice would
// leave an index entry pointing at the wrong slot. Decoding refuses it.
func TestDecodeRejectsRepeatedActiveVideo(t *testing.T) {
	tr := NewTracker(3, 10, 2)
	tr.BeginRound(1)
	for _, v := range []video.ID{2, 0} {
		if _, err := tr.Enter(v, 4); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	tr.EncodeState(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if err := NewTracker(3, 10, 2).DecodeState(ckpt.NewReader(bytes.NewReader(b))); err != nil {
		t.Fatalf("honest checkpoint rejected: %v", err)
	}
	b[len(b)-1] = b[len(b)-2] // the list ends with two one-byte video ids
	err := NewTracker(3, 10, 2).DecodeState(ckpt.NewReader(bytes.NewReader(b)))
	if err == nil || !strings.Contains(err.Error(), "invalid video") {
		t.Fatalf("active list naming one video twice: %v", err)
	}
}

// rawState is a tracker checkpoint spelled out field by field, so a test
// can write states the tracker itself never would.
type rawState struct {
	round, maxEver       int
	sizes, prev, entered []int
	members              [][]int // per video, entry rounds
	active               []int
}

func (st rawState) bytes(t *testing.T) []byte {
	return stateBytes(t, func(w *ckpt.Writer) {
		w.Int(st.round)
		w.Int(st.maxEver)
		w.Ints(st.sizes)
		w.Ints(st.prev)
		w.Ints(st.entered)
		w.I64s(make([]int64, len(st.sizes)))
		for _, q := range st.members {
			w.Ints(q)
		}
		w.Int(len(st.active))
		for _, v := range st.active {
			w.Int(v)
		}
	})
}

// TestDecodeRefusesHostileState: the ring is rebuilt from the per-video
// entry rounds and the drained list from the active list, so decoding
// refuses rounds out of order or outside the live window, an active list
// other than the videos carrying state, and more entries this round than
// members. Each row changes one field of an honest state (T = 5, round
// 10: the live window is rounds 6..10).
func TestDecodeRefusesHostileState(t *testing.T) {
	honest := func() rawState {
		return rawState{
			round: 10, maxEver: 3,
			sizes:   []int{3, 0, 1, 0},
			prev:    []int{2, 1, 1, 0},
			entered: []int{1, 0, 0, 0},
			members: [][]int{{7, 9, 10}, nil, {6}, nil},
			active:  []int{2, 0, 1},
		}
	}
	for _, tc := range []struct {
		name, want string
		edit       func(*rawState)
	}{
		{"honest", "", func(*rawState) {}},
		{"rounds not ascending", "not ascending", func(st *rawState) { st.members[0] = []int{9, 7, 10} }},
		{"round expired", "not ascending within", func(st *rawState) { st.members[2] = []int{5} }},
		{"round in the future", "not ascending within", func(st *rawState) { st.members[0] = []int{7, 9, 11} }},
		{"member count", "member rounds", func(st *rawState) { st.members[2] = nil }},
		{"active list misses a live video", "active list length", func(st *rawState) { st.active = []int{2, 0} }},
		{"active list names a stateless video", "invalid video", func(st *rawState) { st.active = []int{2, 0, 3} }},
		{"active list too long", "active list length", func(st *rawState) { st.active = []int{2, 0, 1, 3} }},
		{"entered over size", "1/1/2 out of range", func(st *rawState) { st.entered[2] = 2 }},
		{"negative prev", "out of range", func(st *rawState) { st.prev[3] = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := honest()
			tc.edit(&st)
			err := NewTracker(4, 5, 2).DecodeState(ckpt.NewReader(bytes.NewReader(st.bytes(t))))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("honest state refused: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
