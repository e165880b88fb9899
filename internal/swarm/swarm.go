// Package swarm tracks per-video swarm membership, enforces the paper's
// maximal swarm growth bound (f(t+1) ≤ ⌈max{f(t),1}·µ⌉, Section 1.1), and
// maintains the per-video round-robin counters that balance preloading
// requests over stripes (Section 3).
//
// The tracker is event-driven: a round costs O(entries + expiries), not
// O(videos with swarm state). Members live in a ring of T+1 buckets
// indexed by entry round, so BeginRound visits only the members whose T
// rounds are up. The f(t) snapshot is read lazily: a video's record is
// brought up to date the first time an entry or an expiry touches it in
// a round, and until then its previous size is its current size. The
// aggregate counters (viewers, active swarms, peak size) are maintained
// incrementally.
package swarm

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/video"
)

// record is one video's swarm state. prev and entered are current only
// when stamp equals the tracker's epoch; an older stamp means the video
// has not been touched since the last BeginRound, so its previous size is
// its size and nothing has entered yet. The epoch wraps, but no stale
// stamp comes round again: a live video is touched by an expiry at least
// every T rounds, and a video that leaves the live list is reset to zeros.
type record struct {
	size    int32 // current swarm size
	prev    int32 // swarm size at the end of the previous round
	entered int32 // entries already admitted this round
	stamp   uint32
	pos     int32 // index in activeVids, or -1
}

// Tracker follows swarm sizes across rounds. A box is a member of video
// v's swarm for exactly T rounds after entering.
type Tracker struct {
	mu    float64
	t     int // duration of membership (the video length T)
	round int
	epoch uint32 // BeginRound calls so far (mod 2³²): the records' clock

	recs    []record
	counter []int64 // preload round-robin counter per video
	// ring[r mod (T+1)] holds one video per member that entered at round
	// r, for the live rounds (round−T, round].
	ring [][]video.ID
	// drained holds the videos whose last member expired at the latest
	// BeginRound; those still empty at the next one leave activeVids.
	drained []video.ID
	// activeVids lists the videos carrying state (size > 0 or prev > 0).
	// Its order is history-dependent and part of the checkpoint.
	activeVids []video.ID

	totalViewers, activeSwarms, maxEver int
}

// NewTracker creates a tracker for m videos of duration t rounds with
// growth bound mu ≥ 1.
func NewTracker(m, t int, mu float64) *Tracker {
	if m <= 0 || t <= 0 || mu < 1 {
		panic(fmt.Sprintf("swarm: invalid tracker m=%d t=%d µ=%v", m, t, mu))
	}
	tr := &Tracker{
		mu:      mu,
		t:       t,
		recs:    make([]record, m),
		counter: make([]int64, m),
		ring:    make([][]video.ID, t+1),
	}
	for v := range tr.recs {
		tr.recs[v].pos = -1
	}
	return tr
}

// lazy returns the record's previous size and this round's entries as of
// the tracker epoch.
func (rec *record) lazy(epoch uint32) (prev, entered int32) {
	prev = rec.size
	if rec.stamp == epoch {
		prev, entered = rec.prev, rec.entered
	}
	return prev, entered
}

// touch brings v's record up to the current round and returns it.
func (tr *Tracker) touch(v video.ID) *record {
	rec := &tr.recs[v]
	rec.prev, rec.entered = rec.lazy(tr.epoch)
	rec.stamp = tr.epoch
	return rec
}

// removeAt swap-removes the video at index i of the live list.
func (tr *Tracker) removeAt(i int) {
	v := tr.activeVids[i]
	last := tr.activeVids[len(tr.activeVids)-1]
	tr.activeVids[i] = last
	tr.recs[last].pos = int32(i)
	tr.activeVids = tr.activeVids[:len(tr.activeVids)-1]
	// size = prev = entered = 0 reads the same at any epoch, so the
	// record of a video that left never goes stale.
	rec := &tr.recs[v]
	rec.prev, rec.entered, rec.pos = 0, 0, -1
}

// deactivate removes the videos that drained at the previous BeginRound
// and stayed empty — exactly the live videos of size 0. They leave in the
// order a walk over the live list with swap-removal would remove them: by
// position, and a due video pulled into a vacated index leaves from that
// same index at once.
func (tr *Tracker) deactivate() {
	slices.SortFunc(tr.drained, func(a, b video.ID) int { return int(tr.recs[a].pos - tr.recs[b].pos) })
	for _, v := range tr.drained {
		i := int(tr.recs[v].pos)
		if i < 0 || tr.recs[v].size > 0 {
			continue // pulled into an earlier index and removed there, or re-entered
		}
		tr.removeAt(i)
		for i < len(tr.activeVids) && tr.recs[tr.activeVids[i]].size == 0 {
			tr.removeAt(i)
		}
	}
	tr.drained = tr.drained[:0]
}

// BeginRound advances the tracker to the given round: it expires members
// whose T rounds have elapsed and starts the f(t) snapshot of the growth
// bound (every video's previous size becomes its size as it stands).
// Rounds must be strictly increasing; round 0 may be begun more than once
// before any later round. A video leaves the live list one round after its
// swarm fully drains (so its f(t) snapshot reaches zero).
func (tr *Tracker) BeginRound(round int) {
	if round < tr.round || round == tr.round && round != 0 {
		panic(fmt.Sprintf("swarm: BeginRound(%d) after round %d", round, tr.round))
	}
	tr.deactivate()
	last := tr.round
	tr.round = round
	tr.epoch++
	// Members that entered at r expire once r+T ≤ round; the live rounds
	// were (last−T, last].
	for r := max(last-tr.t+1, 0); r <= min(last, round-tr.t); r++ {
		b := r % (tr.t + 1)
		for _, v := range tr.ring[b] {
			rec := tr.touch(v)
			rec.size--
			tr.totalViewers--
			if rec.size == 0 {
				tr.activeSwarms--
				tr.drained = append(tr.drained, v)
			}
		}
		tr.ring[b] = tr.ring[b][:0]
	}
}

// Round returns the last round begun.
func (tr *Tracker) Round() int { return tr.round }

// Size returns the current swarm size of video v.
func (tr *Tracker) Size(v video.ID) int { return int(tr.recs[v].size) }

// Allowance returns how many more boxes may enter v's swarm this round
// without violating the growth bound.
func (tr *Tracker) Allowance(v video.ID) int {
	prev, _ := tr.recs[v].lazy(tr.epoch)
	limit := int(math.Ceil(float64(max(prev, 1)) * tr.mu))
	return max(limit-int(tr.recs[v].size), 0)
}

// Enter admits one box into v's swarm and returns the preload stripe index
// assigned by the round-robin counter (Section 3: the p-th box entering
// preloads stripe p mod c). It returns an error when the growth bound
// would be violated.
func (tr *Tracker) Enter(v video.ID, c int) (int, error) {
	if tr.Allowance(v) <= 0 {
		return 0, fmt.Errorf("swarm: growth bound µ=%v reached for video %d at round %d (size %d)",
			tr.mu, v, tr.round, tr.recs[v].size)
	}
	idx := int(tr.counter[v] % int64(c))
	tr.counter[v]++
	rec := tr.touch(v)
	if rec.size == 0 {
		tr.activeSwarms++
	}
	rec.size++
	rec.entered++
	tr.totalViewers++
	tr.maxEver = max(tr.maxEver, int(rec.size))
	if rec.pos < 0 {
		rec.pos = int32(len(tr.activeVids))
		tr.activeVids = append(tr.activeVids, v)
	}
	b := tr.round % (tr.t + 1)
	tr.ring[b] = append(tr.ring[b], v)
	return idx, nil
}

// EnteredThisRound returns how many boxes entered v's swarm this round.
func (tr *Tracker) EnteredThisRound(v video.ID) int {
	_, entered := tr.recs[v].lazy(tr.epoch)
	return int(entered)
}

// Counter returns the total number of entries ever admitted to v's swarm.
func (tr *Tracker) Counter(v video.ID) int64 { return tr.counter[v] }

// ActiveSwarms returns the number of videos with a non-empty swarm.
func (tr *Tracker) ActiveSwarms() int { return tr.activeSwarms }

// TotalViewers returns the total swarm membership over all videos.
func (tr *Tracker) TotalViewers() int { return tr.totalViewers }

// MaxSize returns the largest current swarm size.
func (tr *Tracker) MaxSize() int {
	best := 0
	for _, v := range tr.activeVids {
		best = max(best, int(tr.recs[v].size))
	}
	return best
}

// MaxSizeEver returns the largest swarm size ever reached. Since sizes
// only grow on Enter, this equals the maximum over rounds of MaxSize.
func (tr *Tracker) MaxSizeEver() int { return tr.maxEver }
