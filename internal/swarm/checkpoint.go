package swarm

// Checkpoint serialization. The file carries each video's size, its f(t)
// snapshot and this round's entries (as the lazy records read them), the
// entry counters, and per video the entry rounds of its current members in
// ascending order: the ring regrouped by video. The aggregate counters,
// the ring and the drained list are rebuilt on decode. The active-video
// list is written in its exact order: swap-removal makes the order
// history-dependent, and later removals reshuffle it from there.

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/video"
)

// EncodeState serializes the tracker's swarm state. Construction
// parameters (m, t, µ) are not written: restore targets a tracker freshly
// built from the same configuration.
func (tr *Tracker) EncodeState(w *ckpt.Writer) {
	w.Int(tr.round)
	w.Int(tr.maxEver)
	// Three columns in the layout of ckpt.Writer.Ints: size, prev, entered.
	w.U64(uint64(len(tr.recs)))
	for v := range tr.recs {
		w.I32(tr.recs[v].size)
	}
	w.U64(uint64(len(tr.recs)))
	for v := range tr.recs {
		prev, _ := tr.recs[v].lazy(tr.epoch)
		w.I32(prev)
	}
	w.U64(uint64(len(tr.recs)))
	for v := range tr.recs {
		_, entered := tr.recs[v].lazy(tr.epoch)
		w.I32(entered)
	}
	w.I64s(tr.counter)
	rounds, off := tr.memberRounds()
	for v := range tr.recs {
		if p := tr.recs[v].pos; p >= 0 {
			w.Ints(rounds[off[p]:off[p+1]])
		} else {
			w.Ints(nil)
		}
	}
	w.Int(len(tr.activeVids))
	for _, v := range tr.activeVids {
		w.Int(int(v))
	}
}

// memberRounds regroups the ring by video: the members of activeVids[p]
// entered at rounds[off[p]:off[p+1]], in ascending order.
func (tr *Tracker) memberRounds() (rounds, off []int) {
	off = make([]int, len(tr.activeVids)+1)
	for p, v := range tr.activeVids {
		off[p+1] = off[p] + int(tr.recs[v].size)
	}
	rounds = make([]int, tr.totalViewers)
	next := append([]int(nil), off...)
	for r := max(tr.round-tr.t+1, 0); r <= tr.round; r++ {
		for _, v := range tr.ring[r%(tr.t+1)] {
			rounds[next[tr.recs[v].pos]] = r
			next[tr.recs[v].pos]++
		}
	}
	return rounds, off
}

// DecodeState restores state written by EncodeState into a freshly
// constructed tracker for the same catalog. It refuses a stream the ring
// and the lazy records could not have produced: entry rounds out of order
// or outside the live window (round−T, round], more entries this round
// than members, or an active list other than the videos carrying state.
func (tr *Tracker) DecodeState(r *ckpt.Reader) error {
	tr.round, tr.maxEver = r.Int(), r.Int()
	sizes, prev, entered, counter := r.Ints(), r.Ints(), r.Ints(), r.I64s()
	if err := r.Err(); err != nil {
		return err
	}
	m := len(tr.recs)
	if tr.round < 0 || len(sizes) != m || len(prev) != m || len(entered) != m || len(counter) != m {
		return fmt.Errorf("swarm: checkpoint at round %d sized for %d/%d/%d/%d videos, tracker has %d",
			tr.round, len(sizes), len(prev), len(entered), len(counter), m)
	}
	tr.counter = counter
	tr.totalViewers, tr.activeSwarms = 0, 0
	live := 0
	for v := range tr.recs {
		sz, p, e := sizes[v], prev[v], entered[v]
		if p < 0 || e < 0 || e > sz || sz > math.MaxInt32 || p > math.MaxInt32 {
			return fmt.Errorf("swarm: video %d size/prev/entered %d/%d/%d out of range", v, sz, p, e)
		}
		tr.recs[v] = record{size: int32(sz), prev: int32(p), entered: int32(e), stamp: tr.epoch, pos: -1}
		tr.totalViewers += sz
		tr.activeSwarms += min(sz, 1)
		if sz > 0 || p > 0 {
			live++
		}
	}
	lo := max(tr.round-tr.t+1, 0)
	for v := range tr.recs {
		rounds := r.Ints()
		if err := r.Err(); err != nil {
			return err
		}
		if len(rounds) != sizes[v] {
			return fmt.Errorf("swarm: video %d holds %d member rounds, size says %d", v, len(rounds), sizes[v])
		}
		for i, e := range rounds {
			if e < lo || e > tr.round || i > 0 && e < rounds[i-1] {
				return fmt.Errorf("swarm: video %d entry rounds %v not ascending within [%d, %d]", v, rounds, lo, tr.round)
			}
			tr.ring[e%(tr.t+1)] = append(tr.ring[e%(tr.t+1)], video.ID(v))
		}
	}
	if n := r.Int(); r.Err() == nil && n != live {
		return fmt.Errorf("swarm: checkpoint active list length %d, %d videos carry swarm state", n, live)
	}
	tr.activeVids = make([]video.ID, live)
	for i := range tr.activeVids {
		v := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if v < 0 || v >= m || tr.recs[v].pos >= 0 || sizes[v] == 0 && prev[v] == 0 {
			return fmt.Errorf("swarm: checkpoint active list holds invalid video %d", v)
		}
		tr.activeVids[i] = video.ID(v)
		tr.recs[v].pos = int32(i)
		if sizes[v] == 0 {
			tr.drained = append(tr.drained, video.ID(v))
		}
	}
	return r.Err()
}
