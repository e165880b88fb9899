package swarm

// Checkpoint serialization. Sizes, entry counters, and the per-video
// expiry queues are written exactly (queues compacted to their live
// suffix — the head offset is memory layout, not behavior); the aggregate
// counters are re-derived on decode. The active-video list is written in
// its exact order: swap-removal makes the order history-dependent, and a
// bit-identical resume must walk BeginRound in the same sequence.

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/video"
)

// EncodeState serializes the tracker's swarm state. Construction
// parameters (m, t, µ) are not written: restore targets a tracker freshly
// built from the same configuration.
func (tr *Tracker) EncodeState(w *ckpt.Writer) {
	w.Int(tr.round)
	w.Int(tr.maxEver)
	w.Ints(tr.sizes)
	w.Ints(tr.prev)
	w.Ints(tr.entered)
	w.I64s(tr.counter)
	for v := range tr.expiry {
		q := &tr.expiry[v]
		w.Ints(q.rounds[q.head:])
	}
	w.Int(len(tr.activeVids))
	for _, v := range tr.activeVids {
		w.Int(int(v))
	}
}

// DecodeState restores state written by EncodeState into a freshly
// constructed tracker for the same catalog.
func (tr *Tracker) DecodeState(r *ckpt.Reader) error {
	tr.round = r.Int()
	tr.maxEver = r.Int()
	sizes := r.Ints()
	prev := r.Ints()
	entered := r.Ints()
	counter := r.I64s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(sizes) != tr.m || len(prev) != tr.m || len(entered) != tr.m || len(counter) != tr.m {
		return fmt.Errorf("swarm: checkpoint sized for %d/%d/%d/%d videos, tracker has %d",
			len(sizes), len(prev), len(entered), len(counter), tr.m)
	}
	tr.sizes, tr.prev, tr.entered, tr.counter = sizes, prev, entered, counter
	tr.totalViewers = 0
	tr.activeSwarms = 0
	for _, sz := range sizes {
		tr.totalViewers += sz
		if sz > 0 {
			tr.activeSwarms++
		}
	}
	for v := range tr.expiry {
		tr.expiry[v] = memberQueue{rounds: r.Ints()}
		if len(tr.expiry[v].rounds) != sizes[v] {
			return fmt.Errorf("swarm: video %d expiry queue has %d members, size says %d",
				v, len(tr.expiry[v].rounds), sizes[v])
		}
	}
	nActive := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nActive < 0 || nActive > tr.m {
		return fmt.Errorf("swarm: checkpoint active list length %d out of range", nActive)
	}
	tr.activeVids = make([]video.ID, nActive) // at most the catalog, whatever the stream says
	for i := range tr.pos {
		tr.pos[i] = -1
	}
	for i := range tr.activeVids {
		v := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if v < 0 || v >= tr.m || tr.pos[v] >= 0 {
			return fmt.Errorf("swarm: checkpoint active list holds invalid video %d", v)
		}
		tr.activeVids[i] = video.ID(v)
		tr.pos[v] = int32(i)
	}
	return r.Err()
}
