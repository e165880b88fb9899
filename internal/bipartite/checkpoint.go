package bipartite

// Checkpoint serialization. The matching state restored here must make a
// resumed run bit-identical to the uncheckpointed one, which dictates what
// is written exactly, what is derived, and what is reset:
//
//   - Order-bearing state is written verbatim: per-right assignment lists
//     (eviction is tail-first), the active-left list (sweep order), the
//     dirty queue (augmentation order), capacities (a sub-matcher's caps
//     are stale *views* of global capacity, not derivable from anything),
//     and the pending assignment/touch logs (SetCapacity between rounds
//     leaves them non-empty).
//   - Redundant state is re-derived: loads, back-pointer arrays, the
//     matched count, and the sharded engine's global load table — decoding
//     revalidates the invariants instead of trusting two copies to agree.
//   - Pure caches reset: epoch stamps restart at zero (stamps only ever
//     compare for equality against the current epoch) and stableTo drops
//     to empty (revalidateOne re-derives it with identical outcomes).

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
)

// maxDecodedIDs bounds decoded element counts so a corrupt checkpoint
// fails cleanly instead of attempting a huge allocation.
const maxDecodedIDs = 1 << 31

// EncodeState serializes the matcher's matching state. Construction-time
// settings (SerialAugment, log switches) are not written: restore targets
// a matcher freshly built from the same configuration.
func (m *Matcher) EncodeState(w *ckpt.Writer) {
	w.Int(len(m.rights))
	for i := range m.rights {
		w.I64(int64(m.rights[i].cap))
	}
	w.Bools(m.active)
	w.I32s(m.activeLefts)
	for r := range m.rights {
		w.I32s(m.AssignedLefts(r))
	}
	w.I32s(m.dirty)
	w.I32s(m.assignLog)
	w.I32s(m.touchLog)
}

// DecodeState restores state written by EncodeState into a freshly
// constructed matcher, rebuilding every derived structure (loads,
// back-pointers, matched count) and resetting search scratch.
func (m *Matcher) DecodeState(r *ckpt.Reader) error {
	nr := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nr < 0 || nr > maxDecodedIDs {
		return fmt.Errorf("bipartite: checkpoint right count %d out of range", nr)
	}
	m.rights = make([]rightRec, nr)
	m.arena, m.arenaNext = nil, 0
	for i := range m.rights {
		c := r.I64()
		if err := r.Err(); err != nil {
			return err
		}
		if c < 0 || c > math.MaxInt32 {
			return fmt.Errorf("bipartite: checkpoint capacity %d of right %d out of range", c, i)
		}
		m.rights[i] = rightRec{cap: int32(c), parentLeft: -1}
	}
	m.active = r.Bools()
	nl := len(m.active)
	m.assigned = make([]int32, nl)
	m.posInRight = make([]int32, nl)
	m.posActive = make([]int32, nl)
	m.stableTo = make([]int32, nl)
	for l := range m.assigned {
		m.assigned[l] = Unassigned
		m.posInRight[l] = -1
		m.posActive[l] = -1
		m.stableTo[l] = noStable
	}
	m.epoch = 0
	m.visitL = make([]uint32, nl)
	m.levelL = make([]int32, nl)
	m.usedL = make([]uint32, nl)
	m.inDirty = make([]bool, nl)

	m.activeLefts = r.I32s()
	for pos, l := range m.activeLefts {
		if l < 0 || int(l) >= nl || !m.active[l] {
			return fmt.Errorf("bipartite: checkpoint active list holds invalid left %d", l)
		}
		m.posActive[l] = int32(pos)
	}
	m.matchedCount = 0
	for rt := 0; rt < nr; rt++ {
		for _, l := range r.I32s() {
			if l < 0 || int(l) >= nl || !m.active[l] || m.assigned[l] != Unassigned {
				return fmt.Errorf("bipartite: checkpoint assignment list of right %d holds invalid left %d", rt, l)
			}
			m.link(int(l), rt)
		}
		if m.rights[rt].load > m.rights[rt].cap {
			return fmt.Errorf("bipartite: checkpoint right %d over capacity: %d > %d",
				rt, m.rights[rt].load, m.rights[rt].cap)
		}
	}
	m.dirty = r.I32s()
	for _, l := range m.dirty {
		if l < 0 || int(l) >= nl {
			return fmt.Errorf("bipartite: checkpoint dirty queue holds invalid left %d", l)
		}
		m.inDirty[l] = true
	}
	m.assignLog = r.I32s()
	m.touchLog = r.I32s()
	return r.Err()
}

// EncodeState serializes the coordinator and its sub-matchers. The l2g
// tables define each shard's local right-id space (registration order),
// so they are written exactly; g2l and the global load table are derived
// on decode. The capacity-dirty window is written in order — shards drain
// it at the start of their next parallel stage, and SetCapacity between
// rounds leaves it populated.
func (sh *Sharded) EncodeState(w *ckpt.Writer) {
	w.Int(len(sh.subs))
	w.Int(len(sh.gcap))
	w.I64s(sh.gcap)
	w.I32s(sh.leftShard)
	w.I32s(sh.capDirty)
	for s := range sh.subs {
		w.I32s(sh.l2g[s])
		sh.subs[s].EncodeState(w)
	}
}

// DecodeState restores state written by EncodeState into a freshly
// constructed coordinator with the same shard count and box population.
func (sh *Sharded) DecodeState(r *ckpt.Reader) error {
	S := r.Int()
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if S != len(sh.subs) {
		return fmt.Errorf("bipartite: checkpoint has %d shards, coordinator has %d", S, len(sh.subs))
	}
	if n != len(sh.gcap) {
		return fmt.Errorf("bipartite: checkpoint has %d boxes, coordinator has %d", n, len(sh.gcap))
	}
	gcap := r.I64s()
	if len(gcap) != n {
		return fmt.Errorf("bipartite: checkpoint capacity table has %d entries, want %d", len(gcap), n)
	}
	sh.gcap = gcap
	sh.leftShard = r.I32s()
	sh.capDirty = r.I32s()
	sh.capEpoch = 1
	sh.capStamp = make([]uint32, n)
	for _, g := range sh.capDirty {
		if g < 0 || int(g) >= n {
			return fmt.Errorf("bipartite: checkpoint dirty window holds invalid box %d", g)
		}
		sh.capStamp[g] = sh.capEpoch
	}
	sh.epoch = 0
	sh.rvisit = make([]uint32, n)
	sh.rparent = make([]int32, n)
	sh.lvisit = make([]uint32, len(sh.leftShard))
	for s := range sh.subs {
		l2g := r.I32s()
		g2l := make([]int32, n)
		for i := range g2l {
			g2l[i] = -1
		}
		for lr, g := range l2g {
			if g < 0 || int(g) >= n || g2l[g] >= 0 {
				return fmt.Errorf("bipartite: shard %d checkpoint maps invalid box %d", s, g)
			}
			g2l[g] = int32(lr)
		}
		sh.l2g[s] = l2g
		sh.g2l[s] = g2l
		if err := sh.subs[s].DecodeState(r); err != nil {
			return err
		}
		if sh.subs[s].NumRight() != len(l2g) {
			return fmt.Errorf("bipartite: shard %d has %d rights for %d registrations",
				s, sh.subs[s].NumRight(), len(l2g))
		}
	}
	sh.gload = make([]int64, n)
	for g := range sh.gload {
		sh.gload[g] = sh.sumLoads(g)
		if sh.gload[g] > sh.gcap[g] {
			return fmt.Errorf("bipartite: checkpoint box %d over capacity: %d > %d",
				g, sh.gload[g], sh.gcap[g])
		}
	}
	return r.Err()
}
