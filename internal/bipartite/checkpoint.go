package bipartite

// Checkpoint serialization. The matching state restored here must make a
// resumed run bit-identical to the uncheckpointed one, which dictates what
// is written exactly, what is derived, and what is reset:
//
//   - Order-bearing state is written verbatim: per-right assignment lists
//     (eviction is tail-first), the active-left list (sweep order), the
//     dirty queue (augmentation order), capacities (SetCapacity changes
//     them mid-run), and the pending assignment log.
//   - Redundant state is re-derived: the liveness flags (a left is active
//     exactly when the list holds it), loads, back-pointer arrays, and the
//     matched count — decoding revalidates the invariants instead of
//     trusting two copies to agree.
//   - Pure caches reset: epoch stamps restart at zero (stamps only ever
//     compare for equality against the current epoch) and stableTo drops
//     to empty (revalidateOne re-derives it with identical outcomes).

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
)

// EncodeState serializes the matcher's matching state. Construction-time
// settings (the assignment-log switch) are not written: restore targets
// a matcher freshly built from the same configuration.
func (m *Matcher) EncodeState(w *ckpt.Writer) {
	w.Int(len(m.rights))
	for i := range m.rights {
		w.I64(int64(m.rights[i].cap))
	}
	w.I32s(m.activeLefts)
	for r := range m.rights {
		w.I32s(m.AssignedLefts(r))
	}
	w.I32s(m.dirty)
	w.I32s(m.assignLog)
}

// DecodeState restores state written by EncodeState into a matcher freshly
// constructed over the same right space, rebuilding every derived
// structure (liveness, loads, back-pointers, matched count) and resetting
// search scratch. The left ids are 0..lefts−1, a count the caller has
// already read the backing of (core's slot arrays); the right count is the
// matcher's, not the stream's. Nothing is sized from a number the
// checkpoint supplies before the bytes backing it have been read.
func (m *Matcher) DecodeState(r *ckpt.Reader, lefts int) error {
	nr := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nr != len(m.rights) {
		return fmt.Errorf("bipartite: checkpoint has %d rights, matcher has %d", nr, len(m.rights))
	}
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
	nl := lefts
	m.active = make([]bool, nl)
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
		if l < 0 || int(l) >= nl || m.active[l] {
			return fmt.Errorf("bipartite: checkpoint active list holds invalid left %d", l)
		}
		m.active[l] = true
		m.posActive[l] = int32(pos)
	}
	m.matchedCount = 0
	var list []int32 // one buffer for every right's list
	for rt := 0; rt < nr; rt++ {
		list = r.AppendI32s(list[:0])
		for _, l := range list {
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
	return r.Err()
}
