package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/video"
)

// FuzzStripeWalk drives an indexed and a naive store through one stream of
// rounds decoded from the input, in the engine's order: expire the window,
// issue requests (each adds an entry, and maybe a lag-1 mirror, at the
// round the clock reads), tick the clock with some requests stalled, and
// retire the requests that reach T or are picked to go early. At every
// round's matching point it checks that each stripe walk, for every need
// and exclude, yields the naive walk reversed, and that every link of the
// indexed store is in place (linkError). The seed corpus in testdata/fuzz/FuzzStripeWalk replays under plain go test.
func FuzzStripeWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { stripeWalk(t, data) })
}

// fuzzBits reads an input as a stream of little bit fields.
type fuzzBits struct {
	data []byte
	pos  int // bit position
}

func (b *fuzzBits) done() bool { return b.pos >= 8*len(b.data) }

// take returns the next n bits, zero-padded past the end of the input.
func (b *fuzzBits) take(n int) int {
	v := 0
	for i := 0; i < n; i++ {
		if !b.done() && b.data[b.pos/8]>>(b.pos%8)&1 == 1 {
			v |= 1 << i
		}
		b.pos++
	}
	return v
}

func stripeWalk(t *testing.T, data []byte) {
	const numStripes, numBoxes, T, maxRounds = 3, 5, 6, 300
	idx := newIndexedAvailability(numStripes, numBoxes, T)
	naive := newNaiveAvailability(numStripes, T)
	stores := []availabilityStore{idx, naive}
	in := &fuzzBits{data: data}
	pv := progressView{clock: 1}
	var reqs []diffReq

	for round := 1; round <= maxRounds && !in.done(); round++ {
		for _, s := range stores {
			s.expire(round)
		}
		for adds := in.take(2); adds > 0; adds-- {
			st := video.StripeID(in.take(2) % numStripes)
			slot := int32(len(pv.base))
			pv.base = append(pv.base, pv.clock)
			box := int32(in.take(3) % numBoxes)
			reqs = append(reqs, diffReq{slot: slot, stripe: st, live: true})
			for _, s := range stores {
				s.add(st, liveEntry(box, int32(round), slot, 0))
			}
			if in.take(1) == 1 {
				mirror := int32(in.take(3) % numBoxes)
				for _, s := range stores {
					s.add(st, liveEntry(mirror, int32(round), slot, 1))
				}
			}
		}

		if err := linkError(idx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for st := video.StripeID(0); st < numStripes; st++ {
			for need := int32(-1); need <= T+1; need++ {
				for exclude := int32(-1); exclude < numBoxes; exclude++ {
					want := walkBoxes(naive, st, exclude, need, pv)
					slices.Reverse(want)
					if got := walkBoxes(idx, st, exclude, need, pv); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d stripe %d walk(exclude=%d, need=%d): indexed %v, naive reversed %v",
							round, st, exclude, need, got, want)
					}
				}
			}
		}

		pv.clock++
		for i := range reqs {
			if r := &reqs[i]; r.live && in.take(1) == 1 {
				pv.base[r.slot]++ // stalled: no chunk this round
			}
		}
		for i := range reqs {
			r := &reqs[i]
			if r.live && (pv.of(r.slot) >= T || in.take(3) == 0) {
				for _, s := range stores {
					s.retire(r.stripe, r.slot, pv.of(r.slot))
				}
				r.live = false
			}
		}
	}
}

// walkBoxes runs the adjacency cursor's walk of stripe st to exhaustion.
func walkBoxes(s availabilityStore, st video.StripeID, exclude, need int32, pv progressView) []int32 {
	entries := 0
	for s2 := range s.all() {
		if s2 == st {
			entries++
		}
	}
	var out []int32
	for h := s.visitHead(st); ; {
		box, next := s.visitStep(st, h, exclude, need, pv)
		if box < 0 {
			return out
		}
		if len(out) > entries {
			panic(fmt.Sprintf("stripe %d walk yields more boxes than its %d entries", st, entries))
		}
		out = append(out, box)
		h = next
	}
}

// linkError returns an error naming the first link of ix that is out of
// place, nil when there is none: a stripe-list entry issued after its
// predecessor or whose run link is not the first later entry issued at a
// strictly earlier round; a box chain that does not hold exactly the
// box's entries; a live entry its request's link does not name, or a
// link with no entry behind it.
func linkError(ix *indexedAvailability) error {
	perBox := make([]int, len(ix.byBox))
	backed := 0
	for st, head := range ix.byStripe {
		for id := head; id >= 0; id = ix.slab[id].next {
			e := &ix.slab[id]
			if e.next >= 0 && ix.slab[e.next].issued > e.issued {
				return fmt.Errorf("stripe %d: entry %d issued at round %d precedes entry %d issued at %d",
					st, id, e.issued, e.next, ix.slab[e.next].issued)
			}
			want := e.next
			for want >= 0 && ix.slab[want].issued == e.issued {
				want = ix.slab[want].next
			}
			if e.jump != want {
				return fmt.Errorf("stripe %d: entry %d issued at round %d jumps to %d, want %d", st, id, e.issued, e.jump, want)
			}
			perBox[e.box]++
			if e.tag >= 0 {
				backed++
				if int(e.tag) >= len(ix.bySlot) || ix.bySlot[e.tag] != id {
					return fmt.Errorf("stripe %d: entry %d of slot %d, lag %d, is not its request's link", st, id, e.req(), e.lag())
				}
			}
		}
	}
	links := 0
	for _, id := range ix.bySlot {
		if id >= 0 {
			links++
		}
	}
	if links != backed {
		return fmt.Errorf("%d request links name %d live entries", links, backed)
	}
	for b, newest := range ix.byBox {
		n := 0
		for id := newest; newest >= 0; {
			id = ix.slab[id].nextBox
			if n++; ix.slab[id].box != int32(b) || n > perBox[b] {
				return fmt.Errorf("box %d: chain reaches entry %d of box %d after %d of its %d entries", b, id, ix.slab[id].box, n-1, perBox[b])
			}
			if id == newest {
				break
			}
		}
		if n != perBox[b] {
			return fmt.Errorf("box %d: chain holds %d of its %d entries", b, n, perBox[b])
		}
	}
	return nil
}

// checkLinks fails t when the system's store has a link out of place.
func checkLinks(t *testing.T, s *System) {
	t.Helper()
	if err := linkError(s.avail.(*indexedAvailability)); err != nil {
		t.Fatalf("round %d: %v", s.Round(), err)
	}
}
