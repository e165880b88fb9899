// Package adversary implements the demand generators used to attack and
// exercise the video system. Theorem 1 is universally quantified over
// demand sequences, which simulation cannot exhaust; instead this package
// provides the known worst-case families — the ones the paper's own lower
// bound arguments use — plus realistic background workloads:
//
//   - FlashCrowd: everyone piles onto one video at the maximal admissible
//     growth rate µ (the Lemma 2 stress case).
//   - AvoidPossession: every box demands a video it stores no data of
//     (the Section 1.3 impossibility argument for u < 1).
//   - DistinctVideos: maximally many simultaneous distinct videos (pure
//     sourcing load, the regime of the authors' earlier IPTPS paper).
//   - WeakestVideos: targets the videos whose allocation servers have the
//     least aggregate upload (a min-cut-seeking heuristic).
//   - Zipf / Poisson: realistic reference workloads.
//   - Churn: staggered waves that maximize cache-window turnover.
//   - Retry: wrapper adding admission-queue retry semantics with Born
//     bookkeeping for start-up delay measurements.
package adversary

import (
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/video"
)

// batchAllowance tracks how many swarm slots of each video a single
// demand batch has already claimed, so generators never emit more demands
// for a video than the growth bound admits in one round.
type batchAllowance struct {
	v    *core.View
	used map[video.ID]int
}

func newBatchAllowance(v *core.View) *batchAllowance {
	return &batchAllowance{v: v, used: make(map[video.ID]int)}
}

// reset empties ba for a new batch against v, keeping its map.
func (ba *batchAllowance) reset(v *core.View) {
	ba.v = v
	if ba.used == nil {
		ba.used = make(map[video.ID]int)
	}
	clear(ba.used)
}

// take claims one slot of vid's allowance; false when exhausted.
func (ba *batchAllowance) take(vid video.ID) bool {
	if ba.v.SwarmAllowance(vid)-ba.used[vid] <= 0 {
		return false
	}
	ba.used[vid]++
	return true
}

// FlashCrowd floods Target at the maximal admissible growth rate. When
// Rotate is true it moves to the next video once the crowd has fully
// drained (the swarm grew and then emptied).
type FlashCrowd struct {
	Target video.ID
	Rotate bool

	grew bool
	idle []int // per-round scratch, reused across Next calls
}

// Next implements core.Generator.
func (g *FlashCrowd) Next(v *core.View, _ int) []core.Demand {
	if g.Rotate && g.grew && v.SwarmSize(g.Target) == 0 {
		g.Target = video.ID((int(g.Target) + 1) % v.Catalog().M)
		g.grew = false
	}
	var out []core.Demand
	ba := newBatchAllowance(v)
	g.idle = v.IdleBoxes(g.idle[:0])
	for _, b := range g.idle {
		if !ba.take(g.Target) {
			break
		}
		out = append(out, core.Demand{Box: b, Video: g.Target})
	}
	if len(out) > 0 || v.SwarmSize(g.Target) > 0 {
		g.grew = true
	}
	return out
}

// AvoidPossession is the u < 1 impossibility adversary: each idle box
// demands some video it stores no stripe of, guaranteeing the box
// contributes full download load while its own storage is useless for its
// demand.
type AvoidPossession struct {
	idle []int // per-round scratch, reused across Next calls
}

// Next implements core.Generator.
func (g *AvoidPossession) Next(v *core.View, _ int) []core.Demand {
	var out []core.Demand
	cat := v.Catalog()
	ba := newBatchAllowance(v)
	g.idle = v.IdleBoxes(g.idle[:0])
	for _, b := range g.idle {
		for m := 0; m < cat.M; m++ {
			vid := video.ID(m)
			if v.SwarmAllowance(vid)-ba.used[vid] <= 0 {
				continue
			}
			stored := false
			for i := 0; i < cat.C; i++ {
				if v.Stores(b, cat.Stripe(vid, i)) {
					stored = true
					break
				}
			}
			if !stored {
				ba.used[vid]++
				out = append(out, core.Demand{Box: b, Video: vid})
				break
			}
		}
	}
	return out
}

// DistinctVideos keeps as many pairwise distinct videos playing as
// possible: box b watches video b mod m, re-demanding as soon as it goes
// idle. This maximizes sourcing load: no two viewers share a swarm, so
// playback caches are useless to others.
type DistinctVideos struct {
	idle []int // per-round scratch, reused across Next calls
}

// Next implements core.Generator.
func (g *DistinctVideos) Next(v *core.View, _ int) []core.Demand {
	var out []core.Demand
	m := v.Catalog().M
	ba := newBatchAllowance(v)
	g.idle = v.IdleBoxes(g.idle[:0])
	for _, b := range g.idle {
		vid := video.ID(b % m)
		if ba.take(vid) {
			out = append(out, core.Demand{Box: b, Video: vid})
		}
	}
	return out
}

// WeakestVideos ranks videos by the aggregate upload slots of their
// allocation servers and floods the weakest ones first — a practical
// search for Hall violators in the allocation.
type WeakestVideos struct {
	ranked []video.ID
	idle   []int // per-round scratch, reused across Next calls
}

// Next implements core.Generator.
func (g *WeakestVideos) Next(v *core.View, _ int) []core.Demand {
	if g.ranked == nil {
		g.rank(v)
	}
	var out []core.Demand
	g.idle = v.IdleBoxes(g.idle[:0])
	idle := g.idle
	i := 0
	for _, vid := range g.ranked {
		allow := v.SwarmAllowance(vid)
		for allow > 0 && i < len(idle) {
			out = append(out, core.Demand{Box: idle[i], Video: vid})
			i++
			allow--
		}
		if i >= len(idle) {
			break
		}
	}
	return out
}

func (g *WeakestVideos) rank(v *core.View) {
	cat := v.Catalog()
	type weak struct {
		vid   video.ID
		slots int64
	}
	ws := make([]weak, cat.M)
	for m := 0; m < cat.M; m++ {
		seen := make(map[int32]struct{})
		var slots int64
		for i := 0; i < cat.C; i++ {
			for _, b := range v.StripeHolders(cat.Stripe(video.ID(m), i)) {
				if _, ok := seen[b]; !ok {
					seen[b] = struct{}{}
					slots += v.UploadSlots(int(b))
				}
			}
		}
		ws[m] = weak{video.ID(m), slots}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].slots < ws[j].slots })
	g.ranked = make([]video.ID, cat.M)
	for i, w := range ws {
		g.ranked[i] = w.vid
	}
}

// Zipf is the realistic reference workload: idle boxes demand with
// probability P per round, choosing videos Zipf(S)-distributed.
type Zipf struct {
	RNG *stats.RNG
	P   float64
	S   float64

	dist *stats.Zipf
	// Per-round scratch, reused across Next calls. The returned batch is
	// out itself: valid until the next call, which is as long as the
	// engine (and every wrapper in this repository) holds on to it.
	idle []int
	out  []core.Demand
	ba   batchAllowance
}

// Next implements core.Generator.
func (g *Zipf) Next(v *core.View, _ int) []core.Demand {
	if g.dist == nil {
		g.dist = stats.NewZipf(v.Catalog().M, g.S)
	}
	out := g.out[:0]
	ba := &g.ba
	ba.reset(v)
	g.idle = v.IdleBoxes(g.idle[:0])
	for _, b := range g.idle {
		if !g.RNG.Bool(g.P) {
			continue
		}
		vid := video.ID(g.dist.Sample(g.RNG))
		if ba.take(vid) {
			out = append(out, core.Demand{Box: b, Video: vid})
		}
	}
	g.out = out
	return out
}

// Poisson draws a Poisson(Lambda) number of demands per round and assigns
// them to uniformly random idle boxes and videos.
type Poisson struct {
	RNG    *stats.RNG
	Lambda float64

	idle []int // per-round scratch, reused across Next calls
}

// Next implements core.Generator.
func (g *Poisson) Next(v *core.View, _ int) []core.Demand {
	count := g.RNG.Poisson(g.Lambda)
	if count == 0 {
		return nil
	}
	g.idle = v.IdleBoxes(g.idle[:0])
	idle := g.idle
	if len(idle) == 0 {
		return nil
	}
	g.RNG.ShuffleInts(idle)
	if count > len(idle) {
		count = len(idle)
	}
	m := v.Catalog().M
	out := make([]core.Demand, 0, count)
	ba := newBatchAllowance(v)
	for i := 0; i < count; i++ {
		vid := video.ID(g.RNG.Intn(m))
		if ba.take(vid) {
			out = append(out, core.Demand{Box: idle[i], Video: vid})
		}
	}
	return out
}

// Churn drives staggered waves: every Period rounds, a wave of WaveSize
// idle boxes demands a fresh video, maximizing turnover of the playback
// cache window (old swarms keep expiring as new ones start).
type Churn struct {
	Period   int
	WaveSize int

	next video.ID
	idle []int // per-round scratch, reused across Next calls
}

// Next implements core.Generator.
func (g *Churn) Next(v *core.View, round int) []core.Demand {
	if g.Period <= 0 || round%g.Period != 0 {
		return nil
	}
	var out []core.Demand
	g.idle = v.IdleBoxes(g.idle[:0])
	idle := g.idle
	m := v.Catalog().M
	ba := newBatchAllowance(v)
	for _, b := range idle {
		if len(out) >= g.WaveSize {
			break
		}
		tried := 0
		for tried < m && !ba.take(g.next) {
			g.next = video.ID((int(g.next) + 1) % m)
			tried++
		}
		if tried == m {
			break
		}
		out = append(out, core.Demand{Box: b, Video: g.next})
	}
	g.next = video.ID((int(g.next) + 1) % m)
	return out
}

// PoorFirst demands videos round-robin, serving boxes below the UStar
// upload threshold before rich ones — the hard case for the Section 4
// relay construction, where deficient boxes concentrate demand.
type PoorFirst struct {
	UStar float64

	next video.ID
	idle []int // per-round scratch, reused across Next calls
}

// Next implements core.Generator.
func (g *PoorFirst) Next(v *core.View, _ int) []core.Demand {
	var out []core.Demand
	m := v.Catalog().M
	ba := newBatchAllowance(v)
	emit := func(b int) {
		for tries := 0; tries < m; tries++ {
			if ba.take(g.next) {
				out = append(out, core.Demand{Box: b, Video: g.next})
				g.next = video.ID((int(g.next) + 1) % m)
				return
			}
			g.next = video.ID((int(g.next) + 1) % m)
		}
	}
	g.idle = v.IdleBoxes(g.idle[:0])
	idle := g.idle
	for _, b := range idle {
		if v.Upload(b) < g.UStar {
			emit(b)
		}
	}
	for _, b := range idle {
		if v.Upload(b) >= g.UStar {
			emit(b)
		}
	}
	return out
}

// Retry wraps a generator with admission-queue semantics: demands the
// system did not admit (box still idle on the next round) are re-submitted
// with their original Born round, so start-up delay measurements include
// queueing time (experiment E7).
type Retry struct {
	Inner core.Generator

	pending []core.Demand
}

// Next implements core.Generator.
func (g *Retry) Next(v *core.View, round int) []core.Demand {
	var out []core.Demand
	// Re-submit pending demands whose box is still idle (anything else
	// was either admitted or is busy with another viewing).
	var still []core.Demand
	for _, d := range g.pending {
		if v.BoxIdle(d.Box) {
			if v.SwarmAllowance(d.Video) > 0 {
				out = append(out, d)
			} else {
				still = append(still, d)
			}
		}
	}
	for _, d := range g.Inner.Next(v, round) {
		if d.Born <= 0 {
			d.Born = round
		}
		out = append(out, d)
	}
	g.pending = append(still, out...)
	return out
}
