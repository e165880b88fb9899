package scenario

import (
	"fmt"
	"math"

	vod "repro"
	"repro/internal/stats"
	"repro/internal/swarm"
	"repro/internal/trace"
	"repro/internal/video"
)

// VodSpec resolves the spec's system section into a vod.Spec with the
// same defaults vod.New would apply (Storage 4, Duration 100, Growth 1.2,
// Replicas 4), applied here too so the corpus generator sees the
// effective values. Scenario runs are always Resilient: a workload that
// provokes an obstruction should count stalls and keep going, not halt
// the corpus mid-run.
func (s *Spec) VodSpec(seed uint64) vod.Spec {
	sys := s.System
	vs := vod.Spec{
		Boxes:     sys.Boxes,
		Upload:    sys.Upload,
		Storage:   sys.Storage,
		Stripes:   sys.Stripes,
		Replicas:  sys.Replicas,
		Duration:  sys.Duration,
		Growth:    sys.Growth,
		UStar:     sys.UStar,
		Resilient: true,
		Seed:      seed,
	}
	if vs.Storage == 0 {
		vs.Storage = 4
	}
	if vs.Duration == 0 {
		vs.Duration = 100
	}
	if vs.Growth == 0 {
		vs.Growth = 1.2
	}
	if vs.Replicas == 0 {
		vs.Replicas = 4
	}
	if len(sys.Tiers) > 0 {
		uploads := make([]float64, sys.Boxes)
		storages := make([]float64, sys.Boxes)
		// Cumulative rounding so tier sizes always sum to exactly Boxes.
		start, cum := 0, 0.0
		for i, t := range sys.Tiers {
			cum += t.Frac
			end := int(math.Round(cum * float64(sys.Boxes)))
			if i == len(sys.Tiers)-1 {
				end = sys.Boxes
			}
			for b := start; b < end; b++ {
				uploads[b] = t.Upload
				storages[b] = t.Storage
			}
			start = end
		}
		vs.Uploads = uploads
		vs.Storages = storages
	}
	return vs
}

// Expanded is a spec expanded into a concrete corpus.
type Expanded struct {
	Spec *Spec
	// Seed is the seed actually used (the caller's, or the spec default).
	Seed uint64
	// VodSpec is the resolved system configuration the corpus targets.
	VodSpec vod.Spec
	// Catalog is the catalog that configuration achieves.
	Catalog video.Catalog
	// Trace is the generated workload corpus.
	Trace *trace.Trace
	// Dropped counts arrivals the generator suppressed because its
	// admission model found no admissible (box, video) pair — demand the
	// system could not have absorbed anyway.
	Dropped int
}

// Expand generates the deterministic workload corpus for spec + seed.
// seed == 0 selects the spec's default seed. Generation never consults a
// running engine — only the spec and the catalog geometry — so the corpus
// is byte-identical across runs and hosts by construction.
func Expand(s *Spec, seed uint64) (*Expanded, error) {
	if seed == 0 {
		seed = s.Seed
	}
	vs := s.VodSpec(seed)
	sys, err := vod.New(vs)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	cat := sys.Catalog()
	g := newGen(s, vs, cat, seed)
	tr := g.run()
	tr.Meta = fmt.Sprintf("scenario=%s version=%d seed=%d boxes=%d videos=%d stripes=%d duration=%d growth=%v",
		s.Name, Version, seed, vs.Boxes, cat.M, cat.C, cat.T, vs.Growth)
	return &Expanded{Spec: s, Seed: seed, VodSpec: vs, Catalog: cat, Trace: tr, Dropped: g.dropped}, nil
}

// gen is the population model: who is idle, which region they sit in,
// and the swarm growth-bound state, kept by a swarm.Tracker of its own
// (membership lasts exactly T rounds from entry; allowance =
// ceil(max(prevSize,1)·µ) − size) so the generator emits demands the
// engine will admit. It is a model, not the engine: startup postponement
// can keep an engine box busy past T rounds, which BusySlack absorbs
// conservatively; any residual rejections are deterministic and show up
// pinned in the golden summaries.
type gen struct {
	spec *Spec
	vs   vod.Spec
	cat  video.Catalog
	rng  *stats.RNG

	total int // scenario length in rounds
	busy  int // rounds a box stays ineligible after a demand (T + slack)

	// Idle boxes per region, swap-removed on selection. Region of box b
	// is b·R/n (contiguous equal ranges).
	idle    [][]int
	returns [][]int // returns[r] = boxes becoming eligible again at round r

	swarms *swarm.Tracker // growth-bound model of the engine's swarms

	// Per-(window,exponent) Zipf samplers, reused across rounds.
	zipfs map[zipfKey]*stats.Zipf

	churnCursor int // rotating fresh-video cursor shared across phases
	dropped     int

	out []trace.Event
}

type zipfKey struct {
	n int
	s float64
}

func newGen(s *Spec, vs vod.Spec, cat video.Catalog, seed uint64) *gen {
	n := vs.Boxes
	g := &gen{
		spec: s,
		vs:   vs,
		cat:  cat,
		// Decorrelate the workload stream from the allocation stream,
		// which consumes NewRNG(seed) directly.
		rng:    stats.NewRNG(seed ^ 0xd1b54a32d192ed03),
		total:  s.TotalRounds(),
		busy:   cat.T + s.BusySlack,
		idle:   make([][]int, s.Regions),
		swarms: swarm.NewTracker(cat.M, cat.T, vs.Growth),
		zipfs:  map[zipfKey]*stats.Zipf{},
	}
	g.returns = make([][]int, g.total+2)
	for b := 0; b < n; b++ {
		r := b * s.Regions / n
		g.idle[r] = append(g.idle[r], b)
	}
	return g
}

func (g *gen) zipf(window int, exp float64) *stats.Zipf {
	k := zipfKey{window, exp}
	z := g.zipfs[k]
	if z == nil {
		z = stats.NewZipf(window, exp)
		g.zipfs[k] = z
	}
	return z
}

// emit records one demand and updates both models. Every caller stays
// within v's allowance, so the entry cannot fail.
func (g *gen) emit(round, box int, v video.ID) {
	g.out = append(g.out, trace.Event{Round: round, Box: box, Video: v})
	if _, err := g.swarms.Enter(v, g.cat.C); err != nil {
		panic(err)
	}
	back := round + g.busy
	if back >= len(g.returns) {
		back = len(g.returns) - 1
	}
	g.returns[back] = append(g.returns[back], box)
}

// takeIdle removes and returns the idle box at position i of region r.
func (g *gen) takeIdle(r, i int) int {
	pool := g.idle[r]
	b := pool[i]
	last := len(pool) - 1
	pool[i] = pool[last]
	g.idle[r] = pool[:last]
	return b
}

// pickIdle draws a uniform idle box across all regions except dark
// (-1 = none dark). Returns -1 when every eligible region is empty.
func (g *gen) pickIdle(dark int) int {
	total := 0
	for r, pool := range g.idle {
		if r != dark {
			total += len(pool)
		}
	}
	if total == 0 {
		return -1
	}
	i := g.rng.Intn(total)
	for r, pool := range g.idle {
		if r == dark {
			continue
		}
		if i < len(pool) {
			return g.takeIdle(r, i)
		}
		i -= len(pool)
	}
	panic("scenario: pickIdle index out of range")
}

// window returns the demandable catalog prefix size at phase round t.
func (g *gen) window(p *Phase, t int) int {
	if p.Catalog == nil {
		return g.cat.M
	}
	w := int(math.Floor(p.Catalog.Initial*float64(g.cat.M) + p.Catalog.Rate*float64(t)))
	if w < 1 {
		w = 1
	}
	if w > g.cat.M {
		w = g.cat.M
	}
	return w
}

// rankVideo maps popularity rank k to a video id at phase round t,
// applying drift rotation and the newest-first orientation.
func rankVideo(pop *Popularity, k, window, t int) video.ID {
	offset := 0
	if pop != nil && pop.Drift > 0 {
		offset = int(math.Floor(pop.Drift * float64(t)))
	}
	pos := (k + offset) % window
	if pop != nil && pop.Newest {
		return video.ID(window - 1 - pos)
	}
	return video.ID(pos)
}

// defaultPopularity is the phase popularity when none is declared.
var defaultPopularity = Popularity{Model: "zipf", S: 0.9}

// sampleVideo draws a video for phase p at phase round t, retrying a
// bounded number of times when the growth-bound mirror says the sampled
// swarm is full. Returns -1 when no admissible video was found.
func (g *gen) sampleVideo(p *Phase, t int) video.ID {
	pop := p.Popularity
	if pop == nil {
		pop = &defaultPopularity
	}
	w := g.window(p, t)
	const tries = 8
	for i := 0; i < tries; i++ {
		var rank int
		if pop.Model == "uniform" {
			rank = g.rng.Intn(w)
		} else {
			rank = g.zipf(w, pop.S).Sample(g.rng)
		}
		v := rankVideo(pop, rank, w, t)
		if g.swarms.Allowance(v) > 0 {
			return v
		}
	}
	return -1
}

// diurnalFactor modulates an arrival intensity by the phase's cycle.
func diurnalFactor(d *Diurnal, t int) float64 {
	if d == nil {
		return 1
	}
	return 1 + d.Amplitude*math.Sin(2*math.Pi*float64(t)/float64(d.Period))
}

// poisson draws a Poisson(lambda) count (Knuth's product method, split
// into chunks so the running product never underflows).
func (g *gen) poisson(lambda float64) int {
	total := 0
	for lambda > 500 {
		total += g.poisson(500)
		lambda -= 500
	}
	if lambda <= 0 {
		return total
	}
	limit := math.Exp(-lambda)
	p, k := 1.0, 0
	for p > limit {
		k++
		p *= g.rng.Float64()
	}
	return total + k - 1
}

// run executes the scenario, producing events in deterministic order:
// per round, churn wave → flash flood → outage reconnect surge →
// background arrivals.
func (g *gen) run() *trace.Trace {
	surgeLeft, flashLeft := 0, 0
	flashTarget := video.ID(0)
	lastPhase := -1
	for round := 1; round <= g.total; round++ {
		g.swarms.BeginRound(round)
		for _, b := range g.returns[round] {
			r := b * g.spec.Regions / g.vs.Boxes
			g.idle[r] = append(g.idle[r], b)
		}
		g.returns[round] = nil

		p, t := g.spec.PhaseAt(round)
		if p == nil {
			break
		}
		if pi := g.phaseIndex(p); pi != lastPhase {
			lastPhase = pi
			if p.Outage != nil {
				surgeLeft = p.Outage.Surge
			}
			if p.Arrival != nil && p.Arrival.Process == "flash" {
				flashLeft = p.Arrival.Size // 0 = unbounded
				// Lock the flood onto the video that is hottest as the
				// crowd forms; popularity keeps drifting underneath it.
				flashTarget = rankVideo(p.Popularity, 0, g.window(p, t), t)
			}
		}

		dark := -1
		if p.Outage != nil && t < p.Outage.Down {
			dark = p.Outage.Region
		}

		if p.Churn != nil && t%p.Churn.Period == 0 {
			g.churnWave(round, p.Churn.Wave, dark)
		}
		if p.Arrival != nil && p.Arrival.Process == "flash" {
			flashLeft = g.flashFlood(round, p, t, dark, flashLeft, flashTarget)
		}
		if p.Outage != nil && t >= p.Outage.Down && surgeLeft > 0 {
			surgeLeft = g.reconnectSurge(round, p, t, surgeLeft)
		}
		g.background(round, p, t, dark)
	}
	return &trace.Trace{Events: g.out}
}

func (g *gen) phaseIndex(p *Phase) int {
	for i := range g.spec.Phases {
		if &g.spec.Phases[i] == p {
			return i
		}
	}
	return -1
}

// churnWave emits Wave demands aimed at fresh videos: a rotating cursor
// walks the catalog from the cold end, filling each video up to its
// growth allowance before advancing — maximal playback-cache window
// turnover and (engine-side) fresh right-space registration.
func (g *gen) churnWave(round, wave, dark int) {
	skips := 0
	for emitted := 0; emitted < wave; {
		v := video.ID(g.cat.M - 1 - (g.churnCursor % g.cat.M))
		if g.swarms.Allowance(v) == 0 {
			g.churnCursor++
			skips++
			if skips >= g.cat.M {
				// Full lap without room anywhere: the bound is global.
				g.dropped += wave - emitted
				return
			}
			continue
		}
		skips = 0
		b := g.pickIdle(dark)
		if b < 0 {
			g.dropped += wave - emitted
			return
		}
		g.emit(round, b, v)
		emitted++
	}
	g.churnCursor++
}

// flashFlood floods the flash target at the maximal admissible rate, so
// the crowd snowballs geometrically under the growth bound (size 2, 3,
// 4, 5, 7, … for µ=1.2). Returns the remaining flood budget.
func (g *gen) flashFlood(round int, p *Phase, t, dark, left int, target video.ID) int {
	if p.Arrival.Size > 0 && left <= 0 {
		return left
	}
	n := g.swarms.Allowance(target)
	if p.Arrival.Size > 0 && n > left {
		n = left
	}
	for i := 0; i < n; i++ {
		b := g.pickIdle(dark)
		if b < 0 {
			break
		}
		g.emit(round, b, target)
		if p.Arrival.Size > 0 {
			left--
		}
	}
	return left
}

// reconnectSurge drains the outage region's backlog as fast as the
// growth bound admits. Returns the remaining surge budget.
func (g *gen) reconnectSurge(round int, p *Phase, t, left int) int {
	region := p.Outage.Region
	misses := 0
	for left > 0 && len(g.idle[region]) > 0 && misses < 8 {
		v := g.sampleVideo(p, t)
		if v < 0 {
			misses++
			continue
		}
		b := g.takeIdle(region, g.rng.Intn(len(g.idle[region])))
		g.emit(round, b, v)
		left--
	}
	return left
}

// background runs the phase's base arrival process.
func (g *gen) background(round int, p *Phase, t, dark int) {
	a := p.Arrival
	if a == nil {
		return
	}
	switch a.Process {
	case "poisson":
		count := g.poisson(a.Rate * diurnalFactor(a.Diurnal, t))
		for i := 0; i < count; i++ {
			v := g.sampleVideo(p, t)
			if v < 0 {
				g.dropped++
				continue
			}
			b := g.pickIdle(dark)
			if b < 0 {
				g.dropped += count - i
				return
			}
			g.emit(round, b, v)
		}
	case "bernoulli":
		prob := a.P * diurnalFactor(a.Diurnal, t)
		if prob > 1 {
			prob = 1
		}
		// One binomial draw over the eligible idle population, then
		// uniform box picks: identical in distribution to per-box coins,
		// without iterating pools mid-mutation.
		eligible := 0
		for r, pool := range g.idle {
			if r != dark {
				eligible += len(pool)
			}
		}
		count := 0
		for i := 0; i < eligible; i++ {
			if g.rng.Float64() < prob {
				count++
			}
		}
		for i := 0; i < count; i++ {
			v := g.sampleVideo(p, t)
			if v < 0 {
				g.dropped++
				continue
			}
			b := g.pickIdle(dark)
			if b < 0 {
				g.dropped += count - i
				return
			}
			g.emit(round, b, v)
		}
	}
}
