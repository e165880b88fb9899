// Package scenario implements the declarative workload subsystem: a
// versioned spec format that composes named phases — arrival processes
// (Poisson, Bernoulli, flash crowds, diurnal modulation), churn storms,
// regional outages with reconnection surges, catalog growth, and Zipf
// popularity with drift — into reproducible scenarios, plus a corpus
// generator that expands a spec and a seed into a deterministic workload
// file in internal/trace's format. Generated corpora flow through the
// existing -record/-replay machinery and stream to vodserve over POST
// /demand; vodsim -scenario runs a spec end to end, and the committed
// reference scenarios under examples/scenarios/ pin golden summaries in
// tests and CI.
//
// The workload shapes follow the related literature: Zipf popularity with
// drift and flash crowds from Tan & Massoulié's content-placement
// analysis, and on-demand arrival patterns from the BitTorrent VoD
// peer-selection line of work (see PAPERS.md).
package scenario

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// Version is the spec format version this package reads and writes.
// Parsing rejects any other value: format evolution is explicit, never
// silent.
const Version = 1

// Spec is one validated scenario: a system section plus an ordered list
// of workload phases. Field comments double as the schema reference (the
// README "Scenarios" section renders the same information).
type Spec struct {
	// Name identifies the scenario (required; [a-z0-9-]).
	Name string
	// Description is free-form documentation, carried into summaries.
	Description string
	// Seed is the default seed when the caller does not override one.
	Seed uint64
	// Regions partitions boxes into this many contiguous equal-size
	// regions for correlated-outage phases (default 1).
	Regions int
	// BusySlack is how many rounds beyond the video duration T the corpus
	// generator's population model keeps a box marked busy after it emits
	// a demand for it (default 4). The engine is the ground truth for
	// admission; the slack makes the model conservative so generated
	// demands land on genuinely idle boxes even when startup postponement
	// stretches a viewing past T rounds.
	BusySlack int
	// System configures the simulated system the scenario targets.
	System System
	// Phases run in order; the scenario's total length is the sum of
	// phase rounds.
	Phases []Phase
}

// System is the spec's system section, translated to a vod.Spec by
// VodSpec. Zero values defer to the vod defaults.
type System struct {
	Boxes    int
	Upload   float64
	Storage  float64
	Stripes  int
	Replicas int
	Duration int
	Growth   float64
	// UStar activates the heterogeneous relay construction (Section 4).
	UStar float64
	// Tiers is an optional capacity heterogeneity profile: contiguous
	// box-id ranges with per-tier upload and storage. Fractions must sum
	// to 1; boxes are assigned to tiers in id order, remainder to the
	// last tier.
	Tiers []Tier
}

// Tier is one capacity class of a heterogeneity profile.
type Tier struct {
	Frac    float64
	Upload  float64
	Storage float64
}

// Phase is one named workload segment.
type Phase struct {
	Name   string
	Rounds int
	// Arrival is the phase's background arrival process (nil = none).
	Arrival *Arrival
	// Popularity maps arrivals to videos (nil = zipf s=0.9, no drift).
	Popularity *Popularity
	// Churn layers staggered fresh-video waves on top of arrivals.
	Churn *Churn
	// Outage takes one region dark and surges it back online.
	Outage *Outage
	// Catalog restricts the demandable video window, growing over the
	// phase (nil = the full catalog).
	Catalog *Catalog
}

// Arrival configures a phase's arrival process.
type Arrival struct {
	// Process is one of "poisson" (Rate demands/round), "bernoulli"
	// (each idle box demands with probability P per round), "flash"
	// (flood the current hottest video at the maximal admissible growth
	// rate, up to Size demands for the phase; 0 = unbounded), or "none".
	Process string
	Rate    float64
	P       float64
	Size    int
	// Diurnal modulates Rate/P by 1 + Amplitude·sin(2π·t/Period).
	Diurnal *Diurnal
}

// Diurnal is a sinusoidal arrival modulation (a day/night cycle).
type Diurnal struct {
	Period    int
	Amplitude float64
}

// Popularity configures video selection.
type Popularity struct {
	// Model is "zipf" (exponent S) or "uniform".
	Model string
	S     float64
	// Drift rotates the popularity ranking: the rank→video mapping
	// advances by Drift positions per round, so the hot set wanders
	// through the catalog (Zipf drift à la Tan & Massoulié).
	Drift float64
	// Newest anchors rank 0 at the newest video of the current catalog
	// window instead of video 0 (new releases are the hottest).
	Newest bool
}

// Churn configures staggered fresh-video waves: every Period rounds of
// the phase, Wave demands target a video the rotation has not used
// recently, maximizing playback-cache window turnover.
type Churn struct {
	Period int
	Wave   int
}

// Outage takes region Region (of the spec's Regions) offline for the
// first Down rounds of the phase — it emits no demands — then surges
// Surge reconnection demands from the region as fast as admission
// control admits.
type Outage struct {
	Region int
	Down   int
	Surge  int
}

// Catalog restricts demand to a growing prefix window of the catalog:
// at phase round t the window holds max(1, floor(Initial·M + Rate·t))
// videos, capped at M.
type Catalog struct {
	Initial float64
	Rate    float64
}

// TotalRounds returns the scenario length (sum of phase rounds).
func (s *Spec) TotalRounds() int {
	total := 0
	for _, p := range s.Phases {
		total += p.Rounds
	}
	return total
}

// PhaseAt returns the phase covering 1-based scenario round r and the
// phase-local 0-based round offset.
func (s *Spec) PhaseAt(r int) (*Phase, int) {
	t := r - 1
	for i := range s.Phases {
		if t < s.Phases[i].Rounds {
			return &s.Phases[i], t
		}
		t -= s.Phases[i].Rounds
	}
	return nil, 0
}

// ParseFile reads and validates a scenario spec from a YAML or JSON file.
func ParseFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data, path)
}

// Parse decodes and validates a scenario spec. filename is used in error
// messages only. Errors carry file:line and the field path; all field
// errors are reported, not just the first.
func Parse(data []byte, filename string) (*Spec, error) {
	root, err := parseTree(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %v", filename, err)
	}
	d := &decoder{file: filename}
	spec := d.spec(root)
	if len(d.errs) > 0 {
		const cap = 20
		errs := d.errs
		suffix := ""
		if len(errs) > cap {
			suffix = fmt.Sprintf("\n  … and %d more", len(errs)-cap)
			errs = errs[:cap]
		}
		return nil, fmt.Errorf("scenario: invalid spec:\n  %s%s", strings.Join(errs, "\n  "), suffix)
	}
	return spec, nil
}

// --- decoding ---

type decoder struct {
	file string
	errs []string
}

func (d *decoder) errf(line int, path, format string, args ...any) {
	d.errs = append(d.errs, fmt.Sprintf("%s:%d: %s: %s", d.file, line, path, fmt.Sprintf(format, args...)))
}

// mapReader walks one mapping's fields, tracking which keys were
// consumed so unknown fields can be rejected with their own lines.
type mapReader struct {
	d    *decoder
	n    *node
	path string
	seen map[string]bool
}

func (d *decoder) mapAt(n *node, path string) *mapReader {
	if n.kind != mapNode {
		d.errf(n.line, path, "expected a mapping, got a %s", n.kind)
		return &mapReader{d: d, path: path, seen: map[string]bool{}}
	}
	return &mapReader{d: d, n: n, path: path, seen: map[string]bool{}}
}

func (m *mapReader) child(key string) *node {
	if m.n == nil {
		return nil
	}
	m.seen[key] = true
	return m.n.fields[key]
}

func (m *mapReader) has(key string) bool {
	if m.n == nil {
		return false
	}
	_, ok := m.n.fields[key]
	return ok
}

// finish rejects unknown keys, naming the nearest valid ones.
func (m *mapReader) finish(known ...string) {
	if m.n == nil {
		return
	}
	for _, k := range m.n.keys {
		if !m.seen[k] {
			m.d.errf(m.n.fields[k].line, m.path+"."+k,
				"unknown field (valid fields: %s)", strings.Join(known, ", "))
		}
	}
}

func (m *mapReader) scalar(key string) (*node, bool) {
	c := m.child(key)
	if c == nil {
		return nil, false
	}
	if c.kind != scalarNode {
		m.d.errf(c.line, m.path+"."+key, "expected a scalar, got a %s", c.kind)
		return nil, false
	}
	return c, true
}

func (m *mapReader) str(key, def string) string {
	c, ok := m.scalar(key)
	if !ok {
		return def
	}
	return c.scalar
}

func (m *mapReader) integer(key string, def int) int {
	c, ok := m.scalar(key)
	if !ok {
		return def
	}
	v, err := strconv.Atoi(c.scalar)
	if err != nil {
		m.d.errf(c.line, m.path+"."+key, "expected an integer, got %q", c.scalar)
		return def
	}
	return v
}

func (m *mapReader) uinteger(key string, def uint64) uint64 {
	c, ok := m.scalar(key)
	if !ok {
		return def
	}
	v, err := strconv.ParseUint(c.scalar, 10, 64)
	if err != nil {
		m.d.errf(c.line, m.path+"."+key, "expected a non-negative integer, got %q", c.scalar)
		return def
	}
	return v
}

func (m *mapReader) float(key string, def float64) float64 {
	c, ok := m.scalar(key)
	if !ok {
		return def
	}
	v, err := strconv.ParseFloat(c.scalar, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		m.d.errf(c.line, m.path+"."+key, "expected a finite number, got %q", c.scalar)
		return def
	}
	return v
}

func (m *mapReader) boolean(key string, def bool) bool {
	c, ok := m.scalar(key)
	if !ok {
		return def
	}
	switch c.scalar {
	case "true":
		return true
	case "false":
		return false
	}
	m.d.errf(c.line, m.path+"."+key, "expected true or false, got %q", c.scalar)
	return def
}

// line returns the best line to blame for a field-level error.
func (m *mapReader) line(key string) int {
	if c := m.child(key); c != nil {
		return c.line
	}
	if m.n != nil {
		return m.n.line
	}
	return 1
}

func (d *decoder) spec(root *node) *Spec {
	m := d.mapAt(root, "spec")
	s := &Spec{}

	if !m.has("scenario") {
		d.errf(m.line("scenario"), "spec.scenario",
			"missing format version (this parser reads \"scenario: %d\")", Version)
	} else if v := m.integer("scenario", 0); v != Version {
		d.errf(m.line("scenario"), "spec.scenario",
			"unsupported format version %d (this parser reads version %d)", v, Version)
	}

	s.Name = m.str("name", "")
	if s.Name == "" {
		d.errf(m.line("name"), "spec.name", "required")
	} else if !validName(s.Name) {
		d.errf(m.line("name"), "spec.name", "%q must match [a-z0-9-]+", s.Name)
	}
	s.Description = m.str("description", "")
	s.Seed = m.uinteger("seed", 1)
	s.Regions = m.integer("regions", 1)
	if s.Regions < 1 {
		d.errf(m.line("regions"), "spec.regions", "must be ≥ 1, got %d", s.Regions)
	}
	s.BusySlack = m.integer("busy_slack", 4)
	if s.BusySlack < 0 {
		d.errf(m.line("busy_slack"), "spec.busy_slack", "must be ≥ 0, got %d", s.BusySlack)
	}

	if sys := m.child("system"); sys != nil {
		s.System = d.system(sys)
	} else {
		d.errf(m.line("system"), "spec.system", "required")
	}
	if s.System.Boxes > 0 && s.Regions > s.System.Boxes {
		d.errf(m.line("regions"), "spec.regions", "%d regions for %d boxes", s.Regions, s.System.Boxes)
	}

	if ph := m.child("phases"); ph != nil {
		if ph.kind != listNode {
			d.errf(ph.line, "spec.phases", "expected a list, got a %s", ph.kind)
		} else {
			names := map[string]int{}
			for i, item := range ph.items {
				p := d.phase(item, fmt.Sprintf("spec.phases[%d]", i), s)
				if prev, dup := names[p.Name]; dup && p.Name != "" {
					d.errf(item.line, fmt.Sprintf("spec.phases[%d].name", i),
						"duplicate phase name %q (also phases[%d])", p.Name, prev)
				}
				names[p.Name] = i
				s.Phases = append(s.Phases, p)
			}
		}
	}
	if len(s.Phases) == 0 {
		d.errf(m.line("phases"), "spec.phases", "at least one phase is required")
	}

	// An explicit rounds field must agree with the phase sum — it exists
	// only so readers can state the intended total and be checked.
	if m.has("rounds") {
		if r := m.integer("rounds", 0); r != s.TotalRounds() && len(s.Phases) > 0 {
			d.errf(m.line("rounds"), "spec.rounds",
				"declared %d but the phases sum to %d", r, s.TotalRounds())
		}
	}

	m.finish("scenario", "name", "description", "seed", "regions", "busy_slack", "rounds", "system", "phases")
	return s
}

func validName(s string) bool {
	for _, c := range s {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return len(s) > 0
}

func (d *decoder) system(n *node) System {
	m := d.mapAt(n, "spec.system")
	sys := System{
		Boxes:    m.integer("boxes", 0),
		Upload:   m.float("upload", 0),
		Storage:  m.float("storage", 0),
		Stripes:  m.integer("stripes", 0),
		Replicas: m.integer("replicas", 0),
		Duration: m.integer("duration", 0),
		Growth:   m.float("growth", 0),
		UStar:    m.float("ustar", 0),
	}
	if sys.Boxes <= 0 {
		d.errf(m.line("boxes"), "spec.system.boxes", "must be positive, got %d", sys.Boxes)
	}
	if tiers := m.child("tiers"); tiers != nil {
		if tiers.kind != listNode {
			d.errf(tiers.line, "spec.system.tiers", "expected a list, got a %s", tiers.kind)
		} else {
			sum := 0.0
			for i, item := range tiers.items {
				tm := d.mapAt(item, fmt.Sprintf("spec.system.tiers[%d]", i))
				t := Tier{
					Frac:    tm.float("frac", 0),
					Upload:  tm.float("upload", 0),
					Storage: tm.float("storage", 0),
				}
				if t.Frac <= 0 || t.Frac > 1 {
					d.errf(tm.line("frac"), tm.path+".frac", "must be in (0,1], got %v", t.Frac)
				}
				if t.Upload <= 0 {
					d.errf(tm.line("upload"), tm.path+".upload", "must be positive, got %v", t.Upload)
				}
				if t.Storage <= 0 {
					d.errf(tm.line("storage"), tm.path+".storage", "must be positive, got %v", t.Storage)
				}
				tm.finish("frac", "upload", "storage")
				sum += t.Frac
				sys.Tiers = append(sys.Tiers, t)
			}
			if len(sys.Tiers) > 0 && math.Abs(sum-1) > 1e-9 {
				d.errf(tiers.line, "spec.system.tiers", "fractions must sum to 1, got %v", sum)
			}
		}
	} else if sys.Upload <= 0 {
		d.errf(m.line("upload"), "spec.system.upload", "must be positive (or set tiers), got %v", sys.Upload)
	}
	m.finish("boxes", "upload", "storage", "stripes", "replicas", "duration", "growth", "ustar", "tiers")
	return sys
}

func (d *decoder) phase(n *node, path string, s *Spec) Phase {
	m := d.mapAt(n, path)
	p := Phase{
		Name:   m.str("name", ""),
		Rounds: m.integer("rounds", 0),
	}
	if p.Name == "" {
		d.errf(m.line("name"), path+".name", "required")
	} else if !validName(p.Name) {
		d.errf(m.line("name"), path+".name", "%q must match [a-z0-9-]+", p.Name)
	}
	if p.Rounds <= 0 {
		d.errf(m.line("rounds"), path+".rounds", "must be positive, got %d", p.Rounds)
	}
	if a := m.child("arrival"); a != nil {
		p.Arrival = d.arrival(a, path+".arrival")
	}
	if pop := m.child("popularity"); pop != nil {
		p.Popularity = d.popularity(pop, path+".popularity")
	}
	if c := m.child("churn"); c != nil {
		cm := d.mapAt(c, path+".churn")
		p.Churn = &Churn{Period: cm.integer("period", 0), Wave: cm.integer("wave", 0)}
		if p.Churn.Period <= 0 {
			d.errf(cm.line("period"), path+".churn.period", "must be positive, got %d", p.Churn.Period)
		}
		if p.Churn.Wave <= 0 {
			d.errf(cm.line("wave"), path+".churn.wave", "must be positive, got %d", p.Churn.Wave)
		}
		cm.finish("period", "wave")
	}
	if o := m.child("outage"); o != nil {
		om := d.mapAt(o, path+".outage")
		p.Outage = &Outage{
			Region: om.integer("region", 0),
			Down:   om.integer("down", 0),
			Surge:  om.integer("surge", 0),
		}
		if p.Outage.Region < 0 || p.Outage.Region >= s.Regions {
			d.errf(om.line("region"), path+".outage.region",
				"region %d out of range [0,%d) (set spec.regions)", p.Outage.Region, s.Regions)
		}
		if p.Outage.Down <= 0 || p.Outage.Down > p.Rounds {
			d.errf(om.line("down"), path+".outage.down",
				"must be in [1,%d] (the phase length), got %d", p.Rounds, p.Outage.Down)
		}
		if p.Outage.Surge < 0 {
			d.errf(om.line("surge"), path+".outage.surge", "must be ≥ 0, got %d", p.Outage.Surge)
		}
		om.finish("region", "down", "surge")
	}
	if c := m.child("catalog"); c != nil {
		cm := d.mapAt(c, path+".catalog")
		p.Catalog = &Catalog{Initial: cm.float("initial", 0), Rate: cm.float("rate", 0)}
		if p.Catalog.Initial < 0 || p.Catalog.Initial > 1 {
			d.errf(cm.line("initial"), path+".catalog.initial", "must be in [0,1], got %v", p.Catalog.Initial)
		}
		if p.Catalog.Rate < 0 {
			d.errf(cm.line("rate"), path+".catalog.rate", "must be ≥ 0, got %v", p.Catalog.Rate)
		}
		cm.finish("initial", "rate")
	}
	m.finish("name", "rounds", "arrival", "popularity", "churn", "outage", "catalog")
	return p
}

func (d *decoder) arrival(n *node, path string) *Arrival {
	m := d.mapAt(n, path)
	a := &Arrival{
		Process: m.str("process", ""),
		Rate:    m.float("rate", 0),
		P:       m.float("p", 0),
		Size:    m.integer("size", 0),
	}
	switch a.Process {
	case "poisson":
		if a.Rate <= 0 {
			d.errf(m.line("rate"), path+".rate", "poisson arrivals need a positive rate, got %v", a.Rate)
		}
	case "bernoulli":
		if a.P <= 0 || a.P > 1 {
			d.errf(m.line("p"), path+".p", "bernoulli arrivals need p in (0,1], got %v", a.P)
		}
	case "flash":
		if a.Size < 0 {
			d.errf(m.line("size"), path+".size", "must be ≥ 0 (0 = unbounded), got %d", a.Size)
		}
	case "none":
	default:
		d.errf(m.line("process"), path+".process",
			"unknown process %q (poisson, bernoulli, flash, none)", a.Process)
	}
	if di := m.child("diurnal"); di != nil {
		dm := d.mapAt(di, path+".diurnal")
		a.Diurnal = &Diurnal{Period: dm.integer("period", 0), Amplitude: dm.float("amplitude", 0)}
		if a.Diurnal.Period <= 1 {
			d.errf(dm.line("period"), path+".diurnal.period", "must be > 1, got %d", a.Diurnal.Period)
		}
		if a.Diurnal.Amplitude < 0 || a.Diurnal.Amplitude > 1 {
			d.errf(dm.line("amplitude"), path+".diurnal.amplitude", "must be in [0,1], got %v", a.Diurnal.Amplitude)
		}
		dm.finish("period", "amplitude")
	}
	m.finish("process", "rate", "p", "size", "diurnal")
	return a
}

func (d *decoder) popularity(n *node, path string) *Popularity {
	m := d.mapAt(n, path)
	p := &Popularity{
		Model:  m.str("model", "zipf"),
		S:      m.float("s", 0.9),
		Drift:  m.float("drift", 0),
		Newest: m.boolean("newest", false),
	}
	switch p.Model {
	case "zipf":
		if p.S < 0 {
			d.errf(m.line("s"), path+".s", "must be ≥ 0, got %v", p.S)
		}
	case "uniform":
	default:
		d.errf(m.line("model"), path+".model", "unknown model %q (zipf, uniform)", p.Model)
	}
	if p.Drift < 0 {
		d.errf(m.line("drift"), path+".drift", "must be ≥ 0, got %v", p.Drift)
	}
	m.finish("model", "s", "drift", "newest")
	return p
}

// PhaseNames returns the phase names in order (for summaries).
func (s *Spec) PhaseNames() []string {
	names := make([]string, len(s.Phases))
	for i, p := range s.Phases {
		names[i] = p.Name
	}
	return names
}
