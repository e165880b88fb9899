package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	vod "repro"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/trace"
)

const (
	// roundtripRounds is how far a restored checkpoint is stepped beside
	// the uninterrupted run before the two are compared.
	roundtripRounds = 50
	// A checkpoint median rests on at least ckptMinRepeats saves (loads),
	// and on more of them, up to ckptMaxRepeats, until ckptSaveBudget
	// (ckptLoadBudget) is spent: five samples of a 5 ms save are too few to
	// hold a median still, five of a 600 ms load are all a run can afford.
	ckptMinRepeats = 5
	ckptMaxRepeats = 30
	ckptSaveBudget = time.Second
	ckptLoadBudget = 2500 * time.Millisecond
	// setupRepeats is how many times a run sets up, for the setup_s median.
	setupRepeats = 5
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 10
)

// expectedJSON pins, per scale and workload, the fingerprint of the first
// warm+check rounds at seed 1. It must repeat run to run and commit to
// commit: the engine's results are deterministic.
//
//go:embed expected.json
var expectedJSON []byte

type expectedEntry struct {
	Rounds      int    `json:"rounds"`
	Fingerprint string `json:"fingerprint"`
}

const expectedSeed = 1

// runConfig is one run of one workload.
type runConfig struct {
	w       *workload
	seed    uint64
	seconds float64
	traced  bool
	tiny    bool
	outDir  string // run.json, and spans.json when traced, are written here ("" = nowhere)
	workDir string // parent of the run's temp dir and home of the built daemon
}

// scaleName is the -scale value for tiny.
func scaleName(tiny bool) string {
	if tiny {
		return "tiny"
	}
	return "full"
}

// runResult is the contract's result line.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport is the result with what the line has no room for; -out stores
// it and the set mode reads it back.
type runReport struct {
	Workload          string    `json:"workload"`
	Seed              uint64    `json:"seed"`
	Scale             string    `json:"scale"`
	Traced            bool      `json:"traced"`
	TimedRounds       int       `json:"timed_rounds"`
	PrefixRounds      int       `json:"prefix_rounds"`
	PrefixFingerprint string    `json:"prefix_fingerprint"`
	Problems          []string  `json:"problems,omitempty"`
	Result            runResult `json:"result"`
}

// runState carries one run.
type runState struct {
	cfg    runConfig
	ctx    context.Context
	sp     *spans // nil when untraced
	tmp    string // removed on exit
	e2e    *metricSet
	layers *metricSet

	attempted, failed int64
	problems          []string
	report            runReport
}

// problem records a failed correctness check; the run goes on so that
// every check is reported, and ends incorrect.
func (st *runState) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	st.problems = append(st.problems, msg)
	fmt.Fprintf(os.Stderr, "benchmark: %s: CHECK FAILED: %s\n", st.cfg.w.name, msg)
}

// run executes one run. An error is a failure of the harness or its
// environment; a failure of the system under test comes back as a report
// that is not correct.
func run(ctx context.Context, cfg runConfig) (*runReport, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	st := &runState{cfg: cfg, ctx: ctx, tmp: tmp, e2e: newMetricSet(endToEnd), layers: newMetricSet(perLayer)}
	if cfg.traced {
		st.sp = newSpans()
	}
	st.report = runReport{Workload: cfg.w.name, Seed: cfg.seed, Scale: scaleName(cfg.tiny), Traced: cfg.traced}

	if cfg.w.kind == inProcess {
		err = st.runInProcess()
	} else {
		err = st.runWire()
	}
	var sut *sutError
	switch {
	case errors.As(err, &sut):
		st.failed++
		st.problem("%v", sut)
	case err != nil:
		return nil, err
	}

	if cfg.traced {
		st.layers.set("harness.spans", float64(st.sp.count()))
	}
	set := st.e2e
	if cfg.traced {
		set = st.layers
	}
	if st.attempted < st.failed || st.attempted < 1 {
		st.attempted = st.failed + 1
	}
	st.report.Problems = st.problems
	st.report.Result = runResult{
		Correct: len(st.problems) == 0, Attempted: st.attempted, Failed: st.failed, Metrics: set.values,
	}
	if cfg.outDir != "" {
		if err := st.writeOut(); err != nil {
			return nil, err
		}
	}
	return &st.report, nil
}

func (st *runState) writeOut() error {
	if err := os.MkdirAll(st.cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(st.report, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(st.cfg.outDir, "run.json"), data, 0o644); err != nil {
		return err
	}
	if st.sp != nil {
		return st.sp.write(filepath.Join(st.cfg.outDir, "spans.json"))
	}
	return nil
}

// --- shared pieces ---

// segments is the number of equal parts the timed section is cut into.
// Rate, latency percentiles and CPU time are taken per part and reported as
// the median over the parts: the host is shared, and a neighbour's burst of
// a few seconds then costs a run some parts, not its result.
const segments = 10

// segmentBound is the first round (0-based) of part i of a section of n rounds.
func segmentBound(i, n int) int { return i * n / segments }

// mark is the wall clock and the engine process's CPU time at a boundary
// between two parts of the timed section.
type mark struct {
	wall   time.Time
	cpuSec float64
}

// timeSegments runs a timed section of n rounds part by part, part(count)
// running the next count rounds, and marks every boundary.
func timeSegments(pid, n int, part func(count int) error) ([]mark, error) {
	marks := make([]mark, 0, segments+1)
	for i := 0; ; i++ {
		cpu, err := cpuSeconds(pid)
		if err != nil {
			return nil, err
		}
		marks = append(marks, mark{time.Now(), cpu})
		if i == segments {
			return marks, nil
		}
		if err := part(segmentBound(i+1, n) - segmentBound(i, n)); err != nil {
			return nil, err
		}
	}
}

// setEndToEnd reports the timed section: latNS is the latency of each timed
// round, marks its segments+1 boundaries, rssMB the engine process's VmHWM
// when it ended.
func (st *runState) setEndToEnd(setups []float64, latNS []int64, marks []mark, rssMB float64) {
	n := len(latNS)
	var rate, p50, p90, cpu [segments]float64
	for i := range rate {
		us := nsToUS(latNS[segmentBound(i, n):segmentBound(i+1, n)])
		rounds := float64(len(us))
		rate[i] = rounds / marks[i+1].wall.Sub(marks[i].wall).Seconds()
		p50[i] = median(us)
		p90[i] = percentile(us, 0.90)
		cpu[i] = (marks[i+1].cpuSec - marks[i].cpuSec) * 1e3 / rounds
	}
	st.e2e.set("setup_s", median(setups))
	st.e2e.set("rounds_per_s", median(rate[:]))
	st.e2e.set("round_p50_us", median(p50[:]))
	st.e2e.set("round_p90_us", median(p90[:]))
	st.e2e.set("cpu_ms_per_round", median(cpu[:]))
	st.e2e.set("peak_rss_mb", rssMB)
	st.report.TimedRounds = n
	if st.cfg.traced {
		st.layers.set("harness.traced_rounds_per_s", median(rate[:]))
	}
}

func saveToFile(sys *vod.System, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := sys.SaveCheckpoint(bw); err != nil {
		f.Close()
		return &sutError{fmt.Errorf("SaveCheckpoint: %w", err)}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadFromFile(path string) (*vod.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sys, err := vod.LoadCheckpoint(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, &sutError{fmt.Errorf("LoadCheckpoint: %w", err)}
	}
	return sys, nil
}

// ckptRepeat says whether the i-th repeat (0-based) should run.
func ckptRepeat(i int, spent, budget time.Duration) bool {
	return i < ckptMinRepeats || (i < ckptMaxRepeats && spent < budget)
}

// checkpoints saves the end-of-run state repeatedly through save, loads the
// file repeatedly, reports the medians and the size, and returns the last
// restored system for the round-trip check.
func (st *runState) checkpoints(save func(path string) error) (*vod.System, error) {
	path := filepath.Join(st.tmp, "state.vodckpt")
	var saveMS, loadMS []float64
	begin := time.Now()
	for i := 0; ckptRepeat(i, time.Since(begin), ckptSaveBudget); i++ {
		st.attempted++
		id := st.sp.begin("ckpt.save", -1, 0)
		t0 := time.Now()
		err := save(path)
		saveMS = append(saveMS, float64(time.Since(t0))/1e6)
		st.sp.end(id)
		if err != nil {
			return nil, err
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var restored *vod.System
	begin = time.Now()
	for i := 0; ckptRepeat(i, time.Since(begin), ckptLoadBudget); i++ {
		if restored != nil {
			restored.Close() // the last one stays open for the round trip
		}
		runtime.GC() // the previous load's garbage is not this load's cost
		st.attempted++
		id := st.sp.begin("ckpt.load", -1, 0)
		t0 := time.Now()
		restored, err = loadFromFile(path)
		loadMS = append(loadMS, float64(time.Since(t0))/1e6)
		st.sp.end(id)
		if err != nil {
			return nil, err
		}
	}
	mb := float64(info.Size()) / 1e6
	st.e2e.set("ckpt_save_ms", median(saveMS))
	st.e2e.set("ckpt_load_ms", median(loadMS))
	st.e2e.set("ckpt_mb", mb)
	if st.cfg.traced {
		st.layers.set("ckpt.save_mb_per_s", mb/(median(saveMS)/1e3))
	}
	return restored, nil
}

// stepN steps sys n rounds and returns the results.
func stepN(sys *vod.System, gen vod.Generator, n int) ([]vod.StepResult, error) {
	out := make([]vod.StepResult, 0, n)
	for i := 0; i < n; i++ {
		res, err := sys.Step(gen)
		if err != nil {
			return out, &sutError{fmt.Errorf("Step, round %d: %w", sys.Round(), err)}
		}
		out = append(out, res)
	}
	return out, nil
}

// compareRuns checks got against the reference, round by round.
func (st *runState) compareRuns(what string, got, ref []vod.StepResult) bool {
	if len(got) != len(ref) {
		st.problem("%s: %d rounds against %d", what, len(got), len(ref))
		return false
	}
	if d := firstDifference(got, ref); d != 0 {
		st.problem("%s: first differing round is %d: %+v against %+v", what, ref[d-1].Round, got[d-1], ref[d-1])
		return false
	}
	return true
}

func (st *runState) compareCounters(what string, got, ref counters) bool {
	if got != ref {
		st.problem("%s: report counters differ: %+v against %+v", what, got, ref)
		return false
	}
	return true
}

// checkPrefix records the prefix fingerprint and holds it against
// expected.json at the pinned seed.
func (st *runState) checkPrefix(prefix []vod.StepResult) error {
	fp := fmt.Sprintf("%016x", fingerprint(prefix))
	st.report.PrefixRounds, st.report.PrefixFingerprint = len(prefix), fp
	if n := unsoundRounds(prefix); n > 0 {
		st.problem("%d rounds where demanded != admitted + rejected", n)
	}
	if st.cfg.seed != expectedSeed {
		return nil
	}
	var expected map[string]map[string]expectedEntry
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	want, ok := expected[scaleName(st.cfg.tiny)][st.cfg.w.name]
	if !ok {
		return nil
	}
	if want.Rounds != len(prefix) || want.Fingerprint != fp {
		st.problem("fingerprint of rounds 1..%d is %s, expected.json has %s over %d rounds (seed %d)",
			len(prefix), fp, want.Fingerprint, want.Rounds, expectedSeed)
	}
	return nil
}

// setCoreMetrics fills core.* from an instrumented in-process run: the
// workload's own engine in process, the replay twin on the wire. Timings
// cover the timed rounds; simulated counts cover the fixed check window, so
// they repeat exactly whatever the host's speed.
func (st *runState) setCoreMetrics(r *engineRun, warm, check int, mallocs, allocBytes uint64, memRounds int) {
	L := st.layers
	last := r.rounds()
	stepUS := nsToUS(r.latNS[warm:last])
	pre := st.sp.durationsUS("core.pre_admit", warm+1, last)
	post := st.sp.durationsUS("core.post_admit", warm+1, last)
	L.set("core.step_p50_us", median(stepUS))
	L.set("core.step_p99_us", percentile(stepUS, 0.99))
	L.set("core.step_max_us", percentile(stepUS, 1))
	L.set("core.pre_admit_p50_us", median(pre))
	L.set("core.post_admit_p50_us", median(post))
	if total := sum(stepUS); total > 0 {
		L.set("core.pre_admit_share", sum(pre)/total)
		L.set("core.post_admit_share", sum(post)/total)
	}

	var live, matched, admitted, busy, swarm, stalls, obstructions, windowNS float64
	for i := warm; i < warm+check && i < last; i++ {
		res := r.results[i]
		live += float64(r.live[i])
		windowNS += float64(r.latNS[i])
		matched += float64(res.Matched)
		admitted += float64(res.Admitted)
		busy += float64(res.RejectedBusy)
		swarm += float64(res.RejectedSwarm)
		stalls += float64(res.Unmatched)
		if res.Obstruction != nil {
			obstructions++
		}
	}
	n := float64(check)
	L.set("core.live_requests_mean", live/n)
	if live > 0 {
		L.set("core.ns_per_live_request", windowNS/live)
	}
	L.set("core.matched_per_round", matched/n)
	view := r.sys.View()
	slots := 0.0
	for b := 0; b < view.NumBoxes(); b++ {
		slots += float64(view.UploadSlots(b))
	}
	L.set("core.mean_utilization", matched/n/slots)
	L.set("core.admitted", admitted)
	L.set("core.rejected_busy", busy)
	L.set("core.rejected_swarm", swarm)
	L.set("core.stall_request_rounds", stalls)
	L.set("core.obstructions", obstructions)

	L.set("core.allocs_per_round", float64(mallocs)/float64(memRounds))
	L.set("core.bytes_per_round", float64(allocBytes)/float64(memRounds))

	var par, tail float64
	for _, s := range r.stageUS[warm:last] {
		par += s[0]
		tail += s[1]
	}
	rounds := float64(last - warm)
	L.set("core.stage_parallel_us", par/rounds)
	L.set("core.stage_serial_tail_us", tail/rounds)
	L.set("core.unclocked_us", (sum(stepUS)-par-tail)/rounds)
}

// setProbeMetrics fills the metrics of the isolated probes.
func (st *runState) setProbeMetrics(spec vod.Spec, newMS float64) error {
	L := st.layers
	augment, matched := matcherProbe(st.sp)
	L.set("bipartite.probe_augment_us", augment)
	L.set("bipartite.probe_matched", float64(matched))
	d, err := allocationProbe(st.sp, spec)
	if err != nil {
		return err
	}
	L.set("allocation.permutation_ms", float64(d)/1e6)
	L.set("vod.new_ms", newMS)
	L.set("ckpt.load_minus_new_ms", st.e2e.values["ckpt_load_ms"].Value-newMS)
	return nil
}

// --- in-process workloads ---

func (st *runState) runInProcess() error {
	cfg, w := st.cfg, st.cfg.w
	boxes := w.population(cfg.tiny)
	spec := w.spec(boxes, cfg.seed)
	check, timed := w.checkRounds(cfg.tiny), w.timedRounds(cfg.seconds, cfg.tiny)
	capacity := w.warm + timed
	pid := os.Getpid()

	// Set-up, repeated for the median: build the system and warm it past
	// the first cache-window expiry. The last one is the one that runs.
	var (
		main   *engineRun
		setups []float64
		newMS  []float64
	)
	defer func() {
		if main != nil {
			main.sys.Close()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if main != nil {
			main.sys.Close()
			main = nil
			debug.FreeOSMemory() // keep an earlier set-up's garbage out of peak_rss_mb
		}
		t0 := time.Now()
		root := st.sp.begin("setup", -1, 0)
		id := st.sp.begin("vod.new", root, 0)
		sys, err := vod.New(spec)
		newMS = append(newMS, float64(time.Since(t0))/1e6)
		st.sp.end(id)
		if err != nil {
			return fmt.Errorf("vod.New: %w", err)
		}
		main = newEngineRun(sys, w.gen(boxes, cfg.seed), st.sp, capacity)
		id = st.sp.begin("warmup", root, 0)
		err = main.step(st.ctx, w.warm)
		st.sp.end(id)
		st.sp.end(root)
		st.attempted += int64(main.rounds())
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The timed section: Step back to back.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	marks, err := timeSegments(pid, timed, func(count int) error { return main.step(st.ctx, count) })
	st.attempted += int64(main.rounds() - w.warm)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	rss, err := procPeakRSSMB(pid)
	if err != nil {
		return err
	}
	st.setEndToEnd(setups, main.latNS[w.warm:], marks, rss)
	if cfg.traced {
		st.setCoreMetrics(main, w.warm, check, m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, timed)
	}
	if err := st.checkPrefix(main.results[:w.warm+check]); err != nil {
		return err
	}

	// Checkpoints of the end-of-run state, then the round trip: the
	// restored system, fed the demands the live one is fed, must do what
	// the live one does.
	restored, err := st.checkpoints(func(path string) error { return saveToFile(main.sys, path) })
	if err != nil {
		return err
	}
	rec := trace.NewRecorder(main.raw)
	liveRes, err := stepN(main.sys, rec, roundtripRounds)
	if err == nil {
		var restoredRes []vod.StepResult
		restoredRes, err = stepN(restored, trace.NewReplayer(&rec.Trace), roundtripRounds)
		ok := err == nil && st.compareRuns("checkpoint round trip", restoredRes, liveRes) &&
			st.compareCounters("checkpoint round trip", reportCounters(restored.Report()), reportCounters(main.sys.Report()))
		if ok && cfg.traced {
			st.layers.set("ckpt.roundtrip_ok", 1)
		}
	}
	restored.Close()
	st.attempted += 2 * roundtripRounds
	if err != nil {
		return err
	}

	// The twin: the same system on the other round engine, from scratch,
	// over the fixed prefix.
	main.sys.Close()
	prefix := main.results[:w.warm+check]
	main = nil
	debug.FreeOSMemory()
	tsys, err := vod.New(twinSpec(spec))
	if err != nil {
		return fmt.Errorf("vod.New (twin): %w", err)
	}
	defer tsys.Close()
	twinRes, err := stepN(tsys, w.gen(boxes, cfg.seed), len(prefix))
	st.attempted += int64(len(twinRes))
	if err != nil {
		return err
	}
	st.compareRuns(fmt.Sprintf("against the Shards=%d twin", twinSpec(spec).Shards), prefix, twinRes)

	if cfg.traced {
		return st.setProbeMetrics(spec, median(newMS))
	}
	return nil
}

// --- wire workloads ---

// wireSetup is everything one set-up of a wire workload produces.
type wireSetup struct {
	spec   vod.Spec
	corpus *trace.Trace
	ep     *endpoint
	client *wireClient
	cursor corpusCursor
}

func (ws *wireSetup) close() {
	if ws.client != nil {
		ws.client.close()
	}
	if ws.ep != nil {
		_, _ = ws.ep.stop() // teardown on an error path; the error in hand is the one to report
	}
}

// setUpWire generates the corpus the way an operator would (scenario file →
// vodgen's Expand → corpus file → read back), starts the daemon and warms
// it over the wire.
func (st *runState) setUpWire(bin string, boxes, corpusRounds, capacity int) (*wireSetup, error) {
	cfg, w := st.cfg, st.cfg.w
	root := st.sp.begin("setup", -1, 0)
	defer st.sp.end(root)

	scenarioPath := filepath.Join(st.tmp, "scenario.yaml")
	if err := os.WriteFile(scenarioPath, []byte(scenarioText(boxes, cfg.seed, corpusRounds)), 0o644); err != nil {
		return nil, err
	}
	id := st.sp.begin("scenario.parse", root, 0)
	sc, err := scenario.ParseFile(scenarioPath)
	st.sp.end(id)
	if err != nil {
		return nil, err
	}
	id = st.sp.begin("scenario.expand", root, 0)
	ex, err := scenario.Expand(sc, cfg.seed)
	st.sp.end(id)
	if err != nil {
		return nil, err
	}
	corpusPath := filepath.Join(st.tmp, "corpus.json")
	id = st.sp.begin("trace.encode", root, 0)
	var enc bytes.Buffer
	err = ex.Trace.WriteJSON(&enc)
	if err == nil {
		err = os.WriteFile(corpusPath, enc.Bytes(), 0o644)
	}
	st.sp.end(id)
	if err != nil {
		return nil, err
	}
	id = st.sp.begin("trace.decode", root, 0)
	f, err := os.Open(corpusPath)
	if err != nil {
		return nil, err
	}
	corpus, err := trace.ReadJSON(bufio.NewReaderSize(f, 1<<20))
	f.Close()
	st.sp.end(id)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		st.layers.set("scenario.events", float64(ex.Trace.Len()))
		st.layers.set("scenario.dropped", float64(ex.Dropped))
		st.layers.set("trace.bytes", float64(enc.Len()))
	}

	ws := &wireSetup{spec: ex.VodSpec, corpus: corpus, cursor: corpusCursor{events: corpus.Events}}
	if cfg.traced {
		sys, err := vod.New(ex.VodSpec)
		if err != nil {
			return nil, fmt.Errorf("vod.New: %w", err)
		}
		if ws.ep, err = startHosted(sys, st.sp); err != nil {
			sys.Close()
			return nil, err
		}
	} else {
		id = st.sp.begin("vodserve.start", root, 0)
		ws.ep, _, err = startDaemon(st.ctx, bin, scenarioPath, filepath.Join(st.tmp, "vodserve.log"))
		st.sp.end(id)
		if err != nil {
			return nil, err
		}
	}
	ws.client = newWireClient(st.ctx, ws.ep.base, st.sp, capacity, filepath.Join(st.tmp, "periodic.vodckpt"))
	id = st.sp.begin("warmup", root, 0)
	defer st.sp.end(id)
	for round := 1; round <= w.warm; round++ {
		if err := ws.client.round(round, ws.cursor.next(round), w.kind == wireOps); err != nil {
			ws.close()
			return nil, err
		}
	}
	return ws, nil
}

func (st *runState) runWire() error {
	cfg, w := st.cfg, st.cfg.w
	boxes := w.population(cfg.tiny)
	check := w.checkRounds(cfg.tiny)
	ops := w.kind == wireOps
	timedEnd := w.warm + w.timedRounds(cfg.seconds, cfg.tiny)
	corpusRounds := timedEnd + roundtripRounds

	bin, err := buildDaemon(st.ctx, cfg.workDir)
	if err != nil {
		return err
	}

	var (
		ws     *wireSetup
		setups []float64
	)
	defer func() {
		if ws != nil {
			ws.close()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if ws != nil {
			ws.close()
			ws = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if ws, err = st.setUpWire(bin, boxes, corpusRounds, corpusRounds); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	client := ws.client

	// The timed section: one closed-loop client, round after round.
	round := w.warm
	marks, err := timeSegments(ws.ep.pid, timedEnd-w.warm, func(count int) error {
		for end := round + count; round < end; {
			round++
			if err := client.round(round, ws.cursor.next(round), ops); err != nil {
				return err
			}
		}
		return nil
	})
	st.attempted += client.requests
	st.failed += client.httpErrors
	if err != nil {
		return err
	}
	rss, err := procPeakRSSMB(ws.ep.pid)
	if err != nil {
		return err
	}
	st.setEndToEnd(setups, client.latNS[w.warm:timedEnd], marks, rss)
	reqBytes, respBytes := client.reqBytes, client.respBytes

	// Checkpoints through POST /checkpoint, loaded back in the harness,
	// then the round trip: the daemon goes on over the wire, the restored
	// system goes on in process from the same corpus.
	before := client.requests
	restored, err := st.checkpoints(func(path string) error { return client.checkpoint(path, 0) })
	st.attempted -= client.requests - before // counted once, as checkpoint operations
	if err != nil {
		return err
	}
	defer restored.Close()
	for r := timedEnd + 1; r <= timedEnd+roundtripRounds; r++ {
		if err := client.round(r, ws.cursor.next(r), ops); err != nil {
			return err
		}
	}
	wireRes, err := client.stepResults()
	if err != nil {
		return err
	}
	restoredRes, err := stepN(restored, trace.NewReplayer(ws.corpus), roundtripRounds)
	if err != nil {
		return err
	}
	var state struct {
		Report vod.Report `json:"report"`
	}
	if err := client.getJSON("/state", &state); err != nil {
		return err
	}
	wireCounters := reportCounters(state.Report)
	roundtripOK := st.compareRuns("checkpoint round trip", restoredRes, wireRes[timedEnd:]) &&
		st.compareCounters("checkpoint round trip", reportCounters(restored.Report()), wireCounters)
	if roundtripOK && cfg.traced {
		st.layers.set("ckpt.roundtrip_ok", 1)
	}
	if err := st.checkPrefix(wireRes[:w.warm+check]); err != nil {
		return err
	}
	if n := unsoundRounds(wireRes); n > 0 {
		st.problem("%d rounds where demanded != admitted + rejected", n)
	}

	// The twin: an in-process engine replaying the same corpus through
	// trace.Replayer, over every round the daemon stepped. In the traced
	// run it is also where core.* is measured.
	t0 := time.Now()
	id := st.sp.begin("vod.new", -1, 0)
	tsys, err := vod.New(ws.spec)
	newMS := float64(time.Since(t0)) / 1e6
	st.sp.end(id)
	if err != nil {
		return fmt.Errorf("vod.New (twin): %w", err)
	}
	defer tsys.Close()
	twin := newEngineRun(tsys, trace.NewReplayer(ws.corpus), st.sp, len(wireRes))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = twin.step(st.ctx, len(wireRes))
	runtime.ReadMemStats(&m1)
	st.attempted += int64(twin.rounds())
	if err != nil {
		return err
	}
	st.compareRuns("against the in-process replay", wireRes, twin.results)
	st.compareCounters("against the in-process replay", wireCounters, reportCounters(tsys.Report()))

	client.close()
	_, stopErr := ws.ep.stop()
	spec, corpus := ws.spec, ws.corpus
	ws = nil
	if stopErr != nil {
		return &sutError{stopErr}
	}

	if !cfg.traced {
		return nil
	}
	st.setCoreMetrics(twin, w.warm, check, m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, twin.rounds())
	st.layers.set("trace.replay_us_per_round", sum(st.sp.durationsUS("generator", w.warm+1, timedEnd))/float64(timedEnd-w.warm))
	st.setServeMetrics(client, twin, w.warm, timedEnd, reqBytes, respBytes)
	if err := st.setDaemonMetrics(bin, corpus); err != nil {
		return err
	}
	return st.setProbeMetrics(spec, newMS)
}

// setServeMetrics fills serve.* and the set-up layers from the spans of the
// traced wire run. from+1..to are the timed rounds; reqBytes and respBytes
// are the client's byte counts over rounds 1..to.
func (st *runState) setServeMetrics(c *wireClient, twin *engineRun, from, to int, reqBytes, respBytes int64) {
	L, sp := st.layers, st.sp
	first := from + 1
	L.set("scenario.parse_ms", median(sp.durationsUS("scenario.parse", 0, 0))/1e3)
	L.set("scenario.expand_ms", median(sp.durationsUS("scenario.expand", 0, 0))/1e3)
	L.set("trace.encode_ms", median(sp.durationsUS("trace.encode", 0, 0))/1e3)
	L.set("trace.decode_ms", median(sp.durationsUS("trace.decode", 0, 0))/1e3)

	stepRTT := sp.durationsUS("serve.step_rtt", first, to)
	L.set("serve.demand_rtt_p50_us", median(sp.durationsUS("serve.demand_rtt", first, to)))
	L.set("serve.step_rtt_p50_us", median(stepRTT))
	L.set("serve.step_rtt_p99_us", percentile(stepRTT, 0.99))
	L.set("serve.demand_handler_p50_us", median(sp.durationsUS("serve.demand_handler", first, to)))
	L.set("serve.step_handler_p50_us", median(sp.durationsUS("serve.step_handler", first, to)))

	// Per round: time on the wire and in the HTTP stacks is what the
	// client waited minus what the handlers ran; codec and accounting in
	// the step handler is what it ran minus the engine's own Step of the
	// same round in process.
	rtt := sp.perRoundUS(first, to, "serve.demand_rtt", "serve.step_rtt", "serve.scrape_rtt", "serve.checkpoint_rtt")
	handler := sp.perRoundUS(first, to, "serve.demand_handler", "serve.step_handler", "serve.scrape_handler", "serve.checkpoint_handler")
	stepHandler := sp.perRoundUS(first, to, "serve.step_handler")
	inproc := nsToUS(twin.latNS[from:to])
	transport := make([]float64, len(rtt))
	codec := make([]float64, len(rtt))
	for i := range rtt {
		transport[i] = rtt[i] - handler[i]
		codec[i] = stepHandler[i] - inproc[i]
	}
	L.set("serve.transport_p50_us", median(transport))
	L.set("serve.codec_p50_us", median(codec))
	if m := median(inproc); m > 0 {
		L.set("serve.wire_over_inprocess", median(nsToUS(c.latNS[from:to]))/m)
	}
	if c.conns > 0 {
		L.set("serve.conn_reused_share", float64(c.reusedConns)/float64(c.conns))
	}
	L.set("serve.request_bytes_per_round", float64(reqBytes)/float64(to))
	L.set("serve.response_bytes_per_round", float64(respBytes)/float64(to))
	L.set("serve.http_errors", float64(c.httpErrors))

	scrapes := sp.durationsUS("serve.scrape_rtt", first, to)
	L.set("serve.scrape_p50_us", median(scrapes))
	if tenth := len(scrapes) / 10; tenth > 0 {
		L.set("serve.scrape_growth", median(scrapes[len(scrapes)-tenth:])/median(scrapes[:tenth]))
	}
}

// setDaemonMetrics starts the real daemon once more, briefly, for what only
// the binary can tell: start-up, its own allocation count, shutdown, and the
// round trip across a process boundary that the hosted handler does not pay.
func (st *runState) setDaemonMetrics(bin string, corpus *trace.Trace) error {
	w := st.cfg.w
	scenarioPath := filepath.Join(st.tmp, "scenario.yaml")
	ep, start, err := startDaemon(st.ctx, bin, scenarioPath, filepath.Join(st.tmp, "vodserve-probe.log"))
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = ep.stop() // error path; the error in hand is the one to report
		}
	}()
	rounds := w.warm + w.checkRounds(st.cfg.tiny)
	client := newWireClient(st.ctx, ep.base, nil, rounds, filepath.Join(st.tmp, "periodic.vodckpt"))
	defer client.close()
	cursor := corpusCursor{events: corpus.Events}
	for r := 1; r <= rounds; r++ {
		if err := client.round(r, cursor.next(r), w.kind == wireOps); err != nil {
			return err
		}
	}
	var m serve.Metrics
	if err := client.getJSON("/metrics", &m); err != nil {
		return err
	}
	st.attempted += client.requests
	client.close()
	shutdown, err := ep.stop()
	stopped = true
	if err != nil {
		return &sutError{err}
	}
	st.layers.set("vodserve.start_ms", float64(start)/1e6)
	st.layers.set("vodserve.shutdown_ms", float64(shutdown)/1e6)
	st.layers.set("vodserve.alloc_bytes_per_round", float64(m.AllocsPerRound))
	st.layers.set("vodserve.round_p50_us", median(nsToUS(client.latNS[w.warm:])))
	return nil
}
