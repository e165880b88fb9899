// Package serve wraps a vod.System in a long-lived serving daemon: demand
// arrivals stream in over HTTP and are mapped onto the round clock, the
// round engine is advanced explicitly (POST /step) or on a timer, and the
// full system state can be checkpointed to disk and restored into a new
// process with bit-identical continuation (see the vod checkpoint
// envelope).
//
// Endpoints:
//
//	POST /demand      queue one demand {"box":B,"video":V} or a batch
//	                  {"demands":[...]}; delivered at the next round
//	POST /capacity    {"box":B,"slots":S} live capacity change
//	POST /step        {"rounds":N} advance N rounds (default 1)
//	POST /checkpoint  {"path":P} write a checkpoint atomically
//	GET  /metrics     operational metrics (rounds/sec, live requests,
//	                  matcher mode, obstructions, alloc bytes/round)
//	GET  /state       spec + full aggregate report
//	GET  /healthz     liveness probe
//
// All handlers serialize on one mutex: the round engine is single-writer
// by design, and the daemon's job is ordering concurrent arrivals onto
// the round clock, not parallelizing them. The mutex covers the engine's
// work only: what a reply needs is copied out under it and encoded after it
// is released, so a client that reads slowly delays nobody's round.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	vod "repro"
)

// Server is a serving daemon around one vod.System.
type Server struct {
	mu  sync.Mutex
	sys *vod.System

	// pending holds demands queued over HTTP, delivered (in arrival
	// order) to the engine at the next Step. Born is stamped at delivery:
	// an arrival between rounds r and r+1 is born in round r+1.
	// Its backing array and the per-call results buffer are reused across
	// Step calls — both are only touched with mu held, and the engine
	// consumes demands within the round they are delivered.
	pending []vod.Demand
	results []vod.StepResult

	// Step timing and allocation accounting for /metrics.
	stepRounds int64         // rounds stepped by this process
	stepWall   time.Duration // wall time inside Step
	allocBytes uint64        // heap bytes allocated across Step calls
	// heapAllocs is the one runtime/metrics sample allocBytes is summed
	// from, read in place on every step (touched only with mu held).
	heapAllocs []rtmetrics.Sample

	// Periodic auto-checkpointing (EnableAutoCheckpoint): every autoEvery
	// rounds a checkpoint lands in autoDir, retaining the autoKeep newest.
	autoDir   string
	autoEvery int
	autoKeep  int
	autoCount int64  // checkpoints written by this process
	autoLast  string // most recent auto-checkpoint path
	autoErr   error  // most recent auto-checkpoint failure, nil when healthy

	restored bool // whether sys came from a checkpoint
}

// New wraps sys (fresh or restored from a checkpoint) in a server.
func New(sys *vod.System, restored bool) *Server {
	return &Server{sys: sys, restored: restored,
		heapAllocs: []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// heapAllocBytes reads the process's cumulative heap allocation. Unlike a
// full runtime.MemStats read this does not stop the world; the price is
// that the runtime folds a span's allocations into the counter when the
// span is handed back, so a reading can trail by the spans in use — noise
// against the total over many rounds, which is all /metrics reports.
func (s *Server) heapAllocBytes() uint64 {
	rtmetrics.Read(s.heapAllocs)
	return s.heapAllocs[0].Value.Uint64()
}

// Close does nothing: the server owns no goroutines (Tick runs on its
// caller's) and the engine holds nothing to release.
//
// Deprecated: the benchmark harness (benchmark/wire.go) is the one caller
// left; goes when vod.System.Close does.
func (s *Server) Close() {}

// EnableAutoCheckpoint turns on periodic checkpointing: after every
// `every`-th round the engine reaches, a checkpoint is written atomically
// to dir as ckpt-<round>.vodckpt and only the `keep` newest are retained.
// A failed write never fails the round — the error is surfaced through
// /metrics and the next interval retries.
func (s *Server) EnableAutoCheckpoint(dir string, every, keep int) error {
	if every <= 0 {
		return fmt.Errorf("serve: checkpoint interval must be positive, got %d", every)
	}
	if keep <= 0 {
		return fmt.Errorf("serve: checkpoint retention must be positive, got %d", keep)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.autoDir, s.autoEvery, s.autoKeep = dir, every, keep
	return nil
}

// autoCheckpointLocked writes the periodic checkpoint for `round` and
// prunes beyond the retention limit. Caller holds s.mu.
func (s *Server) autoCheckpointLocked(round int) {
	path := filepath.Join(s.autoDir, fmt.Sprintf("ckpt-%09d.vodckpt", round))
	if _, err := s.checkpointLocked(path); err != nil {
		s.autoErr = err
		return
	}
	s.autoErr = nil
	s.autoLast = path
	s.autoCount++
	s.pruneCheckpointsLocked()
}

// pruneCheckpointsLocked removes the oldest auto-checkpoints past the
// retention limit. Zero-padded round numbers make the lexicographic
// directory order the chronological one.
func (s *Server) pruneCheckpointsLocked() {
	entries, err := filepath.Glob(filepath.Join(s.autoDir, "ckpt-*.vodckpt"))
	if err != nil {
		s.autoErr = err
		return
	}
	sort.Strings(entries)
	for len(entries) > s.autoKeep {
		if err := os.Remove(entries[0]); err != nil {
			s.autoErr = err
			return
		}
		entries = entries[1:]
	}
}

// drainGen feeds the queued demands to the engine. Next runs inside
// Step, which runs with srv.mu held.
type drainGen struct{ srv *Server }

func (g drainGen) Next(_ *vod.View, round int) []vod.Demand {
	ds := g.srv.pending
	g.srv.pending = ds[:0]
	for i := range ds {
		ds[i].Born = round
	}
	return ds
}

// Tick advances the engine one round per period, delivering the demands
// queued since the last one, until ctx is done or a round cannot run. It
// returns nil when ctx ends it and the reason otherwise: a Step error, or
// a system that stopped at an obstruction and will never step again. No
// round starts after ctx is done, so a caller that cancels ctx and waits
// for Tick to return knows the engine is quiescent.
func (s *Server) Tick(ctx context.Context, period time.Duration) error {
	if period <= 0 {
		return fmt.Errorf("serve: tick period %v must be positive", period)
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
		if ctx.Err() != nil { // both were ready and select drew the tick
			return nil
		}
		s.mu.Lock()
		_, err := s.stepLocked(1)
		failed, round := s.sys.Failed(), s.sys.Round()
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("serve: tick: %w", err)
		}
		if failed {
			return fmt.Errorf("serve: tick: system stopped at an obstruction in round %d", round)
		}
	}
}

// StepRounds advances the engine n rounds, delivering queued demands to
// the first round (POST /step).
func (s *Server) StepRounds(n int) ([]vod.StepResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stepLocked(n)
}

func (s *Server) stepLocked(n int) ([]vod.StepResult, error) {
	if n <= 0 {
		return nil, errors.New("rounds must be positive")
	}
	allocBefore := s.heapAllocBytes()
	start := time.Now()
	results := s.results[:0]
	for i := 0; i < n; i++ {
		res, err := s.sys.Step(drainGen{s})
		if err != nil {
			s.results = results
			return results, err
		}
		results = append(results, res)
		if s.autoEvery > 0 && s.sys.Round()%s.autoEvery == 0 {
			s.autoCheckpointLocked(s.sys.Round())
		}
	}
	s.stepWall += time.Since(start)
	s.stepRounds += int64(n)
	s.allocBytes += s.heapAllocBytes() - allocBefore
	s.results = results
	return results, nil
}

// Checkpoint writes the system state to path atomically (temp file in
// the same directory, then rename), so a crash mid-write never leaves a
// truncated checkpoint behind. Returns the byte size written.
func (s *Server) Checkpoint(path string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked(path)
}

func (s *Server) checkpointLocked(path string) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".vodckpt-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if err := s.sys.SaveCheckpoint(tmp); err != nil {
		tmp.Close()
		return 0, err
	}
	size, err := tmp.Seek(0, 2)
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return size, nil
}

// Metrics is the GET /metrics payload.
type Metrics struct {
	Round           int              `json:"round"`
	Restored        bool             `json:"restored"`
	LiveRequests    int              `json:"live_requests"`
	IdleBoxes       int              `json:"idle_boxes"`
	PendingDemands  int              `json:"pending_demands"`
	Demands         int64            `json:"demands"`
	Admitted        int64            `json:"admitted"`
	RejectedBusy    int64            `json:"rejected_busy"`
	RejectedSwarm   int64            `json:"rejected_swarm"`
	Completed       int64            `json:"completed_viewings"`
	Stalls          int64            `json:"stall_request_rounds"`
	Obstructions    int              `json:"obstructions"`
	LastObstruction *vod.Obstruction `json:"last_obstruction,omitempty"`
	Failed          bool             `json:"failed"`
	RoundsPerSec    float64          `json:"rounds_per_sec"`
	AllocsPerRound  uint64           `json:"alloc_bytes_per_round"`
	SteppedRounds   int64            `json:"stepped_rounds"`
	AutoCheckpoints int64            `json:"auto_checkpoints,omitempty"`
	LastCheckpoint  string           `json:"last_checkpoint,omitempty"`
	CheckpointError string           `json:"checkpoint_error,omitempty"`
}

func (s *Server) metricsLocked() Metrics {
	rep := s.sys.Report()
	view := s.sys.View()
	m := Metrics{
		Round:           s.sys.Round(),
		Restored:        s.restored,
		LiveRequests:    view.ActiveRequests(),
		IdleBoxes:       view.NumIdle(),
		PendingDemands:  len(s.pending),
		Demands:         rep.Demands,
		Admitted:        rep.Admitted,
		RejectedBusy:    rep.RejectedBusy,
		RejectedSwarm:   rep.RejectedSwarm,
		Completed:       rep.CompletedViewings,
		Stalls:          rep.Stalls,
		Obstructions:    len(rep.Obstructions),
		Failed:          rep.Failed,
		SteppedRounds:   s.stepRounds,
		AutoCheckpoints: s.autoCount,
		LastCheckpoint:  s.autoLast,
	}
	if s.autoErr != nil {
		m.CheckpointError = s.autoErr.Error()
	}
	if n := len(rep.Obstructions); n > 0 {
		m.LastObstruction = &rep.Obstructions[n-1]
	}
	if s.stepWall > 0 {
		m.RoundsPerSec = float64(s.stepRounds) / s.stepWall.Seconds()
	}
	if s.stepRounds > 0 {
		m.AllocsPerRound = s.allocBytes / uint64(s.stepRounds)
	}
	return m
}

type demandIn struct {
	Box   int `json:"box"`
	Video int `json:"video"`
}

type demandReq struct {
	demandIn
	Demands []demandIn `json:"demands"`
}

type capacityReq struct {
	Box   int   `json:"box"`
	Slots int64 `json:"slots"`
}

type stepReq struct {
	Rounds int `json:"rounds"`
}

type checkpointReq struct {
	Path string `json:"path"`
}

// demandResp and stepResp are the replies of the two per-round endpoints.
// Their fields are in the alphabetical order of their keys, which is the
// order the map[string]any they replace was encoded in: the bodies are the
// same bytes.
type demandResp struct {
	Pending int `json:"pending"`
	Queued  int `json:"queued"`
	Round   int `json:"round"`
}

type stepResp struct {
	Last      vod.StepResult `json:"last"`
	Matched   int            `json:"matched"`
	Round     int            `json:"round"`
	Stepped   int            `json:"stepped"`
	Unmatched int            `json:"unmatched"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /demand", s.handleDemand)
	mux.HandleFunc("POST /capacity", s.handleCapacity)
	mux.HandleFunc("POST /step", s.handleStep)
	mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /state", s.handleState)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	return mux
}

func (s *Server) handleDemand(w http.ResponseWriter, r *http.Request) {
	var req demandReq
	if !decodeBody(w, r, &req) {
		return
	}
	batch := req.Demands
	if batch == nil {
		batch = []demandIn{req.demandIn}
	}
	s.mu.Lock()
	resp, err := s.queueLocked(batch)
	s.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// queueLocked appends batch to the pending demands, or none of it when one
// names a box or video the system does not have.
func (s *Server) queueLocked(batch []demandIn) (demandResp, error) {
	n := s.sys.View().NumBoxes()
	m := s.sys.Catalog().M
	for _, d := range batch {
		if d.Box < 0 || d.Box >= n {
			return demandResp{}, fmt.Errorf("box %d out of range [0,%d)", d.Box, n)
		}
		if d.Video < 0 || d.Video >= m {
			return demandResp{}, fmt.Errorf("video %d out of range [0,%d)", d.Video, m)
		}
	}
	for _, d := range batch {
		s.pending = append(s.pending, vod.Demand{Box: d.Box, Video: vod.VideoID(d.Video)})
	}
	return demandResp{Pending: len(s.pending), Queued: len(batch), Round: s.sys.Round()}, nil
}

func (s *Server) handleCapacity(w http.ResponseWriter, r *http.Request) {
	var req capacityReq
	if !decodeBody(w, r, &req) {
		return
	}
	s.mu.Lock()
	err := s.sys.SetCapacity(req.Box, req.Slots)
	s.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"box": req.Box, "slots": req.Slots})
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	req := stepReq{Rounds: 1}
	if r.ContentLength != 0 {
		if !decodeBody(w, r, &req) {
			return
		}
		if req.Rounds == 0 {
			req.Rounds = 1
		}
	}
	s.mu.Lock()
	results, err := s.stepLocked(req.Rounds)
	var resp stepResp
	if err == nil {
		// The last result is copied: the next step reuses s.results.
		resp = stepResp{Last: results[len(results)-1], Round: s.sys.Round(), Stepped: len(results)}
		for _, res := range results {
			resp.Matched += res.Matched
			resp.Unmatched += res.Unmatched
		}
	}
	s.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	var req checkpointReq
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Path == "" {
		writeErr(w, http.StatusBadRequest, errors.New("path required"))
		return
	}
	size, err := s.Checkpoint(req.Path)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.mu.Lock()
	round := s.sys.Round()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"path": req.Path, "bytes": size, "round": round})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	m := s.metricsLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := map[string]any{
		"spec":   s.sys.Spec(),
		"round":  s.sys.Round(),
		"report": s.sys.Report(),
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}
