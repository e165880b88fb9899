package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"testing"
	"time"

	vod "repro"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sys, err := vod.New(vod.Spec{Boxes: 30, Upload: 2.0, Resilient: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys, false)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestDemandStepMetrics(t *testing.T) {
	_, ts := newTestServer(t)

	code, out := postJSON(t, ts.URL+"/demand", map[string]int{"box": 3, "video": 0})
	if code != http.StatusOK {
		t.Fatalf("demand: %d %v", code, out)
	}
	code, out = postJSON(t, ts.URL+"/demand", map[string]any{
		"demands": []map[string]int{{"box": 5, "video": 1}, {"box": 6, "video": 1}},
	})
	if code != http.StatusOK || out["pending"].(float64) != 3 {
		t.Fatalf("batch demand: %d %v", code, out)
	}

	code, out = postJSON(t, ts.URL+"/step", map[string]int{"rounds": 5})
	if code != http.StatusOK {
		t.Fatalf("step: %d %v", code, out)
	}
	if out["round"].(float64) != 5 {
		t.Fatalf("round after step: %v", out["round"])
	}

	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Round != 5 || m.Demands != 3 || m.Admitted != 3 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.SteppedRounds != 5 || m.RoundsPerSec <= 0 {
		t.Fatalf("step accounting: %+v", m)
	}
	if m.LiveRequests == 0 {
		t.Fatalf("three admitted viewers should hold live requests: %+v", m)
	}
}

// goroutineBaseline returns the process's settled goroutine count after
// one full build+serve+close cycle, which creates the runtime's lazy
// helper goroutines so the baseline is stable.
func goroutineBaseline(t *testing.T) int {
	t.Helper()
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/step", map[string]int{"rounds": 1})
	ts.Close()
	waitGoroutines(t, runtime.NumGoroutine())
	return runtime.NumGoroutine()
}

// waitGoroutines polls until the goroutine count returns to base —
// httptest connections park asynchronously.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still live (baseline %d)", runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDemandValidation(t *testing.T) {
	_, ts := newTestServer(t)
	if code, _ := postJSON(t, ts.URL+"/demand", map[string]int{"box": -1, "video": 0}); code != http.StatusBadRequest {
		t.Fatalf("negative box accepted: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/demand", map[string]int{"box": 0, "video": 9999}); code != http.StatusBadRequest {
		t.Fatalf("out-of-catalog video accepted: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/step", map[string]int{"rounds": -3}); code == http.StatusOK {
		t.Fatal("negative rounds accepted")
	}
}

func TestCapacityEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	if code, out := postJSON(t, ts.URL+"/capacity", map[string]int{"box": 2, "slots": 1}); code != http.StatusOK {
		t.Fatalf("capacity: %d %v", code, out)
	}
	if got := srv.sys.View().UploadSlots(2); got != 1 {
		t.Fatalf("capacity not applied: %d", got)
	}
	if code, _ := postJSON(t, ts.URL+"/capacity", map[string]int{"box": 999, "slots": 1}); code != http.StatusBadRequest {
		t.Fatal("bad box accepted")
	}
}

// TestCheckpointRestartContinuity is the HTTP-level version of the CI
// smoke test: drive demands, checkpoint over HTTP, bring up a second
// daemon from the file, and verify the round clock and counters carried
// over — then verify both daemons continue bit-identically under the
// same demand stream.
func TestCheckpointRestartContinuity(t *testing.T) {
	_, ts := newTestServer(t)

	for i := 0; i < 20; i++ {
		code, out := postJSON(t, ts.URL+"/demand", map[string]int{"box": i, "video": i % 3})
		if code != http.StatusOK {
			t.Fatalf("demand %d: %v", i, out)
		}
		if code, out = postJSON(t, ts.URL+"/step", nil); code != http.StatusOK {
			t.Fatalf("step %d: %v", i, out)
		}
	}
	path := filepath.Join(t.TempDir(), "state.ckpt")
	code, out := postJSON(t, ts.URL+"/checkpoint", map[string]string{"path": path})
	if code != http.StatusOK {
		t.Fatalf("checkpoint: %d %v", code, out)
	}
	if out["round"].(float64) != 20 {
		t.Fatalf("checkpoint round: %v", out)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	restoredSys, err := vod.LoadCheckpoint(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(restoredSys, true).Handler())
	defer ts2.Close()

	var m1, m2 Metrics
	getJSON(t, ts.URL+"/metrics", &m1)
	getJSON(t, ts2.URL+"/metrics", &m2)
	if m2.Round != m1.Round {
		t.Fatalf("round clock did not carry over: %d vs %d", m2.Round, m1.Round)
	}
	if !m2.Restored {
		t.Fatal("restored flag not set")
	}
	if m2.Demands != m1.Demands || m2.Admitted != m1.Admitted || m2.Completed != m1.Completed {
		t.Fatalf("counters did not carry over: %+v vs %+v", m2, m1)
	}

	// Identical demand streams into both daemons must produce identical
	// rounds from here on.
	for i := 0; i < 15; i++ {
		d := map[string]int{"box": (i * 3) % 30, "video": i % 2}
		for _, u := range []string{ts.URL, ts2.URL} {
			if code, out := postJSON(t, u+"/demand", d); code != http.StatusOK {
				t.Fatalf("demand: %v", out)
			}
		}
		_, o1 := postJSON(t, ts.URL+"/step", nil)
		_, o2 := postJSON(t, ts2.URL+"/step", nil)
		if fmt.Sprint(o1) != fmt.Sprint(o2) {
			t.Fatalf("round %d diverged after restore:\n%v\n%v", i, o1, o2)
		}
	}
}

func TestStateEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var st struct {
		Spec  vod.Spec   `json:"spec"`
		Round int        `json:"round"`
		Rep   vod.Report `json:"report"`
	}
	getJSON(t, ts.URL+"/state", &st)
	if st.Spec.Boxes != 30 || st.Round != 0 {
		t.Fatalf("state: %+v", st)
	}
}

// roundOf reads the engine round the way a handler would, under the mutex.
func roundOf(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.Round()
}

// TestTickStopsWithContext follows vodserve's shutdown order: cancel the
// round clock, wait for it, shut the handlers. Once Tick has returned the
// round no longer moves, and the process is back at its goroutine baseline.
func TestTickStopsWithContext(t *testing.T) {
	base := goroutineBaseline(t)
	srv, ts := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ticked := make(chan error, 1)
	go func() { ticked <- srv.Tick(ctx, time.Millisecond) }()
	for deadline := time.Now().Add(5 * time.Second); roundOf(srv) < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("round clock reached round %d in 5s", roundOf(srv))
		}
		postJSON(t, ts.URL+"/demand", map[string]int{"box": 1, "video": 0}) // handlers beside the clock
	}
	cancel()
	if err := <-ticked; err != nil {
		t.Fatalf("Tick ended by its context returned %v", err)
	}
	stopped := roundOf(srv)
	time.Sleep(20 * time.Millisecond)
	if now := roundOf(srv); now != stopped {
		t.Fatalf("round moved from %d to %d after Tick returned", stopped, now)
	}
	ts.Close()
	waitGoroutines(t, base)
}

// TestTickExitsOnFailedSystem: a system that halts at an obstruction never
// steps again, so the round clock reports it once and returns instead of
// failing every period.
func TestTickExitsOnFailedSystem(t *testing.T) {
	sys, err := vod.New(vod.Spec{Boxes: 20, Upload: 0.5, Stripes: 4, Replicas: 1, Duration: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys, false)
	for b := 0; b < 20; b++ {
		srv.pending = append(srv.pending, vod.Demand{Box: b, Video: vod.VideoID(b % sys.Catalog().M)})
	}
	ticked := make(chan error, 1)
	go func() { ticked <- srv.Tick(context.Background(), time.Millisecond) }()
	select {
	case err := <-ticked:
		if err == nil || !sys.Failed() {
			t.Fatalf("Tick returned %v with failed=%v, want an error from a failed system", err, sys.Failed())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Tick kept running on a system that cannot be satisfied")
	}
	if err := srv.Tick(context.Background(), 0); err == nil {
		t.Fatal("Tick accepted a zero period")
	}
}

// otherPauses counts the stop-the-world pauses the runtime has taken for
// anything but garbage collection — runtime.ReadMemStats is one each.
func otherPauses(t *testing.T) uint64 {
	t.Helper()
	sample := []rtmetrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindFloat64Histogram {
		t.Skipf("this runtime does not report %s", sample[0].Name)
	}
	n := uint64(0)
	for _, c := range sample[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// post drives the handler in process and returns the reply.
func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// TestStepDoesNotStopTheWorld: accounting for a round must not pause every
// goroutine in the daemon. Two ReadMemStats calls per /step showed here as
// +400 pauses over 200 steps.
func TestStepDoesNotStopTheWorld(t *testing.T) {
	srv, ts := newTestServer(t)
	h := srv.Handler()
	before := otherPauses(t)
	for i := 0; i < 200; i++ {
		post(t, h, "/demand", fmt.Sprintf(`{"box":%d,"video":%d}`, i%30, i%3))
		if rec := post(t, h, "/step", ""); rec.Code != http.StatusOK {
			t.Fatalf("step %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if after := otherPauses(t); after != before {
		t.Fatalf("200 /step calls stopped the world %d times", after-before)
	}

	// What replaced ReadMemStats still counts bytes: a megabyte allocated
	// between two readings shows in full (large objects are counted at once).
	a := srv.heapAllocBytes()
	sink = make([]byte, 1<<20)
	if b := srv.heapAllocBytes(); b-a < 1<<20 {
		t.Fatalf("heapAllocBytes moved %d across a 1 MiB allocation", b-a)
	}
	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.SteppedRounds != 200 || m.AllocsPerRound == 0 {
		t.Fatalf("/metrics after 200 rounds from a cold start: stepped %d, alloc_bytes_per_round %d", m.SteppedRounds, m.AllocsPerRound)
	}
}

var sink []byte

// TestHotReplyBodiesUnchanged pins the /demand and /step replies byte for
// byte. They were a map[string]any (keys encoded in sorted order) and are
// typed structs now; a client that compares or hashes bodies, and
// serve.response_bytes_per_round, must not notice. The obstructed system
// covers a "last" that carries a certificate.
func TestHotReplyBodiesUnchanged(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	for _, step := range []struct{ path, body, want string }{
		{"/demand", `{"box":3,"video":0}`,
			`{"pending":1,"queued":1,"round":0}` + "\n"},
		{"/demand", `{"demands":[{"box":5,"video":1},{"box":6,"video":1}]}`,
			`{"pending":3,"queued":2,"round":0}` + "\n"},
		{"/step", `{"rounds":5}`,
			`{"last":{"Round":5,"Demanded":0,"Admitted":0,"RejectedBusy":0,"RejectedSwarm":0,"Matched":4,"Unmatched":0,"Obstruction":null},` +
				`"matched":18,"round":5,"stepped":5,"unmatched":0}` + "\n"},
		{"/demand", `{"demands":[]}`,
			`{"pending":0,"queued":0,"round":5}` + "\n"},
	} {
		if got := post(t, h, step.path, step.body).Body.String(); got != step.want {
			t.Errorf("POST %s %s\n got %s\nwant %s", step.path, step.body, got, step.want)
		}
	}

	sys, err := vod.New(vod.Spec{Boxes: 20, Upload: 0.5, Stripes: 4, Replicas: 1, Duration: 20, Resilient: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	stalled := New(sys, false)
	var batch []string
	for b := 0; b < 20; b++ {
		batch = append(batch, fmt.Sprintf(`{"box":%d,"video":%d}`, b, b%sys.Catalog().M))
	}
	post(t, stalled.Handler(), "/demand", `{"demands":[`+strings.Join(batch, ",")+`]}`)
	got := post(t, stalled.Handler(), "/step", `{"rounds":2}`).Body.String()
	last := stalled.results[len(stalled.results)-1]
	if last.Obstruction == nil {
		t.Fatal("the under-provisioned system did not stall: no certificate in the reply to compare")
	}
	asMap, err := json.Marshal(map[string]any{
		"round": 2, "stepped": 2, "last": last,
		"matched":   stalled.results[0].Matched + last.Matched,
		"unmatched": stalled.results[0].Unmatched + last.Unmatched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != string(asMap)+"\n" || !strings.Contains(got, `"Obstruction":{"Round":2,`) {
		t.Errorf("stalled /step reply\n got %s\nwant %s", got, asMap)
	}
}

// blockedWriter is a client that has stopped reading: Write reports that it
// was entered and then does not return until released.
type blockedWriter struct {
	header           http.Header
	entered, release chan struct{}
}

func (w *blockedWriter) Header() http.Header { return w.header }
func (w *blockedWriter) WriteHeader(int)     {}
func (w *blockedWriter) Write(p []byte) (int, error) {
	w.entered <- struct{}{}
	<-w.release
	return len(p), nil
}

// TestSlowReaderDoesNotHoldTheEngine: while one client's reply sits in a
// Write that does not return, the round clock and every other client go on.
// With replies encoded under the engine mutex StepRounds would wait for it.
func TestSlowReaderDoesNotHoldTheEngine(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	for _, req := range []struct{ path, body string }{
		{"/demand", `{"box":3,"video":0}`},
		{"/step", `{"rounds":1}`},
		{"/capacity", `{"box":2,"slots":1}`},
	} {
		w := &blockedWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
		served := make(chan struct{})
		go func() {
			defer close(served)
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
		}()
		<-w.entered
		stepped := make(chan error, 1)
		go func() {
			_, err := srv.StepRounds(1)
			stepped <- err
		}()
		select {
		case err := <-stepped:
			if err != nil {
				t.Fatalf("StepRounds beside a blocked %s reply: %v", req.path, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("StepRounds waited for a client that is not reading its %s reply", req.path)
		}
		close(w.release)
		<-served
	}
}
