package vod_test

// BenchmarkServeRound lives apart from bench_test.go because it needs
// internal/serve, which imports this package: only the external test package
// may import both.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	vod "repro"
	"repro/internal/serve"
)

// BenchmarkServeRound is the repository benchmark's wire-steady round as a
// Go benchmark: its system (800 boxes, u=1.5, c=8, T=40) behind a loopback
// HTTP server, and per iteration one batched POST /demand of 12 and one POST
// /step from one keep-alive client that reads each reply to its end. The
// engine's round is a few tens of microseconds of it; the rest is transport,
// JSON and whatever the daemon does to account for the round, which is what
// this bench is here to watch. Demands sweep boxes and videos round-robin: a
// box comes up again after 800/12 ≈ 67 rounds, by when its viewing (T+3
// rounds) is over, so every demand is admitted.
func BenchmarkServeRound(b *testing.B) {
	const boxes, perRound = 800, 12
	sys, err := vod.New(vod.Spec{
		Boxes: boxes, Upload: 1.5, Storage: 4, Stripes: 8, Replicas: 4,
		Duration: 40, Growth: 1.2, Resilient: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.New(sys, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	post := func(path string, body io.Reader) {
		resp, err := client.Post(ts.URL+path, "application/json", body)
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("POST %s: status %d, %v", path, resp.StatusCode, err)
		}
	}
	videos := sys.Catalog().M
	var body bytes.Buffer
	next := 0
	round := func() {
		body.Reset()
		body.WriteString(`{"demands":[`)
		for i := 0; i < perRound; i++ {
			if i > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, `{"box":%d,"video":%d}`, next%boxes, next%videos)
			next++
		}
		body.WriteString("]}")
		post("/demand", bytes.NewReader(body.Bytes()))
		post("/step", nil)
	}
	for r := 0; r < 80; r++ { // two cache windows, as the benchmark warms
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if rep := sys.Report(); rep.Admitted != rep.Demands || rep.Demands != int64(next) {
		b.Fatalf("%d demands posted, %d delivered, %d admitted: the sweep no longer keeps every box idle when its turn comes",
			next, rep.Demands, rep.Admitted)
	}
	b.ReportMetric(float64(sys.View().ActiveRequests()), "active_requests")
}
