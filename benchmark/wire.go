package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	vod "repro"
	"repro/internal/serve"
	"repro/internal/trace"
)

const (
	daemonStartDeadline = 20 * time.Second
	daemonStopDeadline  = 10 * time.Second
	requestTimeout      = 30 * time.Second
	scrapeEvery         = 10   // wire-ops: GET /metrics every this many rounds
	checkpointEvery     = 1000 // wire-ops: POST /checkpoint every this many rounds
)

// endpoint is a serving daemon the client talks to: the real vodserve child
// (untraced run) or serve's handler hosted in this process behind the
// timing middleware (traced run).
type endpoint struct {
	base string
	pid  int // the engine process
	stop func() (shutdown time.Duration, err error)
}

// buildDaemon compiles cmd/vodserve into dir and returns the binary's path.
// Building is not set-up: setup_s starts after it.
func buildDaemon(ctx context.Context, dir string) (string, error) {
	bin := dir + "/vodserve"
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/vodserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build vodserve: %v\n%s", err, out)
	}
	return bin, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs vodserve on a free loopback port and waits for /healthz.
// The child is killed when ctx is cancelled (harness error or signal).
func startDaemon(ctx context.Context, bin, scenarioPath, logPath string) (*endpoint, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.CommandContext(ctx, bin, "-scenario", scenarioPath, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()

	ep := &endpoint{base: "http://" + addr, pid: cmd.Process.Pid}
	ep.stop = func() (time.Duration, error) {
		defer logf.Close()
		t := time.Now()
		_ = cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: the wait below reports it
		select {
		case <-exited:
			return time.Since(t), nil
		case <-time.After(daemonStopDeadline):
			_ = cmd.Process.Kill()
			<-exited
			return time.Since(t), errors.New("vodserve ignored SIGTERM; killed")
		}
	}

	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(ep.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return ep, time.Since(t0), nil
			}
		}
		select {
		case werr := <-exited:
			logf.Close()
			log, _ := os.ReadFile(logPath)
			return nil, 0, fmt.Errorf("vodserve exited during start-up: %v\n%s", werr, log)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(t0) > daemonStartDeadline {
			_, _ = ep.stop()
			return nil, 0, errors.New("vodserve did not answer /healthz before the start-up deadline")
		}
	}
}

// startHosted serves sys through serve's own handler on a loopback
// listener in this process. The middleware records one span per request
// around the handler, as a child of the client's open request span.
func startHosted(sys *vod.System, sp *spans) (*endpoint, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(sys, false)
	inner := srv.Handler()
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sp.begin(handlerSpanName(r.URL.Path), sp.client.Load(), int(sp.round.Load()))
		inner.ServeHTTP(w, r)
		sp.end(id)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(l) // returns ErrServerClosed from the Shutdown below
	}()
	return &endpoint{
		base: "http://" + l.Addr().String(),
		pid:  os.Getpid(),
		stop: func() (time.Duration, error) {
			t := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), daemonStopDeadline)
			defer cancel()
			err := hs.Shutdown(ctx)
			<-done
			srv.Close()
			return time.Since(t), err
		},
	}, nil
}

func handlerSpanName(path string) string {
	switch path {
	case "/demand":
		return "serve.demand_handler"
	case "/step":
		return "serve.step_handler"
	case "/metrics":
		return "serve.scrape_handler"
	case "/checkpoint":
		return "serve.checkpoint_handler"
	}
	return "serve.other_handler"
}

// wireClient is the one closed-loop client: one goroutine, one keep-alive
// connection, every response body read to its end before the next request.
type wireClient struct {
	ctx  context.Context
	base string
	hc   *http.Client
	sp   *spans

	body    bytes.Buffer // request body under construction, reused
	scratch bytes.Buffer // response body of everything but /step, reused

	latNS    []int64  // round-trip latency per round
	stepBody [][]byte // raw /step reply per round, carved from arena and parsed after the timed section
	arena    []byte

	requests, httpErrors int64
	reqBytes, respBytes  int64
	conns, reusedConns   int64
	ckptPath             string // wire-ops: target of the periodic /checkpoint
	clientTrace          *httptrace.ClientTrace
}

func newWireClient(ctx context.Context, base string, sp *spans, capacity int, ckptPath string) *wireClient {
	c := &wireClient{
		ctx: ctx, base: base, sp: sp, ckptPath: ckptPath,
		hc: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
		latNS:    make([]int64, 0, capacity),
		stepBody: make([][]byte, 0, capacity),
		arena:    make([]byte, 0, capacity*512),
	}
	if sp != nil {
		c.clientTrace = &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
			c.conns++
			if info.Reused {
				c.reusedConns++
			}
		}}
	}
	return c
}

func (c *wireClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply into dst. A transport
// error or a non-200 status is a failed operation.
func (c *wireClient) do(method, path string, body []byte, dst *bytes.Buffer, spanName string, round int) error {
	ctx := c.ctx
	if c.clientTrace != nil {
		ctx = httptrace.WithClientTrace(ctx, c.clientTrace)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.requests++
	c.reqBytes += int64(len(body))
	id := c.sp.begin(spanName, -1, round)
	if c.sp != nil {
		c.sp.client.Store(id)
		c.sp.round.Store(int32(round))
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		dst.Reset()
		_, err = dst.ReadFrom(resp.Body)
		resp.Body.Close()
		c.respBytes += int64(dst.Len())
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s %s: %s %s", method, path, resp.Status, bytes.TrimSpace(dst.Bytes()))
		}
	}
	c.sp.end(id)
	if err != nil {
		c.httpErrors++
		if c.ctx.Err() == nil {
			err = &sutError{err}
		}
	}
	return err
}

func appendDemand(b *bytes.Buffer, e trace.Event) {
	b.WriteString(`{"box":`)
	b.WriteString(strconv.Itoa(e.Box))
	b.WriteString(`,"video":`)
	b.WriteString(strconv.Itoa(int(e.Video)))
	b.WriteByte('}')
}

var stepRequest = []byte(`{"rounds":1}`)

// round plays one engine round over the wire: the round's demands (one
// batch, or one post each when single is set), the ops traffic when ops is
// set, then POST /step. It returns the first error but always finishes the
// round's latency sample.
func (c *wireClient) round(round int, events []trace.Event, ops bool) error {
	t0 := time.Now()
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if ops {
		for _, e := range events {
			c.body.Reset()
			appendDemand(&c.body, e)
			note(c.do(http.MethodPost, "/demand", c.body.Bytes(), &c.scratch, "serve.demand_rtt", round))
		}
		if round%scrapeEvery == 0 {
			note(c.do(http.MethodGet, "/metrics", nil, &c.scratch, "serve.scrape_rtt", round))
		}
		if round%checkpointEvery == 0 {
			note(c.checkpoint(c.ckptPath, round))
		}
	} else if len(events) > 0 {
		c.body.Reset()
		c.body.WriteString(`{"demands":[`)
		for i, e := range events {
			if i > 0 {
				c.body.WriteByte(',')
			}
			appendDemand(&c.body, e)
		}
		c.body.WriteString(`]}`)
		note(c.do(http.MethodPost, "/demand", c.body.Bytes(), &c.scratch, "serve.demand_rtt", round))
	}
	note(c.do(http.MethodPost, "/step", stepRequest, &c.scratch, "serve.step_rtt", round))
	lat := time.Since(t0)

	// Keep the raw reply; it is decoded after the timed section.
	start := len(c.arena)
	c.arena = append(c.arena, c.scratch.Bytes()...)
	c.stepBody = append(c.stepBody, c.arena[start:len(c.arena):len(c.arena)])
	c.latNS = append(c.latNS, int64(lat))
	return first
}

// checkpoint asks the daemon to write its state to path.
func (c *wireClient) checkpoint(path string, round int) error {
	body, err := json.Marshal(map[string]string{"path": path})
	if err != nil {
		return err
	}
	return c.do(http.MethodPost, "/checkpoint", body, &c.scratch, "serve.checkpoint_rtt", round)
}

// getJSON fetches path and decodes the reply into v.
func (c *wireClient) getJSON(path string, v any) error {
	if err := c.do(http.MethodGet, path, nil, &c.scratch, "serve.other_rtt", 0); err != nil {
		return err
	}
	return json.Unmarshal(c.scratch.Bytes(), v)
}

// stepResults decodes the kept /step replies, one StepResult per round.
func (c *wireClient) stepResults() ([]vod.StepResult, error) {
	out := make([]vod.StepResult, len(c.stepBody))
	for i, raw := range c.stepBody {
		var reply struct {
			Last *vod.StepResult `json:"last"`
		}
		if err := json.Unmarshal(raw, &reply); err != nil || reply.Last == nil {
			return nil, &sutError{fmt.Errorf("round %d: undecodable /step reply %q", i+1, raw)}
		}
		out[i] = *reply.Last
	}
	return out, nil
}

// corpusCursor hands out a corpus round by round.
type corpusCursor struct {
	events []trace.Event
	pos    int
}

// next returns the events of round (the corpus is sorted by round).
func (cc *corpusCursor) next(round int) []trace.Event {
	for cc.pos < len(cc.events) && cc.events[cc.pos].Round < round {
		cc.pos++
	}
	start := cc.pos
	for cc.pos < len(cc.events) && cc.events[cc.pos].Round == round {
		cc.pos++
	}
	return cc.events[start:cc.pos]
}
