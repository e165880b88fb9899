// Command vodserve runs a video system as a long-lived serving daemon:
// demands stream in over HTTP, rounds advance on request (POST /step) or
// on a timer (-tick), and the full engine state can be checkpointed and
// restored across restarts with bit-identical continuation.
//
// Examples:
//
//	vodserve -n 200 -u 1.5 -addr :8080                # manual stepping
//	vodserve -n 200 -u 1.5 -tick 500ms                # one round per 500ms
//	vodserve -restore state.ckpt -addr :8080          # resume a checkpoint
//	vodserve -scenario spec.yaml                      # system from a scenario spec
//	vodserve -n 200 -u 1.5 -checkpoint-every 100 \
//	         -checkpoint-keep 3 -checkpoint-dir ckpts # periodic auto-checkpoints
//
//	curl -X POST localhost:8080/demand -d '{"box":3,"video":0}'
//	curl -X POST localhost:8080/step -d '{"rounds":10}'
//	curl -X POST localhost:8080/checkpoint -d '{"path":"state.ckpt"}'
//	curl localhost:8080/metrics
//
// The daemon defaults to resilient mode: an infeasible round produces an
// obstruction certificate in /metrics and stalls the affected requests
// instead of killing the server.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	vod "repro"
	"repro/internal/scenario"
	"repro/internal/serve"
)

func main() {
	var (
		n         = flag.Int("n", 100, "number of boxes")
		u         = flag.Float64("u", 1.5, "normalized upload capacity (homogeneous)")
		d         = flag.Float64("d", 4, "storage per box in videos")
		c         = flag.Int("c", 0, "stripes per video (0 = derive from Theorem 1/2)")
		k         = flag.Int("k", 4, "replicas per stripe")
		duration  = flag.Int("T", 100, "video duration in rounds")
		mu        = flag.Float64("mu", 1.2, "maximal swarm growth per round")
		heteroP   = flag.Float64("hetero", 0, "poor-box fraction (0 = homogeneous); poor u=0.5, rich u=3.0")
		uStar     = flag.Float64("ustar", 0, "deficiency threshold u* (activates relaying)")
		seed      = flag.Uint64("seed", 1, "allocation seed")
		resilient = flag.Bool("resilient", true, "stall through obstructions instead of halting")
		addr      = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		tick      = flag.Duration("tick", 0, "auto-advance one round per interval (0 = step via POST /step only)")
		restore   = flag.String("restore", "", "restore state from this checkpoint file (spec flags are ignored)")
		scenPath  = flag.String("scenario", "", "build the system from a scenario spec (YAML/JSON) instead of the -n/-u/… flags; stream its corpus with vodgen -post")
		ckptEvery = flag.Int("checkpoint-every", 0, "write an auto-checkpoint every N rounds (0 = off)")
		ckptKeep  = flag.Int("checkpoint-keep", 3, "how many auto-checkpoints to retain (oldest pruned)")
		ckptDir   = flag.String("checkpoint-dir", "checkpoints", "directory for auto-checkpoints")
	)
	flag.Parse()

	// An explicitly set -mu survives the heterogeneous defaults (same
	// rule as vodsim): only flags the user did not pass are defaulted.
	muSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "mu" {
			muSet = true
		}
	})

	var (
		sys      *vod.System
		err      error
		restored bool
	)
	if *restore != "" {
		f, ferr := os.Open(*restore)
		if ferr != nil {
			log.Fatalf("vodserve: %v", ferr)
		}
		sys, err = vod.LoadCheckpoint(f)
		f.Close()
		if err != nil {
			log.Fatalf("vodserve: restore %s: %v", *restore, err)
		}
		restored = true
	} else if *scenPath != "" {
		sc, err := scenario.ParseFile(*scenPath)
		if err != nil {
			log.Fatalf("vodserve: %v", err)
		}
		scSpec := sc.VodSpec(func() uint64 {
			seedSet := false
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "seed" {
					seedSet = true
				}
			})
			if seedSet {
				return *seed
			}
			return sc.Seed
		}())
		sys, err = vod.New(scSpec)
		if err != nil {
			log.Fatalf("vodserve: %v", err)
		}
		log.Printf("vodserve: system from scenario %s (%d rounds of corpus; stream with vodgen -spec %s -post)",
			sc.Name, sc.TotalRounds(), *scenPath)
	} else {
		spec := vod.Spec{
			Boxes:     *n,
			Upload:    *u,
			Storage:   *d,
			Stripes:   *c,
			Replicas:  *k,
			Duration:  *duration,
			Growth:    *mu,
			Resilient: *resilient,
			Seed:      *seed,
		}
		if *heteroP > 0 {
			pop := vod.Bimodal(*n, 1-*heteroP, 3.0, 0.5, 2.0)
			spec.Uploads = pop.Uploads
			spec.Storages = pop.Storage
			spec.UStar = *uStar
			if spec.UStar == 0 {
				spec.UStar = 1.5
			}
			if !muSet {
				spec.Growth = 1.05
			}
		}
		sys, err = vod.New(spec)
		if err != nil {
			log.Fatalf("vodserve: %v", err)
		}
	}

	srv := serve.New(sys, restored)
	if *ckptEvery > 0 {
		if err := srv.EnableAutoCheckpoint(*ckptDir, *ckptEvery, *ckptKeep); err != nil {
			log.Fatalf("vodserve: %v", err)
		}
		log.Printf("vodserve: auto-checkpointing every %d rounds to %s (keeping %d)",
			*ckptEvery, *ckptDir, *ckptKeep)
	}
	spec := sys.Spec()
	cat := sys.Catalog()
	log.Printf("vodserve: n=%d catalog m=%d c=%d T=%d µ=%.2f round=%d restored=%v",
		spec.Boxes, cat.M, cat.C, cat.T, spec.Growth, sys.Round(), restored)

	// Serve until SIGINT/SIGTERM, then stop the round clock and drain
	// in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var ticking sync.WaitGroup // the -tick loop, if any
	if *tick > 0 {
		ticking.Add(1)
		go func() {
			defer ticking.Done()
			if err := srv.Tick(ctx, *tick); err != nil {
				log.Printf("vodserve: round clock stopped: %v", err)
			}
		}()
		log.Printf("vodserve: auto-advancing one round per %v", *tick)
	}
	httpSrv := newHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("vodserve: listening on %s", *addr)
	select {
	case err := <-errc:
		log.Fatalf("vodserve: %v", err)
	case <-ctx.Done():
	}
	log.Printf("vodserve: shutting down")
	ticking.Wait()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("vodserve: shutdown: %v", err)
	}
}

// Connection timeouts. Without them a client that sends its request
// headers slowly, or parks a keep-alive connection, holds a socket and a
// goroutine for as long as it likes. Neither bounds a request once its
// headers are in: a long /step or /checkpoint runs to its end.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the daemon's HTTP server for h on addr.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
