package vod_test

import (
	"fmt"
	"log"

	vod "repro"
)

// A homogeneous fleet of 200 boxes, each uploading 1.5× the video bitrate
// and storing 4 videos, serves a Zipf workload. Stripes and catalog size are
// derived: with the default k = 4 replicas per stripe the system stores
// m = d·n/k = 200 videos. No obstruction appears, as Theorem 1 predicts, and
// the start-up delay sits at its intrinsic minimum of 3 rounds.
func ExampleNew() {
	sys, err := vod.New(vod.Spec{
		Boxes:   200,
		Upload:  1.5,
		Storage: 4,
		Growth:  1.2, // swarms may grow 20% per round
		Seed:    42,
	})
	if err != nil {
		log.Fatal(err)
	}
	cat := sys.Catalog()
	fmt.Printf("catalog: %d videos × %d stripes, %d rounds\n", cat.M, cat.C, cat.T)

	// Users arrive with probability 0.3 per idle box per round; popularity
	// follows Zipf(0.9). Retry keeps refused demands queued, so the
	// start-up delay includes waiting.
	rep, err := sys.Run(vod.WithRetry(vod.NewZipfWorkload(7, 0.3, 0.9)), 600)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed viewings: %d\n", rep.CompletedViewings)
	fmt.Printf("admitted demands: %d of %d\n", rep.Admitted, rep.Demands)
	fmt.Printf("mean utilization: %.1f%%\n", 100*rep.MeanUtilization)
	fmt.Printf("start-up delay: mean %.2f rounds\n", rep.StartupDelay.Mean)
	fmt.Printf("obstructions: %d\n", len(rep.Obstructions))
	// Output:
	// catalog: 200 videos × 4 stripes, 100 rounds
	// completed viewings: 1001
	// admitted demands: 1201 of 1202
	// mean utilization: 62.8%
	// start-up delay: mean 3.00 rounds
	// obstructions: 0
}

// The whole fleet piles onto one video at the maximal admissible growth
// µ = 1.5. With the paper's preloading the swarm feeds itself through its
// playback caches; with sourcing only, the 4 replica holders of each stripe
// saturate and nearly every request stalls. The baseline runs resilient, so
// it limps on and counts its stalls instead of halting.
func ExampleNew_flashCrowd() {
	for _, sourcingOnly := range []bool{false, true} {
		sys, err := vod.New(vod.Spec{
			Boxes:        300,
			Upload:       2.0,
			Storage:      2,
			Stripes:      4,
			Replicas:     4,
			Duration:     40,
			Growth:       1.5,
			SourcingOnly: sourcingOnly,
			Resilient:    sourcingOnly,
			Seed:         1,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sys.Run(vod.NewFlashCrowd(0), 120)
		if err != nil {
			log.Fatal(err)
		}
		label := "swarming"
		if sourcingOnly {
			label = "sourcing-only"
		}
		fmt.Printf("%s: max swarm %d, completed %d, stalls %d, obstructions %d\n",
			label, rep.MaxSwarm, rep.CompletedViewings, rep.Stalls, len(rep.Obstructions))
	}
	// Output:
	// swarming: max swarm 303, completed 604, stalls 0, obstructions 0
	// sourcing-only: max swarm 300, completed 62, stalls 113519, obstructions 112
}

// A bimodal fleet of rich (u = 3.0) and poor (u = 0.5) boxes, with storage
// proportional to upload. The poor boxes cannot upload one stream each, so
// the Section 4 construction relays their requests through capacity
// reserved on rich boxes. The plan checks Theorem 2's preconditions; the
// relayed system then serves demand that hits the poor boxes first.
func ExampleHeteroPlanFor() {
	const (
		n     = 120
		uStar = 1.5
		mu    = 1.05
	)
	pop := vod.Bimodal(n, 0.7, 3.0, 0.5, 2.0)
	plan, err := vod.HeteroPlanFor(pop, uStar, mu)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("average upload %.2f, deficit ∆(1) = %.1f\n", plan.Params.AvgUpload(), plan.Deficit1)
	fmt.Printf("necessary u > 1 + ∆(1)/n: %v, compensatable: %v, balanced: %v\n",
		plan.NecessaryOK, plan.Compensatable, plan.Balanced)
	fmt.Printf("Theorem 2 plan: c = %d, k = %d\n", plan.C, plan.K)

	sys, err := vod.New(vod.Spec{
		Boxes:    n,
		Uploads:  pop.Uploads,
		Storages: pop.Storage,
		UStar:    uStar,
		Growth:   mu,
		Duration: 60,
		Replicas: 3, // practical replication; the theorem's k is far larger
		Seed:     9,
	})
	if err != nil {
		log.Fatal(err)
	}
	cat := sys.Catalog()
	fmt.Printf("relayed catalog: %d videos × %d stripes\n", cat.M, cat.C)

	rep, err := sys.Run(vod.NewPoorFirst(uStar), 240)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed viewings: %d, obstructions: %d\n", rep.CompletedViewings, len(rep.Obstructions))
	fmt.Printf("start-up delay: min %v, max %v rounds\n", rep.StartupDelay.Min, rep.StartupDelay.Max)
	// Output:
	// average upload 2.25, deficit ∆(1) = 18.0
	// necessary u > 1 + ∆(1)/n: true, compensatable: true, balanced: true
	// Theorem 2 plan: c = 25, k = 18877
	// relayed catalog: 180 videos × 25 stripes
	// completed viewings: 360, obstructions: 0
	// start-up delay: min 4, max 6 rounds
}
