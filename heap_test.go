package vod

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"testing"
)

// heapObjectBytes returns the bytes held by live heap objects after a
// full collection.
func heapObjectBytes() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// TestHeapPerBox gates resident memory the way the bench smoke gates
// allocations per round: it builds a Step benchmark's system, warms it,
// and holds the heap it keeps live to the ceiling committed in
// BENCH_step.json (steady_state_targets.max_heap_bytes). At 10⁶ boxes
// the figure is per box, where the static allocation and the per-box
// arrays dominate; near the threshold it is per live request, where the
// cache store and the matcher's lefts do.
func TestHeapPerBox(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10⁶-box system")
	}
	raw, err := os.ReadFile("BENCH_step.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Targets struct {
			MaxHeapBytes map[string]float64 `json:"max_heap_bytes"`
		} `json:"steady_state_targets"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec Spec
		gen  func() Generator
		warm int
		per  func(*System) (float64, string)
	}{
		{"MillionBoxes", boundedSpec(1_000_000), func() Generator { return &sweepArrivals{perRound: 100} }, 60,
			func(s *System) (float64, string) { return float64(s.View().NumBoxes()), "box" }},
		{"NearThreshold", nearThresholdSpec, func() Generator { return NewZipfWorkload(1, 0.5, 0.9) }, 80,
			func(s *System) (float64, string) { return float64(s.View().ActiveRequests()), "live_request" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := heapObjectBytes()
			sys, err := New(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			gen := tc.gen()
			for r := 0; r < tc.warm; r++ {
				if _, err := sys.Step(gen); err != nil {
					t.Fatal(err)
				}
			}
			held := float64(heapObjectBytes()) - float64(before)
			count, unit := tc.per(sys)
			runtime.KeepAlive(sys)
			key := tc.name + "_per_" + unit
			ceiling, ok := bench.Targets.MaxHeapBytes[key]
			if !ok {
				t.Fatalf("BENCH_step.json has no steady_state_targets.max_heap_bytes[%q]", key)
			}
			got := held / count
			t.Logf("heap %s: %.0f B per %s (%.1f MB over %.0f), ceiling %.0f", tc.name, got, unit, held/1e6, count, ceiling)
			if got > ceiling {
				t.Errorf("%s holds %.0f heap bytes per %s, over the committed ceiling %.0f", tc.name, got, unit, ceiling)
			}
		})
	}
}
