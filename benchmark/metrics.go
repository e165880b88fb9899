package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metricDecl is one metric of BENCHMARK.json. The smoke test checks that
// the file and these tables agree.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one from the untraced run. failed_share of the issue is the
// failed/attempted pair of the result line: a metric may never read 0.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"round_p50_us", "us", "lower", 0.25},
	{"round_p90_us", "us", "lower", 0.25},
	{"cpu_ms_per_round", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"ckpt_save_ms", "ms", "lower", 0.25},
	{"ckpt_load_ms", "ms", "lower", 0.25},
	{"ckpt_mb", "MB", "lower", 0.03},
}

// perLayer are the metrics of single layers, all from the traced run. A
// layer the workload does not pass through reads 0.
var perLayer = []metricDecl{
	{Name: "scenario.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.expand_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.events", Unit: "count", Better: "higher"},
	{Name: "scenario.dropped", Unit: "count", Better: "lower"},
	{Name: "trace.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.bytes", Unit: "bytes", Better: "lower"},
	{Name: "trace.replay_us_per_round", Unit: "us", Better: "lower"},
	{Name: "allocation.permutation_ms", Unit: "ms", Better: "lower"},
	{Name: "vod.new_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.step_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.step_max_us", Unit: "us", Better: "lower"},
	{Name: "core.pre_admit_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.pre_admit_share", Unit: "ratio", Better: "lower"},
	{Name: "core.post_admit_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.post_admit_share", Unit: "ratio", Better: "lower"},
	{Name: "core.live_requests_mean", Unit: "count", Better: "higher"},
	{Name: "core.ns_per_live_request", Unit: "ns", Better: "lower"},
	{Name: "core.matched_per_round", Unit: "count", Better: "higher"},
	{Name: "core.mean_utilization", Unit: "ratio", Better: "higher"},
	{Name: "core.admitted", Unit: "count", Better: "higher"},
	{Name: "core.rejected_busy", Unit: "count", Better: "lower"},
	{Name: "core.rejected_swarm", Unit: "count", Better: "lower"},
	{Name: "core.stall_request_rounds", Unit: "count", Better: "lower"},
	{Name: "core.obstructions", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_round", Unit: "count", Better: "lower"},
	{Name: "core.bytes_per_round", Unit: "bytes", Better: "lower"},
	{Name: "core.stage_parallel_us", Unit: "us", Better: "lower"},
	{Name: "core.stage_serial_tail_us", Unit: "us", Better: "lower"},
	{Name: "core.unclocked_us", Unit: "us", Better: "lower"},
	{Name: "bipartite.probe_augment_us", Unit: "us", Better: "lower"},
	{Name: "bipartite.probe_matched", Unit: "count", Better: "higher"},
	{Name: "serve.demand_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.step_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.step_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.demand_handler_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.step_handler_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.transport_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.codec_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.wire_over_inprocess", Unit: "ratio", Better: "lower"},
	{Name: "serve.conn_reused_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.request_bytes_per_round", Unit: "bytes", Better: "lower"},
	{Name: "serve.response_bytes_per_round", Unit: "bytes", Better: "lower"},
	{Name: "serve.http_errors", Unit: "count", Better: "lower"},
	{Name: "serve.scrape_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.scrape_growth", Unit: "ratio", Better: "lower"},
	{Name: "ckpt.save_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "ckpt.load_minus_new_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.roundtrip_ok", Unit: "count", Better: "higher"},
	{Name: "vodserve.start_ms", Unit: "ms", Better: "lower"},
	{Name: "vodserve.shutdown_ms", Unit: "ms", Better: "lower"},
	{Name: "vodserve.alloc_bytes_per_round", Unit: "bytes", Better: "lower"},
	{Name: "vodserve.round_p50_us", Unit: "us", Better: "lower"},
	{Name: "harness.traced_rounds_per_s", Unit: "1/s", Better: "higher"},
	{Name: "harness.spans", Unit: "count", Better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against a declaration table.
type metricSet struct {
	values map[string]metric
}

func newMetricSet(decls []metricDecl) *metricSet {
	ms := &metricSet{values: make(map[string]metric, len(decls))}
	for _, d := range decls {
		ms.values[d.Name] = metric{Unit: d.Unit}
	}
	return ms
}

// set records a value. An undeclared name or a non-finite value is a bug in
// the harness, so it panics instead of printing a malformed result.
func (ms *metricSet) set(name string, v float64) {
	m, ok := ms.values[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("benchmark: metric %s is %v", name, v))
	}
	m.Value = v
	ms.values[name] = m
}

// --- order statistics ---

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the "exclusive" method), which is what the driver uses for spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		v := 0.0
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// nsToUS converts a slice of nanosecond durations to microseconds.
func nsToUS(ns []int64) []float64 {
	us := make([]float64, len(ns))
	for i, d := range ns {
		us[i] = float64(d) / 1e3
	}
	return us
}

// --- /proc readers (the engine process is the harness itself in-process,
// the vodserve child on the wire) ---

// cpuSeconds is the CPU time pid has used so far, user and system, to the
// microsecond or better: /proc/<pid>/stat counts in 10 ms ticks, which a
// tenth of a timed section would quantize to a handful of values. The
// harness asks the kernel about itself (and allocates nothing doing so,
// inside a timed section); a child is the sum of its threads' run times.
func cpuSeconds(pid int) (float64, error) {
	if pid == os.Getpid() {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, err
		}
		return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
	}
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no /proc/%d/task/*/schedstat (%v)", pid, err)
	}
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("malformed %s", t)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// procPeakRSSMB is the VmHWM of pid in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
