package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's schema; BENCHMARK.json lists the same names and
// units (bench_test.go keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run. Every workload reports every
// metric, each defined on every workload (README.md spells out what an
// "operation" is per workload), so none of them is ever zero. The
// simulated packet latency is not among them: it is a property of the
// seed's input rather than of the host, so it is reported per layer and
// guarded exactly by the Results digest.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_cycles_per_cpu_s", "cycles/cpu_s"},
	{"allocs_per_kcycle", "count"},
	{"live_heap_mb", "MB"},
	{"op_p50_s", "s"},
	{"op_p90_s", "s"},
}

// perLayer is printed by every traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"adaptnoc.newsim_s", "s"},
	{"adaptnoc.run_us_per_cycle", "us/cycle"},
	{"adaptnoc.run_ns_per_pkt", "ns/pkt"},
	{"adaptnoc.restore_ms", "ms"},
	{"noc.router_ticks_per_cycle", "count"},
	{"noc.channel_ticks_per_cycle", "count"},
	{"noc.router_skip_ratio", "ratio"},
	{"noc.channel_skip_ratio", "ratio"},
	{"noc.pool_reuse_ratio", "ratio"},
	{"system.delivered_pkts_per_kcycle", "count"},
	{"system.retired_instr_per_kcycle", "count"},
	{"system.pkt_latency_cycles", "cycles"},
	{"traffic.decode_ms", "ms"},
	{"traffic.decode_mb_per_s", "MB/s"},
	{"traffic.trace_workload_ms", "ms"},
	{"core.decide_calls", "count"},
	{"core.decide_us", "us"},
	{"fabric.reconfigs", "count"},
	{"snap.full_ms", "ms"},
	{"snap.full_kb", "KB"},
	{"snap.delta_ms", "ms"},
	{"snap.delta_kb", "KB"},
	{"snap.delta_size_ratio", "ratio"},
	{"snap.delta_speedup", "ratio"},
	{"snap.apply_chain_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.fetch_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.overhead_ms", "ms"},
	{"serve.jobs_per_s", "1/s"},
	{"bench.recover_s", "s"},
	{"bench.traced_overhead", "ratio"},
}

// report collects one run's metrics, its operation tally and the human
// readable lines printed ahead of the result object.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	lines     []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// note adds a human-readable line to the run's output.
func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note("FAIL %v", err)
	}
}

// check counts one correctness check as an operation.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf(format, args...))
}

// metricValue is one entry of the result object's "metrics" map.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish assembles the result object for the given metric table. An
// end-to-end metric the workload did not set, or any value that is not a
// finite number, is a benchmark bug and fails the run.
func (r *report) finish(defs []metricDef, required bool) result {
	out := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && required {
			r.check(false, "metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is %v", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out.Attempted = r.attempted
	out.Failed = r.failed
	out.Correct = r.failed == 0 && r.attempted > 0
	return out
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to be more than one or two outliers.
const tailBeyond = 10

// tailPercentile returns the highest percentile, capped at p90, that has
// at least tailBeyond samples strictly above it (nearest rank), and the
// percentile it is. ok is false when the sample is too small to have one.
func tailPercentile(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(0.9*float64(n))) - 1
	if limit := n - 1 - tailBeyond; idx > limit {
		idx = limit
	}
	return s[idx], 100 * float64(idx+1) / float64(n), true
}

// setLatency reports the op_p50_s / op_p90_s pair from per-operation
// latencies in seconds, with the sample count and the percentile used.
func (r *report) setLatency(xs []float64) {
	r.set("op_p50_s", median(xs))
	v, pct, ok := tailPercentile(xs)
	r.check(ok, "only %d operation samples; the tail needs more than %d", len(xs), tailBeyond)
	r.set("op_p90_s", v)
	r.note("op samples=%d tail=p%.1f", len(xs), pct)
}

// digest is the SHA-256 of a Results JSON document (json.Marshal, as
// serve stores it), the identity an A/B compares to confirm that a
// speed-only change left every simulated statistic alone.
func digest(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}
