package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptnoc"
	"adaptnoc/internal/exp"
	"adaptnoc/internal/serve"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the function must sort
		}
		return xs
	}
	cases := []struct {
		n       int
		v, pct  float64
		samples bool
	}{
		{n: 10, samples: false}, // no sample has ten above it
		{n: 11, v: 1, pct: 100.0 / 11, samples: true},
		{n: 50, v: 40, pct: 80, samples: true},   // p80: ten beyond
		{n: 100, v: 90, pct: 90, samples: true},  // exactly p90, ten beyond
		{n: 200, v: 180, pct: 90, samples: true}, // capped at p90
	}
	for _, c := range cases {
		v, pct, ok := tailPercentile(seq(c.n))
		if ok != c.samples || v != c.v || pct != c.pct {
			t.Errorf("n=%d: got (%v, %v, %v), want (%v, %v, %v)", c.n, v, pct, ok, c.v, c.pct, c.samples)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestDigestCheck pins the determinism check: equal Results documents
// pass, and one changed statistic fails the run.
func TestDigestCheck(t *testing.T) {
	res := adaptnoc.Results{Design: adaptnoc.DesignBaseline, Cycles: 1000,
		Apps: []adaptnoc.AppResult{{Profile: "bfs", DeliveredPackets: 7, AvgTotalLatency: 12.5}}}
	doc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	same := sameDigest{what: "test"}
	same.check(r, 0, doc)
	same.check(r, 1, doc)
	if r.failed != 0 {
		t.Fatalf("identical documents failed the check: %v", r.lines)
	}
	res.Apps[0].DeliveredPackets++
	changed, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if digest(changed) == digest(doc) {
		t.Fatal("a changed statistic left the digest unchanged")
	}
	same.check(r, 2, changed)
	if r.failed != 1 {
		t.Fatalf("a changed document passed the check (failed=%d)", r.failed)
	}
	if out := r.finish(endToEnd, false); out.Correct {
		t.Fatal("a run with a failed check reports correct")
	}
}

// TestSchemaMatchesBenchmarkJSON keeps the metric tables, the workload
// list and BENCHMARK.json in step.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", what, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json %s (%s)", what, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
}

// TestRepeatShare re-derives serve-jobs' repeat share from the quick
// experiment suite: it hands every non-local unit an evaluator that
// records each request key and returns placeholder Results, and counts
// the evaluations whose key an earlier one already had. Local units do
// not go through the evaluator and so are never cached. Nothing is
// simulated through the evaluator, but some units train a policy
// locally, so this takes about a minute.
func TestRepeatShare(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the quick experiment suite")
	}
	units, err := exp.Units(exp.SuiteParams{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[string]bool)
	total := 0
	o := exp.QuickOptions()
	o.Eval = func(_ context.Context, cfg adaptnoc.Config, cycles, maxCycles adaptnoc.Cycle) (adaptnoc.Results, error) {
		key, err := serve.RequestKey(serve.Request{Config: cfg, Cycles: cycles, MaxCycles: maxCycles}.Canonical())
		if err != nil {
			return adaptnoc.Results{}, err
		}
		mu.Lock()
		total++
		seen[key] = true
		mu.Unlock()
		res := adaptnoc.Results{Design: cfg.Design, Cycles: cycles + maxCycles}
		for _, a := range cfg.Apps {
			res.Apps = append(res.Apps, adaptnoc.AppResult{Profile: a.Profile, ExecTime: 1, DeliveredPackets: 1, AvgTotalLatency: 1})
		}
		return res, nil
	}
	for _, u := range units {
		if u.Local {
			continue
		}
		if _, err := u.Run(o); err != nil {
			t.Fatalf("unit %s: %v", u.Key, err)
		}
	}
	if repeats := total - len(seen); repeats != repeatNum || total != repeatDen {
		t.Errorf("the quick suite repeats %d of %d evaluations; serve-jobs repeats %d of %d", repeats, total, repeatNum, repeatDen)
	}
}

// TestIsRepeat checks that every prefix of a client's requests holds the
// repeat share, rounded down, and that the first request is never one.
func TestIsRepeat(t *testing.T) {
	if isRepeat(0) {
		t.Error("the first request is a repeat")
	}
	repeats := 0
	for i := 0; i < 3*repeatDen; i++ {
		if isRepeat(i) {
			repeats++
		}
		if want := (i + 1) * repeatNum / repeatDen; repeats != want {
			t.Fatalf("after %d requests: %d repeats, want %d", i+1, repeats, want)
		}
	}
}

// smokeSizes shrink every operation so each workload finishes in about a
// second while keeping enough steps for the tail percentile, control
// epochs inside every mixed-adapt window and one checkpoint rebase.
var smokeSizes = sizes{
	warmup:       1000,
	mixedEpoch:   2000,
	mixedWindow:  12000,
	slice:        500,
	traceCycles:  4000,
	ckptInterval: 100,
	ckptPeriods:  adaptnoc.DefaultMaxChain + 6,
	verifyCycles: 200,
	jobCycles:    400,
	jobEpoch:     400,
	builds:       2,
	setups:       2,
}

// exercised lists, per workload, the per-layer metrics its traced run
// must report non-zero: the layers README.md says it exercises.
var exercised = map[string][]string{
	"mixed-adapt": {"adaptnoc.newsim_s", "adaptnoc.run_us_per_cycle", "adaptnoc.run_ns_per_pkt",
		"noc.router_ticks_per_cycle", "noc.channel_ticks_per_cycle", "noc.router_skip_ratio",
		"noc.channel_skip_ratio", "noc.pool_reuse_ratio", "system.delivered_pkts_per_kcycle",
		"system.retired_instr_per_kcycle", "system.pkt_latency_cycles", "core.decide_calls",
		"core.decide_us", "bench.traced_overhead"},
	"trace-replay": {"adaptnoc.newsim_s", "adaptnoc.run_us_per_cycle", "adaptnoc.run_ns_per_pkt",
		"noc.router_ticks_per_cycle", "noc.pool_reuse_ratio", "system.delivered_pkts_per_kcycle",
		"system.pkt_latency_cycles", "traffic.decode_ms", "traffic.decode_mb_per_s",
		"traffic.trace_workload_ms", "bench.traced_overhead"},
	"ckpt-steady": {"adaptnoc.newsim_s", "adaptnoc.run_us_per_cycle", "adaptnoc.restore_ms",
		"noc.router_skip_ratio", "noc.channel_skip_ratio", "snap.full_ms", "snap.full_kb",
		"snap.delta_ms", "snap.delta_kb", "snap.delta_size_ratio", "snap.delta_speedup",
		"snap.apply_chain_ms", "bench.recover_s", "bench.traced_overhead"},
	"serve-jobs": {"adaptnoc.newsim_s", "adaptnoc.run_us_per_cycle", "serve.submit_ms", "serve.wait_ms", "serve.fetch_ms", "serve.cache_hit_ratio",
		"serve.jobs_per_s", "bench.traced_overhead"},
}

// TestSmokeWorkloads runs every workload briefly, untraced and traced:
// every operation and check must pass, every metric of the mode must be
// reported, the end-to-end ones non-zero, and each layer the workload
// exercises must show in its traced metrics.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			p := params{seed: 7, traced: traced, sizes: smokeSizes}
			if name == "serve-jobs" {
				p.window = 3 * time.Second // enough jobs for the tail percentile, even under -race
			}
			if exercised[name] == nil {
				t.Errorf("%s: no per-layer metrics listed as exercised", name)
			}
			r := runWorkload(run, p)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			out := r.finish(defs, !traced)
			if !out.Correct {
				t.Errorf("%s traced=%v: %d of %d operations failed:\n%s", name, traced, out.Failed, out.Attempted, strings.Join(r.lines, "\n"))
			}
			for _, d := range defs {
				if _, ok := r.values[d.name]; !ok && !traced {
					t.Errorf("%s: end-to-end metric %s not reported", name, d.name)
				}
				if !traced && out.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, out.Metrics[d.name].Value)
				}
			}
			if traced {
				for _, m := range exercised[name] {
					if v := out.Metrics[m].Value; v <= 0 {
						t.Errorf("%s: per-layer metric %s = %v, want > 0", name, m, v)
					}
				}
			}
		}
	}
}
