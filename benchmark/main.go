// Command benchmark is the repository's performance benchmark: one
// command that runs a workload, checks its outputs, and prints every
// end-to-end metric (untraced run) or every per-layer metric (traced run)
// by name and unit. README.md describes the workloads, the metrics and how
// to A/B two commits; run.sh builds and runs it.
//
//	benchmark --workload mixed-adapt --seed 1 --seconds 20 --trace 0
//	benchmark --workload all --seed 1 --seconds 20
//
// The last line of a run's output is its result object
// {"correct", "attempted", "failed", "metrics"}; --workload all prints one
// run after another. Any failed operation or correctness check makes the
// exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// sizes fixes how much simulated work one operation of each workload is.
type sizes struct {
	warmup       int64 // network warm-up cycles before a timed window
	mixedEpoch   int64 // mixed-adapt control epoch
	mixedWindow  int64 // mixed-adapt timed cycles per operation
	slice        int64 // cycles per timed step (the latency sample)
	traceCycles  int64 // cycles recorded into the trace-replay input
	ckptInterval int64 // ckpt-steady cycles between checkpoints
	ckptPeriods  int64 // ckpt-steady checkpoint intervals per operation
	verifyCycles int64 // ckpt-steady resumed segment compared after recovery
	jobCycles    int64 // serve-jobs cycles per job
	jobEpoch     int64 // serve-jobs control epoch
	builds       int   // mixed-adapt and ckpt-steady NewSim calls timed per operation
	setups       int   // serve-jobs server start-ups timed per run
}

// fullSizes are the benchmark's sizes. Two mixed-adapt control epochs of
// the paper's 50 000 cycles fit in the window; a checkpoint chain of 96
// intervals rebases once (at DefaultMaxChain = 64 frames), so recovery
// applies a half-grown chain. A serve job runs with the control epoch of
// the quick experiment suite (exp.QuickOptions) for one epoch: the
// suite's own 30 000- and 60 000-cycle windows are too long for a run to
// complete the 100 jobs the tail percentile wants (README.md).
var fullSizes = sizes{
	warmup:       10000,
	mixedEpoch:   50000,
	mixedWindow:  100000,
	slice:        2500,
	traceCycles:  50000,
	ckptInterval: 1000,
	ckptPeriods:  96,
	verifyCycles: 2000,
	jobCycles:    10000,
	jobEpoch:     10000,
	builds:       8,
	setups:       301,
}

// params is one run's settings.
type params struct {
	seed   uint64
	window time.Duration
	traced bool
	sizes  sizes
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(params, *report){
	"mixed-adapt":  runMixed,
	"trace-replay": runReplay,
	"ckpt-steady":  runCkpt,
	"serve-jobs":   runServe,
}

func main() {
	workload := flag.String("workload", "", "workload to run: mixed-adapt, trace-replay, ckpt-steady, serve-jobs, or all (each of them untraced, then traced)")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	names, modes := []string{*workload}, []bool{*trace == 1}
	if *workload == "all" {
		names, modes = nil, []bool{false, true}
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	if workloads[names[0]] == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload (mixed-adapt, trace-replay, ckpt-steady, serve-jobs or all), --seconds > 0 and --trace 0 or 1\n")
		os.Exit(2)
	}
	// One Go thread per CPU, and never more client goroutines than that.
	runtime.GOMAXPROCS(runtime.NumCPU())

	correct := true
	for _, name := range names {
		for _, traced := range modes {
			p := params{
				seed:   *seed,
				window: time.Duration(*seconds * float64(time.Second)),
				traced: traced,
				sizes:  fullSizes,
			}
			r := runWorkload(workloads[name], p)
			correct = emit(name, p, r) && correct
		}
	}
	if !correct {
		os.Exit(1)
	}
}

// emit prints one run: the host, the readable lines, every metric of the
// run's mode, and last the result object. It reports whether the run was
// correct.
func emit(name string, p params, r *report) bool {
	defs := endToEnd
	trace := 0
	if p.traced {
		defs, trace = perLayer, 1
	}
	res := r.finish(defs, !p.traced)
	fmt.Printf("host %s\n", hostFingerprint())
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", name, p.seed, p.window.Seconds(), trace)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, d := range defs {
		fmt.Printf("metric %-34s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("fail_frac %g (%d failed of %d attempted)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	fmt.Println(string(line))
	return res.Correct
}

// runWorkload runs one workload on the calling goroutine, locked to its OS
// thread: spans timed by that thread's CPU clock (threadCPU) are
// meaningless if the goroutine migrates.
func runWorkload(run func(params, *report), p params) *report {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := newReport()
	run(p, r)
	return r
}

// hostFingerprint names what the figures were measured on.
func hostFingerprint() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

// cpuModel reads the processor name from /proc/cpuinfo where the host has
// one; the fingerprint is informational, so a host without it says so.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
