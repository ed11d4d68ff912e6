package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"adaptnoc"
	"adaptnoc/internal/core"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/topology"
)

// Host times in this benchmark are CPU time wherever no client waits on
// them: on a shared virtual machine the hypervisor's steal inflates wall
// time by up to half in bursts lasting tens of seconds, while CPU time,
// from which the kernel subtracts steal, moves a few percent (README.md,
// "Host time").

// processCPU is the CPU time of every thread of the process. The sim
// workloads run on one goroutine, so for them it counts the simulation
// and the runtime's work on its behalf, the collector's background
// workers on other threads included; serve-jobs' work spans goroutines.
func processCPU() float64 { return cpuClock(clockProcessCPUTime) }

// threadCPU is the CPU time of the calling thread. runWorkload locks the
// workload's goroutine to its thread, so this times a span that one
// goroutine runs alone: a daemon's construction, a policy's Decide.
func threadCPU() float64 { return cpuClock(clockThreadCPUTime) }

// Linux clock IDs for clock_gettime; the standard library's syscall
// package does not name them. Unlike getrusage, whose per-thread figure
// moves in scheduler ticks, these clocks read to the nanosecond.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func cpuClock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno)) // EINVAL or EFAULT: a bug here
	}
	return float64(ts.Nano()) / 1e9
}

// window is one timed stretch of a simulation: the host time and heap
// objects it cost, the simulated cycles it covered, and the simulation's
// own counters over the same stretch.
type window struct {
	seconds   float64 // process CPU seconds
	wall      float64
	cycles    int64
	mallocs   uint64
	delivered int64
	retired   int64
	ticks     noc.TickStats
	pool      noc.PoolStats
	// steps holds the host seconds of each step scaled to a full slice
	// (a replay's last step may be shorter), the per-operation latency
	// sample of the sim workloads.
	steps []float64
}

// machineTotals sums the lifetime delivered packets and retired
// instructions over the simulation's applications.
func machineTotals(s *adaptnoc.Sim) (delivered, retired int64) {
	for _, a := range s.Machine.Apps() {
		t := a.Totals()
		delivered += t.Delivered
		retired += t.Retired
	}
	return delivered, retired
}

// timeWindow runs step until it reports false and measures the stretch;
// each step is meant to advance slice cycles. Allocations are counted from
// here to the end of the last step only.
func timeWindow(s *adaptnoc.Sim, slice int64, step func() bool) window {
	w := window{steps: make([]float64, 0, 256)}
	ticks0, pool0 := s.TickStats(), s.Net.PoolStats()
	del0, ret0 := machineTotals(s)
	c0 := s.Kernel.Now()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, cpu0 := time.Now(), processCPU()
	for more := true; more; {
		t, c := processCPU(), s.Kernel.Now()
		more = step()
		if n := int64(s.Kernel.Now() - c); n > 0 {
			w.steps = append(w.steps, (processCPU()-t)*float64(slice)/float64(n))
		}
	}
	w.seconds = processCPU() - cpu0
	w.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.cycles = int64(s.Kernel.Now() - c0)
	del1, ret1 := machineTotals(s)
	w.delivered, w.retired = del1-del0, ret1-ret0
	ticks1, pool1 := s.TickStats(), s.Net.PoolStats()
	w.ticks = noc.TickStats{
		Cycles:       ticks1.Cycles - ticks0.Cycles,
		RouterTicks:  ticks1.RouterTicks - ticks0.RouterTicks,
		RouterSkips:  ticks1.RouterSkips - ticks0.RouterSkips,
		ChannelTicks: ticks1.ChannelTicks - ticks0.ChannelTicks,
		ChannelSkips: ticks1.ChannelSkips - ticks0.ChannelSkips,
	}
	w.pool = noc.PoolStats{
		PacketsCarved: pool1.PacketsCarved - pool0.PacketsCarved,
		PacketsReused: pool1.PacketsReused - pool0.PacketsReused,
		SlabsCarved:   pool1.SlabsCarved - pool0.SlabsCarved,
		SlabsReused:   pool1.SlabsReused - pool0.SlabsReused,
	}
	return w
}

// buildSim builds cfg n times and returns the last Sim with each build's
// CPU seconds: on small chips one build takes about a millisecond, too
// short for a single sample to be steady. Each build starts after a
// forced collection, so it does not pay for collecting the previous
// repetition's garbage (on mixed-adapt that debt doubled the figure and
// moved it by a third from run to run).
func buildSim(cfg adaptnoc.Config, n int) (*adaptnoc.Sim, []float64, error) {
	var s *adaptnoc.Sim
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t := processCPU()
		var err error
		if s, err = adaptnoc.NewSim(cfg); err != nil {
			return nil, nil, err
		}
		times = append(times, processCPU()-t)
	}
	return s, times, nil
}

// runSteps returns a step function advancing s by total cycles in slices
// of at most slice cycles.
func runSteps(s *adaptnoc.Sim, total, slice int64) func() bool {
	end := s.Kernel.Now() + adaptnoc.Cycle(total)
	return func() bool {
		n := adaptnoc.Cycle(slice)
		if rem := end - s.Kernel.Now(); rem < n {
			n = rem
		}
		s.Run(n)
		return s.Kernel.Now() < end
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setLayerWindow reports the per-layer metrics a window measures: host
// time per simulated cycle and per delivered packet (so fewer events and
// cheaper events can be told apart), the network's tick and pool
// counters, and the simulated work counts.
func (r *report) setLayerWindow(w window) {
	r.set("adaptnoc.run_us_per_cycle", ratio(w.seconds*1e6, float64(w.cycles)))
	r.set("adaptnoc.run_ns_per_pkt", ratio(w.seconds*1e9, float64(w.delivered)))
	r.set("noc.router_ticks_per_cycle", ratio(float64(w.ticks.RouterTicks), float64(w.ticks.Cycles)))
	r.set("noc.channel_ticks_per_cycle", ratio(float64(w.ticks.ChannelTicks), float64(w.ticks.Cycles)))
	r.set("noc.router_skip_ratio", w.ticks.RouterSkipRate())
	r.set("noc.channel_skip_ratio", w.ticks.ChannelSkipRate())
	reused := float64(w.pool.PacketsReused + w.pool.SlabsReused)
	carved := float64(w.pool.PacketsCarved + w.pool.SlabsCarved)
	r.set("noc.pool_reuse_ratio", ratio(reused, reused+carved))
	r.set("system.delivered_pkts_per_kcycle", ratio(1000*float64(w.delivered), float64(w.cycles)))
	r.set("system.retired_instr_per_kcycle", ratio(1000*float64(w.retired), float64(w.cycles)))
}

// setWindows reports the end-to-end throughput and allocation metrics of a
// run's timed windows: the median of the per-window rates, so one window
// disturbed by the host does not move the figure, and allocations over
// all windows together.
func (r *report) setWindows(ws []window) {
	var rates, steps []float64
	var mallocs uint64
	var cycles int64
	var cpu, wall float64
	for _, w := range ws {
		cpu += w.seconds
		wall += w.wall
		rates = append(rates, ratio(float64(w.cycles), w.seconds))
		steps = append(steps, w.steps...)
		mallocs += w.mallocs
		cycles += w.cycles
	}
	r.set("sim_cycles_per_cpu_s", median(rates))
	r.note("timed windows: %.2f s CPU in %.2f s wall", cpu, wall)
	r.set("allocs_per_kcycle", ratio(1000*float64(mallocs), float64(cycles)))
	r.setLatency(steps)
}

// liveHeapMB forces a collection and reports the live heap. The caller
// keeps the measured state reachable past this call (runtime.KeepAlive),
// or the collection would free it and the figure would read near zero.
// It collects twice: sync.Pool contents survive one collection in the
// pools' victim caches, and what they held varies from run to run (on
// serve-jobs by a tenth; by 3% after the second collection).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// timedPolicy is the traced run's probe on the control layer: it delegates
// every call to the policy it wraps and times Decide. Learn and
// Inferences pass through unchanged, so the simulation is unaffected.
// Decide runs on the workload's goroutine, so it is timed by the thread
// CPU clock.
type timedPolicy struct {
	core.Policy
	calls int
	spent float64 // CPU seconds
}

// Decide implements core.Policy.
func (p *timedPolicy) Decide(state []float64) topology.Kind {
	t := threadCPU()
	k := p.Policy.Decide(state)
	p.spent += threadCPU() - t
	p.calls++
	return k
}

// wrapPolicies installs a timedPolicy on every controller binding of s
// (none under designs without a controller).
func wrapPolicies(s *adaptnoc.Sim) []*timedPolicy {
	if s.Ctl == nil {
		return nil
	}
	var out []*timedPolicy
	for _, b := range s.Ctl.Bindings() {
		p := &timedPolicy{Policy: b.Policy}
		b.Policy = p
		out = append(out, p)
	}
	return out
}

// setDecide reports the control layer's Decide calls per traced
// repetition (reps of them) and the mean time per call.
func (r *report) setDecide(ps []*timedPolicy, reps int) {
	var calls int
	var spent float64
	for _, p := range ps {
		calls += p.calls
		spent += p.spent
	}
	r.set("core.decide_calls", ratio(float64(calls), float64(reps)))
	r.set("core.decide_us", ratio(spent*1e6, float64(calls)))
}

// reconfigs sums the reconfigurations the fabric performed.
func reconfigs(res adaptnoc.Results) float64 {
	var n int64
	for _, a := range res.Apps {
		n += a.Reconfigs
	}
	return float64(n)
}
