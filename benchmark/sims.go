package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"adaptnoc"
	"adaptnoc/internal/snap"
)

// repeat runs op at least twice and then until the run's measuring time
// is used up. Two is the least that lets every run compare a repeated
// operation with the first. In a traced run every odd operation is traced
// and every even one is not, so the two modes see the same host
// conditions and their Results can be compared.
func repeat(p params, r *report, op func(i int, traced bool) error) {
	deadline := time.Now().Add(p.window)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		r.op(op(i, p.traced && i%2 == 1))
	}
}

// sameDigest is the repeat-determinism check: every operation of a run
// simulates the same input, so every Results digest must equal the first.
type sameDigest struct {
	what  string
	first string
}

func (d *sameDigest) check(r *report, i int, doc []byte) {
	got := digest(doc)
	if d.first == "" {
		d.first = got
		return
	}
	r.check(got == d.first, "%s: operation %d results digest %s differs from the first operation's %s",
		d.what, i, got, d.first)
}

func mergeWindows(ws []window) window {
	var m window
	for _, w := range ws {
		m.seconds += w.seconds
		m.cycles += w.cycles
		m.mallocs += w.mallocs
		m.delivered += w.delivered
		m.retired += w.retired
		m.ticks.Cycles += w.ticks.Cycles
		m.ticks.RouterTicks += w.ticks.RouterTicks
		m.ticks.RouterSkips += w.ticks.RouterSkips
		m.ticks.ChannelTicks += w.ticks.ChannelTicks
		m.ticks.ChannelSkips += w.ticks.ChannelSkips
		m.pool.PacketsCarved += w.pool.PacketsCarved
		m.pool.PacketsReused += w.pool.PacketsReused
		m.pool.SlabsCarved += w.pool.SlabsCarved
		m.pool.SlabsReused += w.pool.SlabsReused
	}
	return m
}

// simRuns gathers what the operations of a sim workload measured, split
// by mode: untraced windows feed the end-to-end metrics, traced windows
// the per-layer ones, and the ratio of their median host times is the
// tracing overhead.
type simRuns struct {
	setups []float64
	heapMB []float64
	plain  []window
	traced []window
	res    adaptnoc.Results
}

func (s *simRuns) add(w window, traced bool) {
	if traced {
		s.traced = append(s.traced, w)
	} else {
		s.plain = append(s.plain, w)
	}
}

// report sets the metrics every sim workload shares, for the run's mode.
func (s *simRuns) report(traced bool, r *report) {
	if !traced {
		r.set("setup_s", median(s.setups))
		r.set("live_heap_mb", median(s.heapMB))
		r.setWindows(s.plain)
		return
	}
	r.set("adaptnoc.newsim_s", median(s.setups))
	r.setLayerWindow(mergeWindows(s.traced))
	r.set("fabric.reconfigs", reconfigs(s.res))
	r.set("system.pkt_latency_cycles", s.res.MeanLatency())
	secs := func(ws []window) []float64 {
		var out []float64
		for _, w := range ws {
			out = append(out, w.seconds)
		}
		return out
	}
	r.set("bench.traced_overhead", ratio(median(secs(s.traced)), median(secs(s.plain))))
}

// --- mixed-adapt ---

// mixedConfig is what `adaptnoc-sim -design adapt-noc` simulates: the
// paper's heterogeneous mix on 8×8 under the RL policy with the embedded
// offline-trained weights, here with the given control epoch (the
// paper's is 50 000 cycles).
func mixedConfig(seed uint64, epoch int64) (adaptnoc.Config, error) {
	cfg := adaptnoc.Config{
		Design:      adaptnoc.DesignAdaptNoC,
		Apps:        adaptnoc.DefaultMixed(0),
		Seed:        seed,
		EpochCycles: int(epoch),
	}
	cfg.RL.Pretrained = adaptnoc.DefaultPolicy()
	if cfg.RL.Pretrained == nil {
		return cfg, fmt.Errorf("mixed-adapt: the build carries no pretrained policy")
	}
	return cfg, nil
}

func runMixed(p params, r *report) {
	cfg, err := mixedConfig(p.seed, p.sizes.mixedEpoch)
	if err != nil {
		r.op(err)
		return
	}
	var runs simRuns
	var probes []*timedPolicy
	same := sameDigest{what: "mixed-adapt"}
	repeat(p, r, func(i int, traced bool) error {
		s, builds, err := buildSim(cfg, p.sizes.builds)
		if err != nil {
			return err
		}
		runs.setups = append(runs.setups, builds...)
		if traced {
			probes = append(probes, wrapPolicies(s)...)
		}
		// The modelled L1/L2 caches are statistical (profile miss rates)
		// and carry no warm-up state; the warm-up fills the network.
		s.Run(adaptnoc.Cycle(p.sizes.warmup))
		runs.add(timeWindow(s, p.sizes.slice, runSteps(s, p.sizes.mixedWindow, p.sizes.slice)), traced)
		runs.heapMB = append(runs.heapMB, liveHeapMB())
		runtime.KeepAlive(s)
		runs.res = s.Results()
		doc, err := json.Marshal(runs.res)
		if err != nil {
			return err
		}
		same.check(r, i, doc)
		return nil
	})
	runs.report(p.traced, r)
	if p.traced {
		r.setDecide(probes, len(runs.traced))
	}
	r.note("digest mixed-adapt %s", same.first)
}

// --- trace-replay ---

// recordTrace makes the trace-replay input: a DesignBaseline recording of
// the default mix, driven by the seed. Recording is input generation and
// is not timed.
func recordTrace(seed uint64, cycles int64) ([]byte, error) {
	s, err := adaptnoc.NewSim(adaptnoc.Config{
		Design: adaptnoc.DesignBaseline,
		Apps:   adaptnoc.DefaultMixed(0),
		Seed:   seed,
	})
	if err != nil {
		return nil, err
	}
	if err := s.RecordTrace(); err != nil {
		return nil, err
	}
	s.Run(adaptnoc.Cycle(cycles))
	tr, err := s.FinishTrace()
	if err != nil {
		return nil, err
	}
	return adaptnoc.EncodeTrace(tr)
}

func runReplay(p params, r *report) {
	blob, err := recordTrace(p.seed, p.sizes.traceCycles)
	if err != nil {
		r.op(fmt.Errorf("trace-replay: recording the input: %w", err))
		return
	}
	// A replay self-paces on the replaying fabric; on the recording's own
	// design it drains within a small multiple of the recorded window.
	limit := adaptnoc.Cycle(20 * p.sizes.traceCycles)
	var runs simRuns
	var decodes, workloads []float64
	same := sameDigest{what: "trace-replay"}
	repeat(p, r, func(i int, traced bool) error {
		if traced {
			runtime.GC()
			t := processCPU()
			if _, err := adaptnoc.DecodeTrace(blob); err != nil {
				return err
			}
			decodes = append(decodes, processCPU()-t)
		}
		runtime.GC() // as in buildSim: set-up does not collect earlier garbage
		t := processCPU()
		specs, w, h, err := adaptnoc.TraceWorkload(blob)
		if err != nil {
			return err
		}
		tw := processCPU() - t
		s, err := adaptnoc.NewSim(adaptnoc.Config{
			Design: adaptnoc.DesignBaseline,
			Apps:   specs,
			Width:  w,
			Height: h,
			Seed:   p.seed,
		})
		if err != nil {
			return err
		}
		// setup_s covers config → runnable Sim, decoding included; the
		// per-layer adaptnoc.newsim_s is NewSim alone.
		workloads = append(workloads, tw)
		if p.traced {
			runs.setups = append(runs.setups, processCPU()-t-tw)
		} else {
			runs.setups = append(runs.setups, processCPU()-t)
		}
		finished := false
		runs.add(timeWindow(s, p.sizes.slice, func() bool {
			finished = s.RunUntilFinished(adaptnoc.Cycle(p.sizes.slice))
			return !finished && s.Kernel.Now() < limit
		}), traced)
		r.check(finished, "trace-replay: operation %d did not drain within %d cycles", i, limit)
		runs.heapMB = append(runs.heapMB, liveHeapMB())
		runtime.KeepAlive(s)
		runs.res = s.Results()
		doc, err := json.Marshal(runs.res)
		if err != nil {
			return err
		}
		same.check(r, i, doc)
		return nil
	})
	runs.report(p.traced, r)
	if p.traced {
		dec := median(decodes)
		r.set("traffic.decode_ms", 1000*dec)
		r.set("traffic.decode_mb_per_s", ratio(float64(len(blob))/1e6, dec))
		r.set("traffic.trace_workload_ms", 1000*median(workloads))
	}
	r.note("trace blob %d bytes, %d recorded cycles", len(blob), p.sizes.traceCycles)
	r.note("digest trace-replay %s", same.first)
}

// --- ckpt-steady ---

// ckptGrid is the steady-grid chip's side: large enough that the few
// small apps leave most routers parked.
const ckptGrid = 32

// ckptConfig is a 32×32 DesignBaseline chip with three low-intensity
// CPU applications on 4×4 regions.
func ckptConfig(seed uint64) adaptnoc.Config {
	apps := []adaptnoc.AppSpec{
		{Profile: "blackscholes", Region: adaptnoc.Region{X: 0, Y: 0, W: 4, H: 4}},
		{Profile: "swaptions", Region: adaptnoc.Region{X: 16, Y: 8, W: 4, H: 4}},
		{Profile: "bodytrack", Region: adaptnoc.Region{X: 8, Y: 24, W: 4, H: 4}},
	}
	for i := range apps {
		apps[i].MCTiles = adaptnoc.BlockMCsOn(apps[i].Region, ckptGrid)
	}
	return adaptnoc.Config{
		Design: adaptnoc.DesignBaseline,
		Apps:   apps,
		Width:  ckptGrid,
		Height: ckptGrid,
		Seed:   seed,
	}
}

func runCkpt(p params, r *report) {
	cfg := ckptConfig(p.seed)
	var runs simRuns
	var fullMS, fullKB, deltaMS, deltaKB, applyMS, restoreMS, recoverS []float64
	same := sameDigest{what: "ckpt-steady"}
	repeat(p, r, func(i int, traced bool) error {
		s, builds, err := buildSim(cfg, p.sizes.builds)
		if err != nil {
			return err
		}
		runs.setups = append(runs.setups, builds...)
		s.Run(adaptnoc.Cycle(p.sizes.warmup))

		// The rolling in-memory chain: a full base, then one delta frame
		// per interval, rebased every DefaultMaxChain frames.
		var base []byte
		var frames [][]byte
		checkpoint := func() error {
			t := processCPU()
			if base == nil || len(frames) == adaptnoc.DefaultMaxChain {
				b, err := s.Checkpoint()
				if err != nil {
					return err
				}
				base, frames = b, nil
				fullMS = append(fullMS, 1000*(processCPU()-t))
				fullKB = append(fullKB, float64(len(b))/1024)
				return nil
			}
			f, err := s.CheckpointDeltaChained()
			if err != nil {
				return err
			}
			frames = append(frames, f)
			deltaMS = append(deltaMS, 1000*(processCPU()-t))
			deltaKB = append(deltaKB, float64(len(f))/1024)
			return nil
		}
		var ckptErr error
		var done int64
		runs.add(timeWindow(s, p.sizes.ckptInterval, func() bool {
			s.Run(adaptnoc.Cycle(p.sizes.ckptInterval))
			if ckptErr = checkpoint(); ckptErr != nil {
				return false
			}
			done++
			return done < p.sizes.ckptPeriods
		}), traced)
		if ckptErr != nil {
			return ckptErr
		}
		runs.heapMB = append(runs.heapMB, liveHeapMB())
		runtime.KeepAlive(s)

		// Recovery: base + delta frames → running Sim.
		t := processCPU()
		tip, err := snap.ApplyChain(base, frames...)
		if err != nil {
			return fmt.Errorf("ckpt-steady: applying the chain: %w", err)
		}
		applied := processCPU() - t
		rs, err := adaptnoc.RestoreSim(tip)
		if err != nil {
			return fmt.Errorf("ckpt-steady: restoring the chain tip: %w", err)
		}
		total := processCPU() - t
		applyMS = append(applyMS, 1000*applied)
		restoreMS = append(restoreMS, 1000*(total-applied))
		recoverS = append(recoverS, total)

		// The recovered Sim must be the original at the chain tip, and
		// stay equal to it over a short resumed segment.
		want, err := s.Checkpoint()
		if err != nil {
			return err
		}
		got, err := rs.Checkpoint()
		if err != nil {
			return err
		}
		r.check(bytes.Equal(tip, want), "ckpt-steady: operation %d: the applied chain differs from a full checkpoint at the tip", i)
		r.check(bytes.Equal(got, want), "ckpt-steady: operation %d: the recovered Sim's checkpoint differs from the original's", i)
		s.Run(adaptnoc.Cycle(p.sizes.verifyCycles))
		rs.Run(adaptnoc.Cycle(p.sizes.verifyCycles))
		runs.res = s.Results()
		doc, err := json.Marshal(runs.res)
		if err != nil {
			return err
		}
		resumed, err := json.Marshal(rs.Results())
		if err != nil {
			return err
		}
		r.check(bytes.Equal(doc, resumed), "ckpt-steady: operation %d: the resumed segment's results differ from the original's", i)
		same.check(r, i, doc)
		return nil
	})
	runs.report(p.traced, r)
	if p.traced {
		full, delta := median(fullMS), median(deltaMS)
		fullSize, deltaSize := median(fullKB), median(deltaKB)
		r.set("snap.full_ms", full)
		r.set("snap.full_kb", fullSize)
		r.set("snap.delta_ms", delta)
		r.set("snap.delta_kb", deltaSize)
		r.set("snap.delta_size_ratio", ratio(fullSize, deltaSize))
		r.set("snap.delta_speedup", ratio(full, delta))
		r.set("snap.apply_chain_ms", median(applyMS))
		r.set("adaptnoc.restore_ms", median(restoreMS))
		r.set("bench.recover_s", median(recoverS))
	}
	r.note("digest ckpt-steady %s", same.first)
}
