package adaptnoc_test

import (
	"testing"

	"adaptnoc"
)

// TestSimRunSteadyStateZeroAllocs extends internal/noc's
// TestSteadyStateTickZeroAllocs from the network tick to a whole Sim.Run:
// once the packet arena, the transaction free list, the kernel's event
// heap and every queue have reached their high-water marks, a simulated
// cycle — traffic source, memory hierarchy, network and energy meter —
// must not touch the Go allocator. testing.AllocsPerRun returns an exact
// per-invocation average, so one allocation on any measured cycle fails.
//
// The adapt-noc case is measured mid-epoch: a control decision runs the
// policy network, which allocates and is outside this contract.
func TestSimRunSteadyStateZeroAllocs(t *testing.T) {
	cases := []struct {
		name   string
		warmup adaptnoc.Cycle
		build  func(t *testing.T) *adaptnoc.Sim
	}{
		{"adapt-noc", 20000, func(t *testing.T) *adaptnoc.Sim {
			cfg := adaptnoc.Config{
				Design: adaptnoc.DesignAdaptNoC,
				Apps:   adaptnoc.DefaultMixed(0),
				Seed:   1,
			}
			cfg.RL.Pretrained = adaptnoc.DefaultPolicy()
			if cfg.RL.Pretrained == nil {
				t.Fatal("no embedded pretrained policy")
			}
			return newAllocSim(t, cfg)
		}},
		{"baseline", 20000, func(t *testing.T) *adaptnoc.Sim {
			return newAllocSim(t, adaptnoc.Config{
				Design: adaptnoc.DesignBaseline,
				Apps:   adaptnoc.DefaultMixed(0),
				Seed:   1,
			})
		}},
		{"trace-replay", 10000, func(t *testing.T) *adaptnoc.Sim {
			return replaySim(t, recordMixedTrace(t, 30000))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)
			s.Run(tc.warmup)
			before := s.Net.TotalDelivered
			if avg := testing.AllocsPerRun(1000, func() { s.Run(1) }); avg != 0 {
				t.Fatalf("steady-state Sim.Run allocates %.2f times per cycle, want 0", avg)
			}
			if s.Net.TotalDelivered == before {
				t.Fatal("allocation measurement ran a dead simulation")
			}
		})
	}
}

func newAllocSim(t *testing.T, cfg adaptnoc.Config) *adaptnoc.Sim {
	t.Helper()
	s, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
