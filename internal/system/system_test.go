package system

import (
	"bytes"
	"strings"
	"testing"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/snap"
	"adaptnoc/internal/topology"
	"adaptnoc/internal/traffic"
)

// buildMachine runs one app on a 4x4 mesh region.
func buildMachine(t *testing.T, prof traffic.Profile, budget int64, p Params) (*Machine, *App, *sim.Kernel) {
	t.Helper()
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	reg := topology.Region{X: 0, Y: 0, W: 4, H: 4}
	topology.ConfigureMeshRegion(net, reg)
	k := sim.NewKernel()
	k.Register(net)
	m := NewMachine(net, k, p)
	tiles := reg.Tiles(cfg.Width)
	app := NewApp(0, prof, tiles, []noc.NodeID{tiles[0]}, budget, sim.NewRNG(42))
	m.AddApp(app)
	return m, app, k
}

func TestAppRunsToCompletion(t *testing.T) {
	prof, ok := traffic.ByName("blackscholes")
	if !ok {
		t.Fatal("missing profile")
	}
	m, app, k := buildMachine(t, prof, 5000, DefaultParams())
	k.Run(2_000_000)
	if !m.AllFinished() {
		t.Fatalf("app not finished after %d cycles (progress %.0f)", k.Now(), app.Progress())
	}
	if app.FinishedAt() <= 0 {
		t.Fatal("no finish time recorded")
	}
	tot := app.Totals()
	if tot.Retired < 5000*15 { // 15 cores (16 tiles - 1 MC)
		t.Fatalf("retired %d instructions, want >= %d", tot.Retired, 5000*15)
	}
	if tot.L1DMisses == 0 || tot.DataPackets == 0 {
		t.Fatalf("no memory traffic generated: %+v", tot)
	}
}

func TestExecutionTimeSensitiveToNoCLatency(t *testing.T) {
	// A memory-bound app must finish later when the memory hierarchy is
	// slower — the closed loop that Fig. 10 depends on.
	prof, ok := traffic.ByName("canneal")
	if !ok {
		t.Fatal("missing profile")
	}
	fast := DefaultParams()
	slow := DefaultParams()
	slow.MCLatencyCycles = 400
	slow.L2LatencyCycles = 40

	run := func(p Params) sim.Cycle {
		m, app, k := buildMachine(t, prof, 3000, p)
		k.Run(3_000_000)
		if !m.AllFinished() {
			t.Fatalf("not finished (params %+v)", p)
		}
		return app.FinishedAt()
	}
	tf, ts := run(fast), run(slow)
	if ts <= tf {
		t.Fatalf("slow memory finished at %d, not after fast %d", ts, tf)
	}
}

func TestWindowCountersResetAndAccumulate(t *testing.T) {
	prof, _ := traffic.ByName("kmeans")
	_, app, k := buildMachine(t, prof, 0, DefaultParams())
	k.Run(20000)
	w1 := app.TakeWindow()
	if w1.Retired == 0 || w1.Delivered == 0 {
		t.Fatalf("empty first window: %+v", w1)
	}
	if w1.AvgNetLatency() <= 0 || w1.AvgHops() <= 0 {
		t.Fatalf("latency window empty: %+v", w1)
	}
	w2 := app.TakeWindow()
	if w2.Retired != 0 {
		t.Fatalf("window not reset: %+v", w2)
	}
	k.RunFor(20000)
	w3 := app.TakeWindow()
	if w3.Retired == 0 {
		t.Fatal("window did not accumulate after reset")
	}
}

func TestGPUProfileGeneratesMoreTrafficThanCPU(t *testing.T) {
	gpu, _ := traffic.ByName("bfs")
	cpu, _ := traffic.ByName("blackscholes")
	run := func(p traffic.Profile) int64 {
		_, app, k := buildMachine(t, p, 0, DefaultParams())
		k.Run(50000)
		tot := app.Totals()
		return tot.CoherencePackets + tot.DataPackets
	}
	g, c := run(gpu), run(cpu)
	if g <= 2*c {
		t.Fatalf("GPU traffic %d not >> CPU traffic %d", g, c)
	}
}

func TestMCSharingIncreasesServiceSpread(t *testing.T) {
	prof, _ := traffic.ByName("kmeans")
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	reg := topology.Region{X: 0, Y: 0, W: 4, H: 4}
	topology.ConfigureMeshRegion(net, reg)
	k := sim.NewKernel()
	k.Register(net)
	m := NewMachine(net, k, DefaultParams())
	tiles := reg.Tiles(cfg.Width)
	app := NewApp(0, prof, tiles, []noc.NodeID{tiles[0], tiles[3]}, 0, sim.NewRNG(1))
	m.AddApp(app)
	k.Run(60000)
	if m.MCServed(tiles[0]) == 0 || m.MCServed(tiles[3]) == 0 {
		t.Fatalf("requests not spread over both MCs: %d / %d",
			m.MCServed(tiles[0]), m.MCServed(tiles[3]))
	}
}

func TestStallAccountingUnderTightMLP(t *testing.T) {
	prof, _ := traffic.ByName("canneal")
	prof.MLP = 1
	_, app, k := buildMachine(t, prof, 0, DefaultParams())
	k.Run(30000)
	if app.StallCycles() == 0 {
		t.Fatal("MLP=1 memory-bound app never stalled")
	}
}

func TestForeignMCFraction(t *testing.T) {
	prof, _ := traffic.ByName("kmeans")
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	topology.BuildMesh(net)
	k := sim.NewKernel()
	k.Register(net)
	m := NewMachine(net, k, DefaultParams())
	reg := topology.Region{X: 0, Y: 0, W: 4, H: 4}
	app := NewApp(0, prof, reg.Tiles(cfg.Width), []noc.NodeID{0}, 0, sim.NewRNG(5))
	foreign := noc.NodeID(36) // inside the chip, outside the region
	app.SetForeignMCs([]noc.NodeID{foreign}, 0.25)
	m.AddApp(app)
	k.Run(60000)
	own, f := m.MCServed(0), m.MCServed(foreign)
	if own == 0 || f == 0 {
		t.Fatalf("MCs not both used: own=%d foreign=%d", own, f)
	}
	frac := float64(f) / float64(own+f)
	if frac < 0.18 || frac > 0.33 {
		t.Fatalf("foreign fraction %.3f, want ~0.25", frac)
	}
}

func TestObserverChainsAfterMachine(t *testing.T) {
	prof, _ := traffic.ByName("ferret")
	m, _, k := buildMachine(t, prof, 0, DefaultParams())
	seen := 0
	m.SetObserver(func(p *noc.Packet, _ sim.Cycle) { seen++ })
	k.Run(10000)
	if seen == 0 {
		t.Fatal("observer never called")
	}
}

func TestRemoveApp(t *testing.T) {
	prof, _ := traffic.ByName("ferret")
	m, app, k := buildMachine(t, prof, 0, DefaultParams())
	k.Run(2000)
	k.RunFor(3000) // let in-flight traffic land
	before := app.Totals().Retired
	// In-flight transactions of a removed app still complete safely (the
	// app object lives on); only its cores stop ticking.
	m.RemoveApp(app)
	k.RunFor(5000)
	if app.Totals().Retired != before {
		t.Fatal("removed app kept running")
	}
	if len(m.Apps()) != 0 {
		t.Fatal("app list not empty")
	}
}

// TestPayloadCodec pins the checkpoint bytes of every payload kind (the
// kind as a varint, then the reference as a fixed uint64 where the kind
// has one) and requires decode to refuse, with an error rather than a
// panic, a transaction ID missing from the table and an unknown kind.
func TestPayloadCodec(t *testing.T) {
	prof, _ := traffic.ByName("canneal")
	m, _, k := buildMachine(t, prof, 0, DefaultParams())
	k.Run(2000)
	var live uint64
	for id := range m.txns {
		live = id
		break
	}
	if live == 0 {
		t.Fatal("no outstanding transaction to reference")
	}

	for _, pl := range []noc.Payload{
		{},
		{Kind: payloadCoh},
		{Kind: payloadTxn, Ref: live},
		{Kind: payloadTrace, Ref: 1 << 40},
	} {
		var got, want snap.Writer
		if err := m.EncodePayload(&got, pl); err != nil {
			t.Fatalf("encode %+v: %v", pl, err)
		}
		want.Int(int(pl.Kind))
		if pl.Kind == payloadTxn || pl.Kind == payloadTrace {
			want.U64(pl.Ref)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("encode %+v = %x, want %x", pl, got.Bytes(), want.Bytes())
		}
		back, err := m.DecodePayload(snap.NewReader(got.Bytes()))
		if err != nil || back != pl {
			t.Fatalf("decode %+v = %+v, %v", pl, back, err)
		}
	}
	if err := m.EncodePayload(&snap.Writer{}, noc.Payload{Kind: 9}); err == nil {
		t.Fatal("encoded an unknown payload kind")
	}

	refuse := func(name string, build func(w *snap.Writer), want string) {
		t.Helper()
		var w snap.Writer
		build(&w)
		_, err := m.DecodePayload(snap.NewReader(w.Bytes()))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: decode error %v, want one containing %q", name, err, want)
		}
	}
	refuse("dangling transaction", func(w *snap.Writer) {
		w.Int(payloadTxn)
		w.U64(m.nextTxn + 1)
	}, "unknown transaction")
	refuse("unknown kind", func(w *snap.Writer) {
		w.Int(7)
		w.U64(live)
	}, "unknown payload kind")
}
