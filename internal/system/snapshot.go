package system

// Checkpoint support: the machine's dynamic state is the per-core
// outstanding-request windows, the per-app epoch and lifetime counters,
// the memory-controller queues, and the outstanding transaction table.
// The workload-side execution position (retired/phase/RNG for profiles,
// the dependency bitmaps for traces) lives in the sources and is
// serialized through SnapshotSources into its own checkpoint section.
// Everything else (tile sets, thresholds, hot slice) is a pure function
// of the configuration and is rebuilt by NewApp.

import (
	"fmt"
	"sort"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/snap"
	"adaptnoc/internal/traffic"
)

func snapshotWindow(w *snap.Writer, c WindowCounters) {
	w.I64(c.Retired)
	w.I64(c.L1DMisses)
	w.I64(c.L1IMisses)
	w.I64(c.L2Misses)
	w.I64(c.CoherencePackets)
	w.I64(c.DataPackets)
	w.I64(c.NetLatencySum)
	w.I64(c.QueueLatencySum)
	w.I64(c.HopSum)
	w.I64(c.Delivered)
}

func restoreWindow(r *snap.Reader) (WindowCounters, error) {
	var c WindowCounters
	for _, dst := range []*int64{
		&c.Retired, &c.L1DMisses, &c.L1IMisses, &c.L2Misses,
		&c.CoherencePackets, &c.DataPackets,
		&c.NetLatencySum, &c.QueueLatencySum, &c.HopSum, &c.Delivered,
	} {
		v, err := r.I64()
		if err != nil {
			return c, err
		}
		*dst = v
	}
	return c, nil
}

// SnapshotDrops writes the per-app fault-drop tallies (sorted by app ID).
// Serialized inside the fault checkpoint section, not the machine section,
// so pre-fault blobs keep decoding.
func (m *Machine) SnapshotDrops(w *snap.Writer) {
	ids := make([]int, 0, len(m.dropped))
	for id := range m.dropped {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Int(id)
		w.I64(m.dropped[id])
	}
}

// RestoreDrops reads what SnapshotDrops wrote.
func (m *Machine) RestoreDrops(r *snap.Reader) error {
	n, err := r.Count(2)
	if err != nil {
		return err
	}
	m.dropped = make(map[int]int64, n)
	for i := 0; i < n; i++ {
		id, err := r.Int()
		if err != nil {
			return err
		}
		v, err := r.I64()
		if err != nil {
			return err
		}
		m.dropped[id] = v
	}
	return nil
}

// Part-mark kinds inside the machine section (delta alignment only, never
// serialized; see snap.Part).
const (
	partMachHeader = iota
	partMachApp
	partMachCore
	partMachMC
	partMachTxn
)

// Snapshot writes the machine's dynamic state.
func (m *Machine) Snapshot(w *snap.Writer) {
	w.Mark(snap.PartKey(partMachHeader, 0))
	w.U64(m.nextTxn)

	w.Uvarint(uint64(len(m.apps)))
	for _, a := range m.apps {
		w.Mark(snap.PartKey(partMachApp, uint64(a.ID)))
		w.I64(int64(a.finishedAt))
		snapshotWindow(w, a.win)
		snapshotWindow(w, a.total)
		w.Uvarint(uint64(len(a.cores)))
		for ci, c := range a.cores {
			w.Mark(snap.PartKey(partMachCore, uint64(a.ID)<<16|uint64(ci)))
			w.Int(c.outstanding)
		}
	}

	// Memory controllers, sorted by tile for a canonical encoding.
	tiles := make([]int, 0, len(m.mcs))
	for t := range m.mcs {
		tiles = append(tiles, int(t))
	}
	sort.Ints(tiles)
	w.Uvarint(uint64(len(tiles)))
	for _, t := range tiles {
		mc := m.mcs[noc.NodeID(t)]
		w.Mark(snap.PartKey(partMachMC, uint64(t)))
		w.Int(t)
		w.I64(int64(mc.busyUntil))
		w.Int(mc.queueLen)
		w.I64(mc.served)
	}

	// Outstanding transactions, sorted by ID.
	ids := make([]uint64, 0, len(m.txns))
	for id := range m.txns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		t := m.txns[id]
		w.Mark(snap.PartKey(partMachTxn, id))
		w.U64(t.id)
		w.Int(t.app.ID)
		w.Int(coreIndex(t.app, t.core))
		w.Int(int(t.slice))
		w.Int(int(t.mc))
		w.Bool(t.needsMC)
		w.Int(int(t.stage))
	}
}

func coreIndex(a *App, c *core) int {
	for i, x := range a.cores {
		if x == c {
			return i
		}
	}
	panic(fmt.Sprintf("system: core %d not in app %d", c.tile, a.ID))
}

// Restore overlays a state written by Snapshot onto a freshly constructed
// machine carrying the same applications. It must run before the network
// restore so packet payloads can resolve transaction IDs.
func (m *Machine) Restore(r *snap.Reader) error {
	var err error
	if m.nextTxn, err = r.U64(); err != nil {
		return err
	}

	nApps, err := r.Count(1)
	if err != nil {
		return err
	}
	if nApps != len(m.apps) {
		return fmt.Errorf("system: checkpoint has %d apps, machine has %d", nApps, len(m.apps))
	}
	for _, a := range m.apps {
		fin, err := r.I64()
		if err != nil {
			return err
		}
		a.finishedAt = sim.Cycle(fin)
		if a.win, err = restoreWindow(r); err != nil {
			return err
		}
		if a.total, err = restoreWindow(r); err != nil {
			return err
		}
		nCores, err := r.Count(1)
		if err != nil {
			return err
		}
		if nCores != len(a.cores) {
			return fmt.Errorf("system: checkpoint has %d cores for app %d, machine has %d",
				nCores, a.ID, len(a.cores))
		}
		for _, c := range a.cores {
			if c.outstanding, err = r.Int(); err != nil {
				return err
			}
		}
	}

	nMCs, err := r.Count(2)
	if err != nil {
		return err
	}
	mcs := make(map[noc.NodeID]*mcState, nMCs)
	for i := 0; i < nMCs; i++ {
		tile, err := r.Int()
		if err != nil {
			return err
		}
		mc := &mcState{}
		busy, err := r.I64()
		if err != nil {
			return err
		}
		mc.busyUntil = sim.Cycle(busy)
		if mc.queueLen, err = r.Int(); err != nil {
			return err
		}
		if mc.served, err = r.I64(); err != nil {
			return err
		}
		mcs[noc.NodeID(tile)] = mc
	}
	m.mcs = mcs

	nTxns, err := r.Count(3)
	if err != nil {
		return err
	}
	m.txns = make(map[uint64]*txn, nTxns)
	for i := 0; i < nTxns; i++ {
		t := &txn{}
		if t.id, err = r.U64(); err != nil {
			return err
		}
		appID, err := r.Int()
		if err != nil {
			return err
		}
		if t.app = m.appByID(appID); t.app == nil {
			return fmt.Errorf("system: transaction %d references unknown app %d", t.id, appID)
		}
		ci, err := r.Int()
		if err != nil {
			return err
		}
		if ci < 0 || ci >= len(t.app.cores) {
			return fmt.Errorf("system: transaction %d references core %d of app %d", t.id, ci, appID)
		}
		t.core = t.app.cores[ci]
		slice, err := r.Int()
		if err != nil {
			return err
		}
		t.slice = noc.NodeID(slice)
		mc, err := r.Int()
		if err != nil {
			return err
		}
		t.mc = noc.NodeID(mc)
		if t.needsMC, err = r.Bool(); err != nil {
			return err
		}
		stage, err := r.Int()
		if err != nil {
			return err
		}
		if stage < int(stageToSlice) || stage > int(stageToMC) {
			return fmt.Errorf("system: transaction %d has stage %d", t.id, stage)
		}
		t.stage = txnStage(stage)
		if t.id == 0 || t.id > m.nextTxn {
			return fmt.Errorf("system: transaction ID %d out of range", t.id)
		}
		if m.txns[t.id] != nil {
			return fmt.Errorf("system: duplicate transaction %d", t.id)
		}
		m.txns[t.id] = t
	}
	return nil
}

// SnapshotSources writes every application's workload-source state; it
// fills the checkpoint's "source" section.
func (m *Machine) SnapshotSources(w *snap.Writer) {
	w.Uvarint(uint64(len(m.apps)))
	for _, a := range m.apps {
		w.Mark(snap.PartKey(traffic.PartSrcApp, uint64(a.ID)))
		a.src.Snapshot(w)
	}
}

// RestoreSources reads what SnapshotSources wrote onto identically
// constructed applications.
func (m *Machine) RestoreSources(r *snap.Reader) error {
	n, err := r.Count(1)
	if err != nil {
		return err
	}
	if n != len(m.apps) {
		return fmt.Errorf("system: checkpoint has %d sources, machine has %d apps", n, len(m.apps))
	}
	for _, a := range m.apps {
		if err := a.src.Restore(r); err != nil {
			return fmt.Errorf("system: source of app %d: %w", a.ID, err)
		}
	}
	return nil
}

// Payload codec: packets carry either nothing, a fire-and-forget
// coherence marker, a transaction ID, or a trace-replay node index (the
// payload* kinds). The network's snapshot delegates payload bytes to its
// owner through this pair: the kind, then the reference for the kinds
// that have one.

// EncodePayload implements noc.PayloadCodec.
func (m *Machine) EncodePayload(w *snap.Writer, pl noc.Payload) error {
	switch pl.Kind {
	case payloadNil, payloadCoh:
		w.Int(int(pl.Kind))
	case payloadTxn, payloadTrace:
		w.Int(int(pl.Kind))
		w.U64(pl.Ref)
	default:
		return fmt.Errorf("system: unserializable payload kind %d", pl.Kind)
	}
	return nil
}

// DecodePayload implements noc.PayloadCodec. Transaction IDs must name a
// transaction of the already-restored table.
func (m *Machine) DecodePayload(r *snap.Reader) (noc.Payload, error) {
	kind, err := r.Int()
	if err != nil {
		return noc.Payload{}, err
	}
	switch kind {
	case payloadNil, payloadCoh:
		return noc.Payload{Kind: uint8(kind)}, nil
	case payloadTxn, payloadTrace:
		ref, err := r.U64()
		if err != nil {
			return noc.Payload{}, err
		}
		if kind == payloadTxn && m.txns[ref] == nil {
			return noc.Payload{}, fmt.Errorf("system: packet references unknown transaction %d", ref)
		}
		return noc.Payload{Kind: uint8(kind), Ref: ref}, nil
	}
	return noc.Payload{}, fmt.Errorf("system: unknown payload kind %d", kind)
}
