package noc

// Checkpoint support for the network. The serialized state is everything
// the tick loop can observe:
//
//   - live packets by value, keyed by ID (arena pointers are never
//     serialized; restore carves fresh slabs and rebuilds an ID index);
//   - per-NI injection queues, stream counters, and activity windows;
//   - per-router VC ring contents as (packet ID, seq, visibleAt) triples
//     plus head-of-line routing/allocation state, output credit mirrors,
//     switch holds, gating dynamics, and activity counters;
//   - per-injector stream and credit state;
//   - per-channel in-flight flits and credits, serialized with channels
//     sorted by (From, To) because the membership slice's order is
//     incidental (swap-removal).
//
// The active/woken work lists and the arena shape are deliberately NOT
// serialized: both are derived execution state whose layout depends on the
// tick shard count, and a checkpoint must be byte-identical no matter how
// many shards wrote it. The work lists are a pure function of live state
// (a channel is listed iff Busy, a router iff not parked) and list order
// is unobservable since Tick canonicalizes same-cycle delivery order, so
// Restore just schedules a carve() and the next Tick rebuilds them. The
// arena refills through ordinary delivery recycling; PoolStats after a
// restore count from the restore point (diagnostic state only — nothing
// the simulation computes reads them).
//
// Derived state (occupancy counts, live masks, held masks, resolved
// pointers) is recomputed. Restore runs against a freshly constructed
// network whose static wiring (topology, attachments, tables) has already
// been rebuilt by replaying the configuration, and validates every
// reference so a corrupted checkpoint fails with an error instead of
// corrupting the simulation.

import (
	"bytes"
	"fmt"
	"sort"

	"adaptnoc/internal/sim"
	"adaptnoc/internal/snap"
)

// PayloadCodec serializes the opaque Packet.Payload handles a simulation
// attaches. The system model owns the payload kinds (and validates the
// references on decode), so it provides the codec; pure-traffic networks
// (zero payloads) need none.
type PayloadCodec interface {
	EncodePayload(w *snap.Writer, payload Payload) error
	DecodePayload(r *snap.Reader) (Payload, error)
}

func snapshotEndpoint(w *snap.Writer, e Endpoint) {
	w.Int(int(e.Kind))
	w.Int(int(e.Router))
	w.Int(e.Port)
	w.Int(int(e.NI))
}

func restoreEndpoint(r *snap.Reader) (Endpoint, error) {
	var e Endpoint
	kind, err := r.Int()
	if err != nil {
		return e, err
	}
	e.Kind = EndpointKind(kind)
	router, err := r.Int()
	if err != nil {
		return e, err
	}
	e.Router = NodeID(router)
	if e.Port, err = r.Int(); err != nil {
		return e, err
	}
	ni, err := r.Int()
	if err != nil {
		return e, err
	}
	e.NI = NodeID(ni)
	return e, nil
}

// endpointLess orders endpoints for the canonical channel ordering.
func endpointLess(a, b Endpoint) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Router != b.Router {
		return a.Router < b.Router
	}
	if a.NI != b.NI {
		return a.NI < b.NI
	}
	return a.Port < b.Port
}

func channelLess(a, b *Channel) bool {
	if a.From != b.From {
		return endpointLess(a.From, b.From)
	}
	return endpointLess(a.To, b.To)
}

// sortedChannels returns the live channels in canonical (From, To) order.
func (n *Network) sortedChannels() []*Channel {
	chs := append([]*Channel(nil), n.channels...)
	sort.Slice(chs, func(i, j int) bool { return channelLess(chs[i], chs[j]) })
	return chs
}

// livePackets collects every packet reachable from the network's dynamic
// state, sorted by ID.
func (n *Network) livePackets() []*Packet {
	seen := make(map[uint64]*Packet)
	add := func(p *Packet) {
		if p != nil {
			seen[p.ID] = p
		}
	}
	for _, ni := range n.nis {
		for v := range ni.queues {
			q := &ni.queues[v]
			for i := 0; i < q.len(); i++ {
				add(q.at(i))
			}
		}
	}
	for _, inj := range n.injList {
		for _, st := range inj.streams {
			add(st.cur)
		}
	}
	for _, r := range n.routers {
		r.ForEachBufferedFlit(func(_, _ int, f *Flit) { add(f.Pkt) })
	}
	for _, ch := range n.channels {
		for _, e := range ch.fwd[ch.fwdHead:] {
			add(e.flit.Pkt)
		}
	}
	pkts := make([]*Packet, 0, len(seen))
	for _, p := range seen {
		pkts = append(pkts, p)
	}
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].ID < pkts[j].ID })
	return pkts
}

// Snapshot writes the network's complete dynamic state. codec serializes
// packet payloads; it may be nil if every live payload is nil.
// Part-mark kinds inside the net section. Marks key each component record
// by a stable identity so the delta encoder aligns records across two
// snapshots (see snap.Part); they never enter the serialized bytes.
const (
	partNetHeader = iota
	partNetPacket
	partNetNI
	partNetRouter
	partNetInjector
	partNetChannel
)

// channelPartKey folds both endpoints into a stable identity that survives
// packets and routers churning around the channel. FNV-1a over the
// endpoint fields, folded to the 56 bits a part key can carry.
func channelPartKey(ch *Channel) uint64 {
	h := uint64(1469598103934665603)
	step := func(v int) {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	for _, e := range []Endpoint{ch.From, ch.To} {
		step(int(e.Kind))
		step(int(e.Router))
		step(e.Port)
		step(int(e.NI))
	}
	return snap.PartKey(partNetChannel, h)
}

func (n *Network) Snapshot(w *snap.Writer, codec PayloadCodec) error {
	w.Mark(snap.PartKey(partNetHeader, 0))
	w.U64(n.nextPkt)
	w.I64(int64(n.lastTick))
	w.I64(n.TotalEnqueued)
	w.I64(n.TotalDelivered)
	w.I64(n.TotalFlitsInjected)
	w.I64(n.TotalFlitsEjected)
	w.I64(n.stats.Cycles)
	w.I64(n.stats.RouterTicks)
	w.I64(n.stats.RouterSkips)
	w.I64(n.stats.ChannelTicks)
	w.I64(n.stats.ChannelSkips)

	// Live packets by value.
	pkts := n.livePackets()
	w.Uvarint(uint64(len(pkts)))
	for _, p := range pkts {
		w.Mark(snap.PartKey(partNetPacket, p.ID))
		w.U64(p.ID)
		w.Int(int(p.Src))
		w.Int(int(p.Dst))
		w.Int(int(p.Class))
		w.Int(int(p.VNet))
		w.Int(p.Size)
		w.Int(p.App)
		w.I64(int64(p.EnqueuedAt))
		w.I64(int64(p.InjectedAt))
		w.I64(int64(p.EjectedAt))
		w.Int(p.Hops)
		w.Int(p.datelineClass)
		w.Int(int(p.lastDim))
		w.Int(p.rxFlits)
		w.Bool(p.flits != nil)
		if codec == nil {
			if p.Payload != (Payload{}) {
				return fmt.Errorf("noc: packet %v carries a payload but no codec is installed", p)
			}
			w.Bool(false)
		} else {
			w.Bool(true)
			if err := codec.EncodePayload(w, p.Payload); err != nil {
				return err
			}
		}
	}

	// NIs, in tile order.
	w.Uvarint(uint64(len(n.nis)))
	for _, ni := range n.nis {
		w.Mark(snap.PartKey(partNetNI, uint64(ni.ID)))
		for v := range ni.queues {
			q := &ni.queues[v]
			w.Uvarint(uint64(q.len()))
			for i := 0; i < q.len(); i++ {
				w.U64(q.at(i).ID)
			}
		}
		w.Int(ni.vnRR)
		w.Int(ni.openStreams)
		w.Int(ni.rxOpen)
		w.Bool(ni.gated)
		w.I64(ni.act.QueueOccupancySum)
		w.I64(ni.act.EnqueuedPackets)
		w.I64(ni.act.InjectedPackets)
		w.I64(ni.act.DeliveredPackets)
		w.I64(ni.act.DeliveredFlits)
		w.I64(ni.act.QueuingCycles)
	}

	// Routers, in tile order. A parked router with a clean splice cache is
	// copied from its previous serialization instead of re-walked; parked
	// routers dominate a mostly-idle mesh, so this turns the snapshot walk
	// from O(chip) into O(active region) + a memcpy.
	w.Uvarint(uint64(len(n.routers)))
	for _, r := range n.routers {
		w.Mark(snap.PartKey(partNetRouter, uint64(r.ID)))
		if r.parked && r.snapClean && r.snapBytes != nil {
			if SnapshotVerify {
				if err := verifySplice("router", int(r.ID), r.snapBytes, func(vw *snap.Writer) { r.snapshot(vw) }); err != nil {
					return err
				}
			}
			w.Raw(r.snapBytes)
			continue
		}
		start := w.Len()
		r.snapshot(w)
		r.snapBytes = append(r.snapBytes[:0], w.Bytes()[start:]...)
		r.snapClean = r.parked
	}

	// Injectors, in the deterministic injection-list order (which is the
	// sorted (router, port) order and is reproduced by the wiring replay).
	w.Uvarint(uint64(len(n.injList)))
	for _, inj := range n.injList {
		w.Mark(snap.PartKey(partNetInjector, uint64(inj.router.ID)<<8|uint64(inj.port)))
		w.Int(int(inj.router.ID))
		w.Int(inj.port)
		w.Int(inj.rr)
		w.Uvarint(uint64(len(inj.credits)))
		for _, c := range inj.credits {
			w.Int(c)
		}
		w.Uvarint(uint64(len(inj.streams)))
		for _, st := range inj.streams {
			w.Int(int(st.ni.ID))
			w.Bool(st.cur != nil)
			if st.cur != nil {
				w.U64(st.cur.ID)
				w.Int(st.nextSeq)
				w.Int(st.vcFlat)
			}
		}
	}

	// Channels in canonical order, with in-flight contents. Like parked
	// routers, quiet channels splice their cached serialization.
	chs := n.sortedChannels()
	w.Uvarint(uint64(len(chs)))
	for _, ch := range chs {
		w.Mark(channelPartKey(ch))
		if !ch.queued && ch.snapClean && ch.snapBytes != nil {
			if SnapshotVerify {
				if err := verifySplice("channel", int(ch.From.Router), ch.snapBytes, ch.snapshot); err != nil {
					return err
				}
			}
			w.Raw(ch.snapBytes)
			continue
		}
		start := w.Len()
		ch.snapshot(w)
		ch.snapBytes = append(ch.snapBytes[:0], w.Bytes()[start:]...)
		ch.snapClean = !ch.queued
	}
	return nil
}

// snapshot writes one channel's dynamic state.
func (ch *Channel) snapshot(w *snap.Writer) {
	snapshotEndpoint(w, ch.From)
	snapshotEndpoint(w, ch.To)
	w.I64(int64(ch.lastSend))
	w.Bool(ch.sentAny)
	w.I64(ch.FlitsCarried)
	w.I64(ch.harvested)
	w.Uvarint(uint64(len(ch.fwd) - ch.fwdHead))
	for _, e := range ch.fwd[ch.fwdHead:] {
		w.U64(e.flit.Pkt.ID)
		w.Int(e.flit.Seq)
		w.Int(e.flit.VC)
		w.I64(int64(e.deliverAt))
	}
	w.Uvarint(uint64(len(ch.rev) - ch.revHead))
	for _, e := range ch.rev[ch.revHead:] {
		w.Int(e.credit.vc)
		w.I64(int64(e.deliverAt))
	}
}

// SnapshotVerify makes Snapshot re-serialize every component it would
// splice from cache and fail loudly on any byte difference — the tripwire
// for a mutation site missing its snapClean clear. Tests arm it;
// production leaves it off.
var SnapshotVerify = false

func verifySplice(kind string, id int, cached []byte, build func(*snap.Writer)) error {
	var vw snap.Writer
	build(&vw)
	if !bytes.Equal(vw.Bytes(), cached) {
		return fmt.Errorf("noc: %s %d changed while marked snapshot-clean — missed mutation site", kind, id)
	}
	return nil
}

// snapshot writes one router's dynamic state.
func (r *Router) snapshot(w *snap.Writer) {
	w.I64(int64(r.tableReadyAt))
	w.Bool(r.disabled)
	w.Bool(r.asleep)
	w.I64(int64(r.wakeAt))
	w.I64(int64(r.lastActive))
	w.Bool(r.parked)
	w.I64(int64(r.parkedAt))
	w.Int(r.vaRR)
	w.I64(r.act.BufferWrites)
	w.I64(r.act.BufferReads)
	w.I64(r.act.CrossbarTrav)
	w.I64(r.act.VAGrants)
	w.I64(r.act.SAGrants)
	w.I64(r.act.OccupancySum)
	w.I64(r.act.ActiveCycles)
	w.I64(r.act.GatedCycles)
	w.I64(r.act.WakeUps)
	w.I64(r.act.BufferedPeak)
	w.I64(r.act.RoutedPackets)

	w.Uvarint(uint64(len(r.inputs)))
	for pi := range r.inputs {
		in := &r.inputs[pi]
		for i := range in.vcs {
			vc := &in.vcs[i]
			w.Uvarint(uint64(vc.n))
			for k := 0; k < vc.n; k++ {
				f := vc.ring[(vc.head+k)%len(vc.ring)]
				w.U64(f.Pkt.ID)
				w.Int(f.Seq)
				w.I64(int64(f.visibleAt))
			}
			w.Bool(vc.routed)
			w.Int(vc.outPort)
			w.Int(vc.classAfter)
			w.Int(vc.outVC)
		}
	}
	for oi := range r.outputs {
		out := &r.outputs[oi]
		w.Bool(out.out != nil)
		if out.out == nil {
			continue
		}
		w.Uvarint(uint64(len(out.credits)))
		for _, c := range out.credits {
			w.Int(c)
		}
		for _, p := range out.owner {
			if p == nil {
				w.U64(0)
			} else {
				w.U64(p.ID)
			}
		}
		w.Int(out.holdPort)
		w.Int(out.holdVC)
		w.Int(out.rr)
	}
}

// Restore overlays a state written by Snapshot onto a freshly built
// network whose static wiring already matches the checkpoint (same
// topology, attachments, and tables). It validates every cross-reference.
func (n *Network) Restore(r *snap.Reader, codec PayloadCodec) error {
	var err error
	if n.nextPkt, err = r.U64(); err != nil {
		return err
	}
	lastTick, err := r.I64()
	if err != nil {
		return err
	}
	n.lastTick = sim.Cycle(lastTick)
	for _, dst := range []*int64{
		&n.TotalEnqueued, &n.TotalDelivered, &n.TotalFlitsInjected, &n.TotalFlitsEjected,
		&n.stats.Cycles, &n.stats.RouterTicks, &n.stats.RouterSkips,
		&n.stats.ChannelTicks, &n.stats.ChannelSkips,
	} {
		if *dst, err = r.I64(); err != nil {
			return err
		}
	}

	// Packets.
	nPkts, err := r.Count(16)
	if err != nil {
		return err
	}
	// Live packets are allocated outside the arena (the arena is execution
	// state, not simulation state); delivery recycles them into pool 0
	// through the ordinary path.
	byID := make(map[uint64]*Packet, nPkts)
	for i := 0; i < nPkts; i++ {
		p := &Packet{}
		if p.ID, err = r.U64(); err != nil {
			return err
		}
		if p.ID == 0 || p.ID > n.nextPkt {
			return fmt.Errorf("noc: packet ID %d out of range", p.ID)
		}
		if byID[p.ID] != nil {
			return fmt.Errorf("noc: duplicate packet %d", p.ID)
		}
		src, err := r.Int()
		if err != nil {
			return err
		}
		dst, err := r.Int()
		if err != nil {
			return err
		}
		if src < 0 || src >= len(n.nis) || dst < 0 || dst >= len(n.nis) {
			return fmt.Errorf("noc: packet %d endpoints %d->%d", p.ID, src, dst)
		}
		p.Src, p.Dst = NodeID(src), NodeID(dst)
		class, err := r.Int()
		if err != nil {
			return err
		}
		p.Class = PacketClass(class)
		vnet, err := r.Int()
		if err != nil {
			return err
		}
		if vnet < 0 || vnet >= NumVNets {
			return fmt.Errorf("noc: packet %d vnet %d", p.ID, vnet)
		}
		p.VNet = VNet(vnet)
		if p.Size, err = r.Int(); err != nil {
			return err
		}
		if p.Size < 1 || p.Size > 1<<16 {
			return fmt.Errorf("noc: packet %d size %d", p.ID, p.Size)
		}
		if p.App, err = r.Int(); err != nil {
			return err
		}
		var at int64
		if at, err = r.I64(); err != nil {
			return err
		}
		p.EnqueuedAt = sim.Cycle(at)
		if at, err = r.I64(); err != nil {
			return err
		}
		p.InjectedAt = sim.Cycle(at)
		if at, err = r.I64(); err != nil {
			return err
		}
		p.EjectedAt = sim.Cycle(at)
		if p.Hops, err = r.Int(); err != nil {
			return err
		}
		if p.datelineClass, err = r.Int(); err != nil {
			return err
		}
		lastDim, err := r.Int()
		if err != nil {
			return err
		}
		if p.rxFlits, err = r.Int(); err != nil {
			return err
		}
		if p.rxFlits < 0 || p.rxFlits > p.Size {
			return fmt.Errorf("noc: packet %d reassembled %d/%d flits", p.ID, p.rxFlits, p.Size)
		}
		hasFlits, err := r.Bool()
		if err != nil {
			return err
		}
		if hasFlits {
			fillFlits(p, make([]Flit, p.Size))
		}
		p.lastDim = int8(lastDim)
		hasPayload, err := r.Bool()
		if err != nil {
			return err
		}
		if hasPayload {
			if codec == nil {
				return fmt.Errorf("noc: checkpoint carries payloads but no codec is installed")
			}
			if p.Payload, err = codec.DecodePayload(r); err != nil {
				return err
			}
		}
		byID[p.ID] = p
	}
	lookup := func(id uint64) (*Packet, error) {
		p := byID[id]
		if p == nil {
			return nil, fmt.Errorf("noc: reference to unknown packet %d", id)
		}
		return p, nil
	}
	// lookupFlit resolves a (packet, seq) pair to the slab flit.
	lookupFlit := func(id uint64, seq int) (*Flit, error) {
		p, err := lookup(id)
		if err != nil {
			return nil, err
		}
		if p.flits == nil {
			return nil, fmt.Errorf("noc: packet %d has flits in flight but no slab", id)
		}
		if seq < 0 || seq >= len(p.flits) {
			return nil, fmt.Errorf("noc: packet %d flit %d of %d", id, seq, len(p.flits))
		}
		return &p.flits[seq], nil
	}

	// NIs.
	nNIs, err := r.Count(8)
	if err != nil {
		return err
	}
	if nNIs != len(n.nis) {
		return fmt.Errorf("noc: checkpoint has %d NIs, network has %d", nNIs, len(n.nis))
	}
	for _, ni := range n.nis {
		for v := range ni.queues {
			qn, err := r.Count(1)
			if err != nil {
				return err
			}
			q := pktQueue{}
			for i := 0; i < qn; i++ {
				id, err := r.U64()
				if err != nil {
					return err
				}
				p, err := lookup(id)
				if err != nil {
					return err
				}
				q.push(p)
			}
			ni.queues[v] = q
		}
		if ni.vnRR, err = r.Int(); err != nil {
			return err
		}
		if ni.vnRR < 0 || ni.vnRR >= NumVNets {
			return fmt.Errorf("noc: NI %d vnet pointer %d", ni.ID, ni.vnRR)
		}
		if ni.openStreams, err = r.Int(); err != nil {
			return err
		}
		if ni.rxOpen, err = r.Int(); err != nil {
			return err
		}
		if ni.gated, err = r.Bool(); err != nil {
			return err
		}
		for _, dst := range []*int64{
			&ni.act.QueueOccupancySum, &ni.act.EnqueuedPackets, &ni.act.InjectedPackets,
			&ni.act.DeliveredPackets, &ni.act.DeliveredFlits, &ni.act.QueuingCycles,
		} {
			if *dst, err = r.I64(); err != nil {
				return err
			}
		}
	}

	// Routers.
	nRouters, err := r.Count(16)
	if err != nil {
		return err
	}
	if nRouters != len(n.routers) {
		return fmt.Errorf("noc: checkpoint has %d routers, network has %d", nRouters, len(n.routers))
	}
	for _, rt := range n.routers {
		rt.snapClean = false
		if err := rt.restore(r, lookupFlit, lookup); err != nil {
			return err
		}
	}

	// Injectors.
	nInj, err := r.Count(4)
	if err != nil {
		return err
	}
	if nInj != len(n.injList) {
		return fmt.Errorf("noc: checkpoint has %d injectors, network has %d", nInj, len(n.injList))
	}
	for _, inj := range n.injList {
		router, err := r.Int()
		if err != nil {
			return err
		}
		port, err := r.Int()
		if err != nil {
			return err
		}
		if NodeID(router) != inj.router.ID || port != inj.port {
			return fmt.Errorf("noc: checkpoint injector (%d,%d), network has (%d,%d)",
				router, port, inj.router.ID, inj.port)
		}
		if inj.rr, err = r.Int(); err != nil {
			return err
		}
		if len(inj.streams) > 0 && (inj.rr < 0 || inj.rr >= len(inj.streams)) {
			return fmt.Errorf("noc: injector (%d,%d) stream pointer %d", router, port, inj.rr)
		}
		nc, err := r.Count(1)
		if err != nil {
			return err
		}
		if nc != len(inj.credits) {
			return fmt.Errorf("noc: injector (%d,%d) has %d credit VCs, checkpoint %d",
				router, port, len(inj.credits), nc)
		}
		for i := range inj.credits {
			if inj.credits[i], err = r.Int(); err != nil {
				return err
			}
			if inj.credits[i] < 0 || inj.credits[i] > inj.depth {
				return fmt.Errorf("noc: injector (%d,%d) vc %d credits %d", router, port, i, inj.credits[i])
			}
		}
		ns, err := r.Count(2)
		if err != nil {
			return err
		}
		if ns != len(inj.streams) {
			return fmt.Errorf("noc: injector (%d,%d) has %d streams, checkpoint %d",
				router, port, len(inj.streams), ns)
		}
		for i := range inj.owner {
			inj.owner[i] = nil
		}
		for _, st := range inj.streams {
			niID, err := r.Int()
			if err != nil {
				return err
			}
			if NodeID(niID) != st.ni.ID {
				return fmt.Errorf("noc: injector (%d,%d) stream NI %d, checkpoint %d",
					router, port, st.ni.ID, niID)
			}
			open, err := r.Bool()
			if err != nil {
				return err
			}
			if !open {
				st.cur, st.flits, st.nextSeq, st.vcFlat = nil, nil, 0, 0
				continue
			}
			id, err := r.U64()
			if err != nil {
				return err
			}
			p, err := lookup(id)
			if err != nil {
				return err
			}
			if p.flits == nil {
				return fmt.Errorf("noc: open stream for packet %d without a slab", id)
			}
			st.cur = p
			st.flits = p.flits
			if st.nextSeq, err = r.Int(); err != nil {
				return err
			}
			if st.nextSeq < 0 || st.nextSeq > p.Size {
				return fmt.Errorf("noc: stream position %d of packet %d (size %d)", st.nextSeq, id, p.Size)
			}
			if st.vcFlat, err = r.Int(); err != nil {
				return err
			}
			if st.vcFlat < 0 || st.vcFlat >= len(inj.owner) {
				return fmt.Errorf("noc: stream VC %d of injector (%d,%d)", st.vcFlat, router, port)
			}
			if inj.owner[st.vcFlat] != nil {
				return fmt.Errorf("noc: two streams own injector (%d,%d) vc %d", router, port, st.vcFlat)
			}
			inj.owner[st.vcFlat] = p
		}
	}

	// Channels.
	chs := n.sortedChannels()
	nCh, err := r.Count(16)
	if err != nil {
		return err
	}
	if nCh != len(chs) {
		return fmt.Errorf("noc: checkpoint has %d channels, network has %d", nCh, len(chs))
	}
	for _, ch := range chs {
		from, err := restoreEndpoint(r)
		if err != nil {
			return err
		}
		to, err := restoreEndpoint(r)
		if err != nil {
			return err
		}
		if from != ch.From || to != ch.To {
			return fmt.Errorf("noc: checkpoint channel %v->%v, network has %v->%v", from, to, ch.From, ch.To)
		}
		lastSend, err := r.I64()
		if err != nil {
			return err
		}
		ch.lastSend = sim.Cycle(lastSend)
		if ch.sentAny, err = r.Bool(); err != nil {
			return err
		}
		if ch.FlitsCarried, err = r.I64(); err != nil {
			return err
		}
		if ch.harvested, err = r.I64(); err != nil {
			return err
		}
		nf, err := r.Count(4)
		if err != nil {
			return err
		}
		ch.fwd, ch.fwdHead = ch.fwd[:0], 0
		for i := 0; i < nf; i++ {
			id, err := r.U64()
			if err != nil {
				return err
			}
			seq, err := r.Int()
			if err != nil {
				return err
			}
			f, err := lookupFlit(id, seq)
			if err != nil {
				return err
			}
			if f.VC, err = r.Int(); err != nil {
				return err
			}
			at, err := r.I64()
			if err != nil {
				return err
			}
			ch.fwd = append(ch.fwd, inFlight{flit: f, deliverAt: sim.Cycle(at)})
		}
		nr, err := r.Count(2)
		if err != nil {
			return err
		}
		ch.rev, ch.revHead = ch.rev[:0], 0
		for i := 0; i < nr; i++ {
			vc, err := r.Int()
			if err != nil {
				return err
			}
			at, err := r.I64()
			if err != nil {
				return err
			}
			ch.rev = append(ch.rev, inFlight{isCredit: true, credit: creditMsg{vc: vc}, deliverAt: sim.Cycle(at)})
		}
		ch.queued = false
		ch.snapClean = false
	}

	// Work lists are not serialized; the carve scheduled here rebuilds
	// them from the restored live state (Busy channels, unparked routers)
	// before the next Tick.
	n.carveDirty = true
	return nil
}

// restore overlays one router's dynamic state; lookupFlit and lookup
// resolve packet references against the restored packet table.
func (r *Router) restore(rd *snap.Reader, lookupFlit func(uint64, int) (*Flit, error), lookup func(uint64) (*Packet, error)) error {
	var err error
	var at int64
	if at, err = rd.I64(); err != nil {
		return err
	}
	r.tableReadyAt = sim.Cycle(at)
	if r.disabled, err = rd.Bool(); err != nil {
		return err
	}
	if r.asleep, err = rd.Bool(); err != nil {
		return err
	}
	if at, err = rd.I64(); err != nil {
		return err
	}
	r.wakeAt = sim.Cycle(at)
	if at, err = rd.I64(); err != nil {
		return err
	}
	r.lastActive = sim.Cycle(at)
	if r.parked, err = rd.Bool(); err != nil {
		return err
	}
	if at, err = rd.I64(); err != nil {
		return err
	}
	r.parkedAt = sim.Cycle(at)
	if r.vaRR, err = rd.Int(); err != nil {
		return err
	}
	for _, dst := range []*int64{
		&r.act.BufferWrites, &r.act.BufferReads, &r.act.CrossbarTrav,
		&r.act.VAGrants, &r.act.SAGrants, &r.act.OccupancySum,
		&r.act.ActiveCycles, &r.act.GatedCycles, &r.act.WakeUps,
		&r.act.BufferedPeak, &r.act.RoutedPackets,
	} {
		if *dst, err = rd.I64(); err != nil {
			return err
		}
	}

	nPorts, err := rd.Count(1)
	if err != nil {
		return err
	}
	if nPorts != len(r.inputs) {
		return fmt.Errorf("noc: router %d has %d ports, checkpoint %d", r.ID, len(r.inputs), nPorts)
	}
	r.buffered = 0
	nvc := NumVNets * r.cfg.VCsPerVNet
	for pi := range r.inputs {
		in := &r.inputs[pi]
		in.occupied = 0
		in.liveMask = 0
		for i := range in.vcs {
			vc := &in.vcs[i]
			for vc.n > 0 {
				vc.pop()
			}
			vc.head = 0
			depth, err := rd.Count(9)
			if err != nil {
				return err
			}
			if depth > r.cfg.VCDepth {
				return fmt.Errorf("noc: router %d port %d vc %d holds %d flits, depth %d",
					r.ID, pi, i, depth, r.cfg.VCDepth)
			}
			for k := 0; k < depth; k++ {
				id, err := rd.U64()
				if err != nil {
					return err
				}
				seq, err := rd.Int()
				if err != nil {
					return err
				}
				f, err := lookupFlit(id, seq)
				if err != nil {
					return err
				}
				if at, err = rd.I64(); err != nil {
					return err
				}
				f.visibleAt = sim.Cycle(at)
				f.VC = i
				vc.push(f)
			}
			if depth > 0 {
				in.occupied += depth
				r.buffered += depth
				if i < 64 {
					in.liveMask |= 1 << uint(i)
				}
			}
			if vc.routed, err = rd.Bool(); err != nil {
				return err
			}
			if vc.outPort, err = rd.Int(); err != nil {
				return err
			}
			if vc.routed && (vc.outPort < 0 || vc.outPort >= len(r.outputs)) {
				return fmt.Errorf("noc: router %d vc routed to port %d of %d", r.ID, vc.outPort, len(r.outputs))
			}
			if vc.classAfter, err = rd.Int(); err != nil {
				return err
			}
			if vc.outVC, err = rd.Int(); err != nil {
				return err
			}
			if vc.outVC >= nvc {
				return fmt.Errorf("noc: router %d vc allocated downstream vc %d of %d", r.ID, vc.outVC, nvc)
			}
		}
	}

	r.heldMask = 0
	r.reqMask = 0
	for oi := range r.outputs {
		out := &r.outputs[oi]
		hasOut, err := rd.Bool()
		if err != nil {
			return err
		}
		if hasOut != (out.out != nil) {
			return fmt.Errorf("noc: router %d port %d attachment mismatch (checkpoint %v)", r.ID, oi, hasOut)
		}
		if !hasOut {
			continue
		}
		nc, err := rd.Count(1)
		if err != nil {
			return err
		}
		if nc != len(out.credits) {
			return fmt.Errorf("noc: router %d port %d has %d credit VCs, checkpoint %d",
				r.ID, oi, len(out.credits), nc)
		}
		for i := range out.credits {
			if out.credits[i], err = rd.Int(); err != nil {
				return err
			}
			if out.credits[i] < 0 || out.credits[i] > out.depth {
				return fmt.Errorf("noc: router %d port %d vc %d credits %d", r.ID, oi, i, out.credits[i])
			}
		}
		for i := range out.owner {
			id, err := rd.U64()
			if err != nil {
				return err
			}
			if id == 0 {
				out.owner[i] = nil
				continue
			}
			if out.owner[i], err = lookup(id); err != nil {
				return err
			}
		}
		if out.holdPort, err = rd.Int(); err != nil {
			return err
		}
		if out.holdVC, err = rd.Int(); err != nil {
			return err
		}
		if out.holdPort != -1 {
			if out.holdPort < 0 || out.holdPort >= len(r.inputs) ||
				out.holdVC < 0 || out.holdVC >= nvc {
				return fmt.Errorf("noc: router %d port %d hold (%d,%d)", r.ID, oi, out.holdPort, out.holdVC)
			}
			if oi < 64 {
				r.heldMask |= 1 << uint(oi)
			}
		}
		if out.rr, err = rd.Int(); err != nil {
			return err
		}
		if total := len(r.inputs) * nvc; out.rr < 0 || out.rr >= total {
			return fmt.Errorf("noc: router %d port %d arbitration pointer %d", r.ID, oi, out.rr)
		}
	}
	return nil
}
