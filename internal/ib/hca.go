package ib

import (
	"fmt"
	"sync"

	"repro/internal/des"
	"repro/internal/model"
	"repro/internal/switchfab"
)

// HCA is a simulated host channel adapter attached to one node. It owns
// the key tables, the receive path (granules arriving from the wire cross
// the node's memory bus), and the responder-side RDMA read engine.
type HCA struct {
	node *model.Node
	eng  *des.Engine
	prm  *model.Params
	bus  *model.Bus // the DMA path: the node bus (rail 0) or a rail bus

	pdSeq  int
	qpSeq  uint32
	shared bool           // engine is sharded: key-table access must lock
	keyMu  sync.RWMutex   // guards keySeq, the key table and MR.valid:
	keySeq uint32         // registration runs on the owning shard, but remote
	mrs    map[uint32]*MR // requesters validate rkeys from their own shard; by lkey

	qps       []*QP    // every QP created on this adapter (fault fan-out)
	down      bool     // link administratively down (LinkDown)
	dropUntil des.Time // packet-drop window end (InjectDropBurst)

	// Switch attachment (AttachSwitch). nil sw keeps the flat model: every
	// crossing costs exactly WireLatency, bit-identical to the pre-switch
	// code path.
	sw   *switchfab.Plane
	leaf int // this adapter's leaf switch in sw

	rxq   des.Queue[rxItem]
	readq des.Queue[*sendWork] // RDMA read and atomic requests to serve
	free  []*sendWork          // recycled work requests (newWork, freeWork)

	// What the adapter's two engines, stackless tasks (DESIGN.md §17), would
	// keep on a stack.
	rxIt   rxItem     // rxStep: the granule crossing the bus
	rxXfer model.Xfer // and how far it has got
	rr     *sendWork  // readStep: the request being served, nil when idle
	rrTx   stream     // and its response, once the turnaround is over

	stats HCAStats
}

// HCAStats counts adapter-level activity.
type HCAStats struct {
	BytesInjected  uint64
	BytesDelivered uint64
	MRsRegistered  uint64
}

// rxItem is one granule arriving from the wire. w, when non-nil, is the
// work request whose payload this granule ends: it lands (sendWork.landed)
// after the granule crosses the memory bus.
type rxItem struct {
	bytes int
	w     *sendWork
}

// Node returns the node the adapter is attached to.
func (h *HCA) Node() *model.Node { return h.node }

// Params returns the testbed cost model.
func (h *HCA) Params() *model.Params { return h.prm }

// Stats returns a copy of the adapter counters.
func (h *HCA) Stats() HCAStats { return h.stats }

// Bus returns the adapter's DMA path: the node's primary bus for rail 0,
// a dedicated rail (PCI segment) bus otherwise. All of a node's buses
// share the node memory controller.
func (h *HCA) Bus() *model.Bus { return h.bus }

// Down reports whether the adapter's link is down (fault injection).
func (h *HCA) Down() bool { return h.down }

// AttachSwitch routes this adapter's wire crossings through a switch
// plane: the adapter hangs off the given leaf, and cross-leaf paths pay
// two hops of latency plus per-port queueing. The cluster attaches rail
// k's adapters to plane k during construction, before any traffic.
func (h *HCA) AttachSwitch(sw *switchfab.Plane, leaf int) {
	h.sw, h.leaf = sw, leaf
}

// pathLatency is the contention-free first-byte latency from this
// adapter to dst: the flat WireLatency inside a leaf (the leaf crossbar
// is non-blocking, as the original 8-port InfiniScale testbed was), plus
// two switch hops across leaves.
func (h *HCA) pathLatency(dst *HCA) des.Time {
	if h.sw == nil || h.sw != dst.sw || h.leaf == dst.leaf {
		return h.prm.WireLatency
	}
	return h.prm.WireLatency + 2*switchfab.HopLatency
}

// crossCtl carries a control message (completion ack, read request, NAK)
// to dst's engine after the path latency. Control traffic is headers:
// it crosses the switch without booking uplink bandwidth.
func (h *HCA) crossCtl(dst *HCA, fn func()) {
	h.eng.AfterOn(dst.eng, h.pathLatency(dst), fn)
}

// crossData carries one payload granule into dst's receive queue; w, when
// non-nil, lands after it. On a cross-leaf path the granule books the
// source leaf's uplink chosen by the destination route (queueing charged
// here, on the engine owning the source leaf), crosses at the path latency
// plus that wait, then books the destination leaf's matching downlink
// (arrive) before entering dst's receive path. Every cross-engine delay is >= WireLatency — the sharded group's
// lookahead — so the conservative-window protocol is untouched; the
// downlink wait is a destination-local After. Per-flow granule order
// survives the variable delay because each port's departures are
// strictly increasing (switchfab.portClock). The granule rides in the event
// itself (des.Handler), so a crossing allocates nothing.
func (h *HCA) crossData(dst *HCA, bytes int, w *sendWork) {
	var hd des.Handler = (*granule)(dst)
	if w != nil {
		hd = (*lastGranule)(w)
	}
	d, arg := h.prm.WireLatency, uint64(bytes)
	if h.sw != nil && h.sw == dst.sw && h.leaf != dst.leaf {
		d += 2*switchfab.HopLatency + h.sw.Up(h.leaf, h.sw.Route(dst.node.ID), bytes, h.eng.Now())
		arg |= viaSwitch
	}
	h.eng.AfterOnArg(dst.eng, d, hd, arg)
}

// granule and lastGranule are the granules in flight: one that only crosses
// the destination adapter's bus, and the one that ends a work request's
// payload. The event argument is the byte count, plus viaSwitch until the
// downlink is booked.
type granule HCA
type lastGranule sendWork

const viaSwitch = 1 << 32

func (g *granule) Handle(arg uint64) { (*HCA)(g).arrive(g, arg, nil) }

func (l *lastGranule) Handle(arg uint64) { w := (*sendWork)(l); w.dest().arrive(l, arg, w) }

// arrive takes a granule off the wire, on the destination's engine: behind
// the leaf's downlink if it crossed the switch, then into the receive path.
func (h *HCA) arrive(hd des.Handler, arg uint64, w *sendWork) {
	bytes := int(uint32(arg))
	if arg&viaSwitch != 0 {
		if wait := h.sw.Down(h.leaf, h.sw.Route(h.node.ID), bytes, h.eng.Now()); wait > 0 {
			h.eng.AfterOnArg(h.eng, wait, hd, uint64(bytes))
			return
		}
	}
	h.rxq.Put(rxItem{bytes: bytes, w: w})
}

// LinkDown fails the adapter's link: every connected queue pair through it
// — and each one's remote peer — transitions to the error state with
// queued work flushed (QP.Fail) — and every watch of the node is notified,
// the one node-wide notification. The fault-injection entry point for link
// and adapter failures.
func (h *HCA) LinkDown() {
	if h.down {
		return
	}
	h.down = true
	for _, qp := range h.qps {
		if qp.state != QPReadyToSend {
			continue
		}
		peer := qp.peer
		qp.fail()
		if peer != nil {
			peer.fail()
		}
	}
	h.node.NotifyAll()
}

// LinkUp restores a downed link. Queue pairs errored by the outage stay
// errored — as on real adapters, recovery means tearing the connection
// down and re-dialing — but new connections may be established through the
// adapter again; every watch of the node is notified.
func (h *HCA) LinkUp() {
	if !h.down {
		return
	}
	h.down = false
	h.node.NotifyAll()
}

// InjectDropBurst opens a packet-drop window on the link until the given
// absolute simulated time: sends crossing the adapter in that window back
// off and retransmit with a bounded retry budget (QP.sendStep),
// modelling a lossy interval rather than a hard failure.
func (h *HCA) InjectDropBurst(until des.Time) {
	if until > h.dropUntil {
		h.dropUntil = until
	}
}

// WaitMemory blocks until pred() becomes true, re-evaluating after every
// notification of the node's default watch — the one queues no rank owns
// notify (CreateCQ) — then charges the poll-detection latency. This models
// the spin-polling on ring-buffer flags used by the piggybacking design
// (§4.3) without simulating every poll iteration.
func (h *HCA) WaitMemory(p *des.Proc, pred func() bool) {
	h.node.DefaultWatch().Wait(p, pred)
}

// rxStep is the adapter's receive engine: every granule arriving from the
// wire crosses the adapter's bus at the network rate (the PCI-X DMA
// write), then lands the work request it ends, if any.
func (h *HCA) rxStep(t *des.Task) {
	for {
		if h.rxXfer.Left() == 0 { // between granules
			it, ok := h.rxq.GetTask(t)
			if !ok {
				return
			}
			h.rxIt = it
			h.rxXfer.Begin(h.bus, it.bytes, h.prm.NetBandwidth)
		}
		for h.rxXfer.Left() > 0 {
			if _, ok := h.rxXfer.Granule(t); !ok {
				return
			}
		}
		h.stats.BytesDelivered += uint64(h.rxIt.bytes)
		if w := h.rxIt.w; w != nil {
			w.landed()
		}
	}
}

// stream is w's payload on its way from adapter src to w.dest(): granule by
// granule through src's bus at the network rate, each granule handed to the
// destination's receive path one path latency (plus any switch queueing)
// after it leaves. w lands after the final granule has crossed that bus. A
// zero-length transfer still traverses the wire as a single header —
// through crossData, not crossCtl, so it cannot overtake earlier payload
// granules of the same flow.
type stream struct {
	src  *HCA
	w    *sendWork
	xfer model.Xfer
}

func (s *stream) begin(src *HCA, w *sendWork) {
	s.src, s.w = src, w
	s.xfer.Begin(src.bus, w.n, src.prm.NetBandwidth)
	if w.n == 0 {
		src.crossData(w.dest(), 0, w)
	}
}

// step sends granules until one has to wait (false: t is parked).
func (s *stream) step(t *des.Task) bool {
	for s.xfer.Left() > 0 {
		chunk, ok := s.xfer.Granule(t)
		if !ok {
			return false
		}
		var w *sendWork
		if s.xfer.Left() == 0 {
			w = s.w
		}
		s.src.crossData(s.w.dest(), chunk, w)
	}
	return true
}

// readStep serves incoming RDMA read and atomic requests: validate
// the rkey, charge the responder turnaround, and stream the response through
// this node's bus to the requester's receive path. The responder's memory is
// not copied here: the work request keeps the validated source range and
// the bytes move into the requester's scatter list when the last granule
// lands (sendWork.atRequester) — except inline-sized responses and atomic
// results, which are taken by value now. One engine per adapter: concurrent
// readers of the same node serialize here, as they do on the real responder.
func (h *HCA) readStep(t *des.Task) {
	for {
		w := h.rr
		switch {
		case w == nil:
			var ok bool
			if h.rr, ok = h.readq.GetTask(t); ok {
				t.Sleep(h.prm.ReadTurnaround)
			}
			return
		case h.rrTx.w != w: // the turnaround is over
			if !h.respond(w) {
				h.rr = nil
				continue
			}
			h.rrTx.begin(h, w)
		}
		if !h.rrTx.step(t) {
			return
		}
		h.rr, h.rrTx.w = nil, nil
	}
}

// respond validates read or atomic request w, executes an atomic at the
// responder's memory and fixes the response payload; false: refused, NAKed.
func (h *HCA) respond(w *sendWork) bool {
	qp := w.qp
	atomic := w.wr.Op != OpRDMARead
	need := AccessRemoteRead
	if atomic {
		need = AccessRemoteAtomic
	}
	if err := h.checkRemote(w.wr.RemoteAddr, w.n, w.wr.RKey, qp.peer.pd, need); err != nil {
		qp.ack(w, StatusRemoteAccessErr)
		return false
	}
	src := h.node.Mem.MustResolve(w.wr.RemoteAddr, w.n)
	if atomic {
		orig := readUint64(src)
		switch w.wr.Op {
		case OpCmpSwap:
			if orig == w.wr.Compare {
				writeUint64(src, w.wr.Swap)
			}
		case OpFetchAdd:
			writeUint64(src, orig+w.wr.Compare)
		}
		qp.peer.watch.Notify()
		src = w.inline[:8]
		writeUint64(src, orig)
	}
	w.src = append(w.src[:0], src)
	w.own()
	return true
}

// Fabric is the switched network connecting the adapters. The InfiniScale
// switch in the testbed is non-blocking for 8 ports, so the fabric adds
// latency (folded into WireLatency) but no internal contention; endpoint
// contention lives on the node memory buses.
type Fabric struct {
	eng *des.Engine
	prm *model.Params
}

// NewFabric creates an empty fabric over the given engine and cost model.
func NewFabric(eng *des.Engine, prm *model.Params) *Fabric {
	return &Fabric{eng: eng, prm: prm}
}

// NewHCA attaches the node's primary (rail 0) adapter and starts its
// receive and read-responder engines. Its DMA path is the node bus.
func (f *Fabric) NewHCA(node *model.Node) *HCA {
	return f.NewRailHCA(node, 0)
}

// NewRailHCA attaches one adapter of a multi-rail node. Rail 0 drives the
// node's primary bus; each further rail gets a dedicated PCI-segment bus
// sharing the node memory controller, so rails pace their DMA at their own
// NetBandwidth but aggregate no further than the node's MemBandwidth.
func (f *Fabric) NewRailHCA(node *model.Node, rail int) *HCA {
	return f.NewRailHCAOn(f.eng, node, rail)
}

// hcaSalt is the lineage-key domain for adapter engine start events.
const hcaSalt = 0x4942_4843 // "IBHC"

// NewRailHCAOn is NewRailHCA with the adapter's engine chosen by the
// caller — in sharded execution the shard owning the node, so the adapter's
// service engines and every event they schedule stay shard-local. Their
// start events are seeded with the (node, rail) identity, keeping start
// order identical across serial and sharded runs.
func (f *Fabric) NewRailHCAOn(eng *des.Engine, node *model.Node, rail int) *HCA {
	bus := node.Bus
	if rail > 0 {
		bus = node.NewRailBus(fmt.Sprintf("node%d.pcix%d", node.ID, rail))
	}
	h := &HCA{
		node:   node,
		eng:    eng,
		prm:    f.prm,
		bus:    bus,
		shared: eng.Sharded(),
		keySeq: 0x100,
		mrs:    make(map[uint32]*MR),
	}
	eng.SpawnTaskSeeded(des.Salt(hcaSalt, uint64(node.ID), uint64(rail), 0),
		fmt.Sprintf("hca%d.%d.rx", node.ID, rail), true, h.rxStep)
	eng.SpawnTaskSeeded(des.Salt(hcaSalt, uint64(node.ID), uint64(rail), 1),
		fmt.Sprintf("hca%d.%d.readresp", node.ID, rail), true, h.readStep)
	return h
}

// Connect pairs two queue pairs into a reliable connection and moves both
// to the ready-to-send state.
func Connect(a, b *QP) error {
	if a.hca == b.hca {
		return fmt.Errorf("ib: loopback connections not supported")
	}
	if a.state != QPReset || b.state != QPReset {
		return fmt.Errorf("ib: Connect requires both QPs in RESET")
	}
	a.peer, b.peer = b, a
	a.state, b.state = QPReadyToSend, QPReadyToSend
	return nil
}
