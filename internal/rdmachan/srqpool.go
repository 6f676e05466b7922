package rdmachan

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/regcache"
)

// SRQPool is one process's shared receive machinery for the SRQ-backed
// eager mode (DESIGN.md §9): a pool of registered eager slots feeding one
// shared receive queue, one shared receive CQ and one shared send CQ that
// every connection's queue pair attaches to, a staging pool for outbound
// eager packets, and the process's pin-down cache for rendezvous buffers.
//
// This is the memory model that breaks the paper's per-pair coupling: the
// chunk-ring designs dedicate RingSize×2 bytes to every connection, so a
// fully wired process pays O(np); a pool-backed process pays O(1) for the
// pool plus a queue pair per *active* connection, however many peers
// exist. The flow control changes with it — no per-peer credit ring exists
// to return credits on, so receivers refill the shared queue (repost on
// consume, accelerated by the SRQ low-watermark event) and senders ride
// the limited-retry RNR protocol when a burst outruns the refill
// (ib.SRQ, QP.deliverSend).
type SRQPool struct {
	cqRouter // completions of signaled work connections post on their queue pairs

	resilient bool
	hca       *ib.HCA
	node      *model.Node
	prm       *model.Params

	pd  *ib.PD
	srq *ib.SRQ
	rcq *ib.CQ // shared receive CQ: one poll reaps arrivals from every peer
	scq *ib.CQ // shared send CQ

	recvVA  uint64
	recv    []byte
	recvMR  *ib.MR
	recvWRs []ib.RecvWR // per-slot descriptors, built once and reposted as-is

	sendVA   uint64
	send     []byte
	sendMR   *ib.MR
	sendFree []int
	sendWRs  []ib.SendWR // per-slot work requests (WRID = slot), reused
	sendCBs  []stagedCB  // per-slot completion callbacks (one in flight per slot)

	conns map[uint32]SRQDispatch

	limitFn  func() // persistent low-watermark handler (re-armed, not rebuilt)
	lastSeq  uint64 // adapter event seq at the last poll
	everSeen bool   // lastSeq holds a real snapshot

	regc  *regcache.Cache
	onErr func(error)
	stats SRQPoolStats
}

// SRQDispatch consumes packets arriving into pool slots — one per bound
// queue pair (the CH3 SRQ connection, internal/ch3).
type SRQDispatch interface {
	HandleSRQPacket(p *des.Proc, pkt []byte)
}

// SRQPoolStats counts pool activity.
type SRQPoolStats struct {
	Reposts     uint64 // recv slots returned to the shared queue
	LimitWakes  uint64 // low-watermark events that woke the progress loop
	RNRNaks     uint64 // receiver-not-ready NAKs (from the SRQ)
	RecvsPosted uint64 // descriptors ever posted (from the SRQ)
}

// The pool's geometry, one for every process (Shipman et al., IPDPS 2006):
// SRQSlots receive slots of SRQSlotSize bytes shared by every peer, a
// low-watermark wake when SRQLowWater of them remain posted, and
// SRQSendSlots outbound staging slots (senders stall, not ring-buffer
// credits, when those run out). The slot size includes the packet header;
// it is the SRQ mode's eager/rendezvous switch.
const (
	SRQSlots     = 32
	SRQSlotSize  = 8 << 10
	SRQLowWater  = SRQSlots / 4
	SRQSendSlots = 16
)

// NewSRQPool builds the per-process pool on the rank's adapter: allocates
// and registers the receive and send slot arrays, posts every receive slot
// to a fresh SRQ, and arms the low-watermark event. onErr receives fatal
// transport errors (the rank's engine failure callback). resilient selects
// fault-survival mode (DESIGN.md §11): connections on the pool retain
// packets until acknowledged and recover from link failures by re-dialing.
func NewSRQPool(p *des.Proc, cfg Config, h *ib.HCA, resilient bool, onErr func(error)) (*SRQPool, error) {
	cfg = cfg.withDefaults()
	sp := &SRQPool{
		resilient: resilient,
		hca:       h,
		node:      h.Node(),
		prm:       h.Params(),
		conns:     make(map[uint32]SRQDispatch),
		onErr:     onErr,
	}
	sp.pd = h.AllocPD()
	sp.rcq = h.CreateCQ()
	sp.scq = h.CreateCQ()
	sp.srq = h.CreateSRQ(sp.pd)

	n := SRQSlots * SRQSlotSize
	sp.recvVA, sp.recv = sp.node.Mem.Alloc(n)
	var err error
	sp.recvMR, err = h.RegisterMR(p, sp.pd, sp.recvVA, n, ib.AccessLocalWrite)
	if err != nil {
		return nil, fmt.Errorf("rdmachan(srq): recv pool: %w", err)
	}
	m := SRQSendSlots * SRQSlotSize
	sp.sendVA, sp.send = sp.node.Mem.Alloc(m)
	if sp.sendMR, err = h.RegisterMR(p, sp.pd, sp.sendVA, m, ib.AccessLocalWrite); err != nil {
		return nil, fmt.Errorf("rdmachan(srq): send pool: %w", err)
	}
	sendSGEs := make([]ib.SGE, SRQSendSlots)
	sp.sendWRs = make([]ib.SendWR, SRQSendSlots)
	sp.sendCBs = make([]stagedCB, SRQSendSlots)
	for i := 0; i < SRQSendSlots; i++ {
		sp.sendFree = append(sp.sendFree, i)
		sendSGEs[i] = ib.SGE{
			Addr: sp.sendVA + uint64(i*SRQSlotSize),
			LKey: sp.sendMR.LKey(),
		}
		sp.sendWRs[i] = ib.SendWR{
			WRID: uint64(i), Op: ib.OpSend, Signaled: true,
			SGL: sendSGEs[i : i+1 : i+1],
		}
	}
	sges := make([]ib.SGE, SRQSlots)
	sp.recvWRs = make([]ib.RecvWR, SRQSlots)
	for i := 0; i < SRQSlots; i++ {
		sges[i] = ib.SGE{
			Addr: sp.recvVA + uint64(i*SRQSlotSize),
			Len:  SRQSlotSize,
			LKey: sp.recvMR.LKey(),
		}
		sp.recvWRs[i] = ib.RecvWR{WRID: uint64(i), SGL: sges[i : i+1 : i+1]}
		sp.postSlot(p, i)
	}
	sp.limitFn = func() {
		sp.stats.LimitWakes++
		sp.hca.NotifyMemWrite()
	}
	sp.arm()

	sp.regc = regcache.New(h, sp.pd, cfg.RegCacheBytes)
	return sp, nil
}

// postSlot returns receive slot i to the shared queue, reusing the
// descriptor built at pool construction — the refill path allocates
// nothing.
func (sp *SRQPool) postSlot(p *des.Proc, i int) {
	sp.srq.PostRecv(p, sp.recvWRs[i])
}

// arm re-arms the low-watermark event: when the shared queue drains below
// the watermark between polls, wake every progress loop on this node so a
// refill happens promptly instead of on the next scheduled poll.
func (sp *SRQPool) arm() {
	sp.srq.Arm(SRQLowWater, sp.limitFn)
}

// CreateQP allocates a connection queue pair attached to the pool: its
// receive side draws from the shared queue, and both completion paths land
// in the pool's shared CQs.
func (sp *SRQPool) CreateQP() *ib.QP {
	return sp.hca.CreateQPSRQ(sp.pd, sp.scq, sp.rcq, sp.srq)
}

// Bind routes packets arriving on qp to d.
func (sp *SRQPool) Bind(qp *ib.QP, d SRQDispatch) { sp.conns[qp.Num()] = d }

// Bound reports the connections attached to this pool — the load signal
// the weighted rail policy assigns new SRQ connections by.
func (sp *SRQPool) Bound() int { return len(sp.conns) }

// PD returns the pool's protection domain.
func (sp *SRQPool) PD() *ib.PD { return sp.pd }

// RegCache returns the process's pin-down cache (rendezvous buffers).
func (sp *SRQPool) RegCache() *regcache.Cache { return sp.regc }

// Resilient reports whether the pool runs in fault-survival mode
// (NewSRQPool).
func (sp *SRQPool) Resilient() bool { return sp.resilient }

// HCA returns the adapter the pool lives on.
func (sp *SRQPool) HCA() *ib.HCA { return sp.hca }

// Stats returns pool counters, folding in the SRQ's own.
func (sp *SRQPool) Stats() SRQPoolStats {
	s := sp.stats
	qs := sp.srq.Stats()
	s.RNRNaks = qs.RNRNaks
	s.RecvsPosted = qs.RecvsPosted
	return s
}

// Send stages one packet — hdr followed by the payload bytes — into a free
// send slot and posts it. Both pieces are copied straight into the
// registered slot, so the hot eager path builds no intermediate packet
// buffer. It reports false (and charges nothing) when no staging slot is
// free; the caller retries from its poll loop. onSent runs when the send
// completes end-to-end (the CQE, i.e. the packet was placed in a peer pool
// slot).
func (sp *SRQPool) Send(p *des.Proc, qp *ib.QP, hdr []byte, payload Buffer,
	onSent func(p *des.Proc)) (bool, error) {
	total := len(hdr) + payload.Len
	if total > SRQSlotSize {
		return false, fmt.Errorf("rdmachan(srq): packet of %d bytes exceeds %d-byte slot",
			total, SRQSlotSize)
	}
	var src []byte
	if payload.Len > 0 {
		var err error
		src, err = sp.node.Mem.Resolve(payload.Addr, payload.Len)
		if err != nil {
			return false, fmt.Errorf("rdmachan(srq): send: %w", err)
		}
	}
	slot, ok := sp.takeSlot(p)
	if !ok {
		return false, nil
	}
	dst := sp.send[slot*SRQSlotSize:]
	n := copy(dst, hdr)
	n += copy(dst[n:], src)
	sp.postStaged(p, qp, slot, n, onSent, nil)
	return true, nil
}

// SendPkt stages one pre-assembled packet and posts it, like Send. onFail, when non-nil,
// runs instead of onSent when the send completes in error — connections
// recovering from injected faults retain the packet and resend it after
// re-establishment; without onFail an error completion is fatal to the
// rank, the pre-fault behaviour.
func (sp *SRQPool) SendPkt(p *des.Proc, qp *ib.QP, pkt []byte,
	onSent, onFail func(p *des.Proc)) (bool, error) {
	if len(pkt) > SRQSlotSize {
		return false, fmt.Errorf("rdmachan(srq): packet of %d bytes exceeds %d-byte slot",
			len(pkt), SRQSlotSize)
	}
	slot, ok := sp.takeSlot(p)
	if !ok {
		return false, nil
	}
	n := copy(sp.send[slot*SRQSlotSize:], pkt)
	sp.postStaged(p, qp, slot, n, onSent, onFail)
	return true, nil
}

// takeSlot pops a free staging slot, reaping the send CQ first when the
// free list is dry. A false return is a stall, not charged.
func (sp *SRQPool) takeSlot(p *des.Proc) (int, bool) {
	if len(sp.sendFree) == 0 {
		sp.drainSend(p)
		if len(sp.sendFree) == 0 {
			return 0, false
		}
	}
	slot := sp.sendFree[len(sp.sendFree)-1]
	sp.sendFree = sp.sendFree[:len(sp.sendFree)-1]
	return slot, true
}

// stagedCB holds a staged packet's completion callbacks, slot-indexed: the
// slot is exclusive until its CQE, so no per-send id, closure, or map entry
// is needed.
type stagedCB struct {
	onSent, onFail func(p *des.Proc)
}

// postStaged charges the staging copy of n bytes already placed in slot and
// posts the send, wiring the completion callback that frees the slot. The
// work request is the slot's reused descriptor (WRID = slot); only the
// length varies per packet.
func (sp *SRQPool) postStaged(p *des.Proc, qp *ib.QP, slot, n int,
	onSent, onFail func(p *des.Proc)) {
	// The staging copy crosses the memory bus, like any eager sender copy.
	sp.node.Bus.Memcpy(p, n, n)
	sp.sendCBs[slot] = stagedCB{onSent: onSent, onFail: onFail}
	sp.sendWRs[slot].SGL[0].Len = n
	qp.PostSend(p, sp.sendWRs[slot])
}

func (sp *SRQPool) fail(err error) {
	if sp.onErr != nil {
		sp.onErr(err)
	}
}

// drainSend reaps the shared send CQ: completions of routed work
// (rendezvous writes) go to their class's handler, a staged packet's WRID is
// its staging slot — the slot returns to the free list and the packet's
// callback (a FIN's ack, say) runs.
func (sp *SRQPool) drainSend(p *des.Proc) bool {
	prog := false
	for {
		cqe, ok := sp.scq.TryPoll()
		if !ok {
			return prog
		}
		prog = true
		p.Sleep(sp.prm.CQPollOverhead)
		if sp.route(p, cqe) {
			continue
		}
		if cqe.WRID >= uint64(len(sp.sendCBs)) {
			sp.fail(fmt.Errorf("rdmachan(srq): completion for unknown wr %#x", cqe.WRID))
			continue
		}
		slot := int(cqe.WRID)
		cb := sp.sendCBs[slot]
		sp.sendCBs[slot] = stagedCB{}
		sp.sendFree = append(sp.sendFree, slot)
		if cqe.Status != ib.StatusSuccess {
			if cb.onFail != nil {
				cb.onFail(p)
				continue
			}
			sp.fail(fmt.Errorf("rdmachan(srq): send completed %v", cqe.Status))
			continue
		}
		if cb.onSent != nil {
			cb.onSent(p)
		}
	}
}

// Poll advances the pool one pass: dispatch every arrived packet to its
// connection, repost the consumed slots (the refill half of the SRQ flow
// control), re-arm the low-watermark event, and reap send completions.
//
// The rank's transport engine calls it once per progress pass, as shared
// work ahead of the connections (transport.Engine.AddSharedPoll); the
// adapter event counter (bumped by every CQE and remote write) gates the
// idle passes — no activity since the last drain means both shared CQs are
// still empty.
func (sp *SRQPool) Poll(p *des.Proc) bool {
	seq := sp.hca.MemEventSeq()
	if sp.everSeen && seq == sp.lastSeq {
		return false
	}
	sp.everSeen = true
	sp.lastSeq = seq
	prog := false
	for {
		cqe, ok := sp.rcq.TryPoll()
		if !ok {
			break
		}
		prog = true
		p.Sleep(sp.prm.CQPollOverhead)
		if cqe.Status != ib.StatusSuccess {
			sp.fail(fmt.Errorf("rdmachan(srq): recv completed %v", cqe.Status))
			return prog
		}
		slot := int(cqe.WRID)
		pkt := sp.recv[slot*SRQSlotSize : slot*SRQSlotSize+cqe.ByteLen]
		d, ok := sp.conns[cqe.QPNum]
		if !ok {
			sp.fail(fmt.Errorf("rdmachan(srq): packet on unbound qp%d", cqe.QPNum))
			return prog
		}
		d.HandleSRQPacket(p, pkt)
		// The packet has been consumed (copied out or converted into
		// rendezvous state); the slot goes straight back to the queue.
		sp.postSlot(p, slot)
		sp.stats.Reposts++
	}
	sp.arm()
	if sp.drainSend(p) {
		prog = true
	}
	return prog
}

// Footprint reports the pool's per-process memory: the receive and send
// slot arrays (the process's entire eager buffering, independent of peer
// count) plus dynamically pinned rendezvous bytes.
func (sp *SRQPool) Footprint() Footprint {
	slotBytes := int64((SRQSlots + SRQSendSlots) * SRQSlotSize)
	return Footprint{
		EagerSlots:  SRQSlots + SRQSendSlots,
		EagerBytes:  slotBytes,
		PinnedBytes: slotBytes + int64(sp.regc.PinnedBytes()),
	}
}
