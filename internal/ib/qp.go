package ib

import (
	"encoding/binary"
	"fmt"

	"repro/internal/des"
	"repro/internal/model"
)

// QP is a reliable-connection queue pair. Work requests posted to the send
// queue execute in order on a per-QP engine task; completions are
// delivered to the send CQ in posted order even when operations (RDMA
// reads) complete out of order internally.
type QP struct {
	hca  *HCA
	pd   *PD
	num  uint32
	scq  *CQ
	rcq  *CQ
	peer *QP

	state QPState
	sq    des.Queue[*sendWork]
	rq    des.Queue[RecvWR] // private receive queue (never waited on)
	srq   *SRQ              // shared receive queue; nil = private rq

	// The send engine (sendStep), a stackless task, keeps its place here.
	cur *sendWork // the work request being executed
	at  int       // where it stands: sqIdle … sqTx
	tx  stream    // its payload on the wire

	// Responder-side delivery FIFO for two-sided sends. An RNR NAK blocks
	// the head until its retry fires, so later sends on the same QP cannot
	// overtake it — RC in-order delivery, which MPI non-overtaking rides on.
	deliverq des.Queue[*sendWork] // never waited on

	readSlots *des.Resource
	written   func() // OnRemoteWrite's callback, or nil

	// Completion sequencing. The common case — work requests completing in
	// posted order — takes a comparison against seqNext and never touches
	// the reorder buffer, which is allocated lazily for the out-of-order
	// tail (RDMA reads overtaken by later writes).
	wrSeq   uint64
	seqNext uint64
	seqBuf  map[uint64]seqEntry

	stats QPStats
}

// QPStats counts per-QP activity.
type QPStats struct {
	SendsPosted uint64
	RecvsPosted uint64
	BytesSent   uint64
	Retries     uint64 // transport retransmission attempts (drop windows)
}

type seqEntry struct {
	cqe CQE
	has bool // false for unsignaled operations
}

// CreateQP allocates a queue pair with the given PD and completion queues.
// The send engine starts immediately and idles until the QP is connected.
func (h *HCA) CreateQP(pd *PD, scq, rcq *CQ) *QP {
	h.qpSeq++
	qp := &QP{
		hca:       h,
		pd:        pd,
		num:       h.qpSeq,
		scq:       scq,
		rcq:       rcq,
		state:     QPReset,
		readSlots: des.NewResource(h.prm.MaxRDMAReads),
	}
	h.qps = append(h.qps, qp)
	h.eng.SpawnTask(fmt.Sprintf("hca%d.qp%d.send", h.node.ID, qp.num), true, qp.sendStep)
	return qp
}

// Num returns the queue pair number.
func (qp *QP) Num() uint32 { return qp.num }

// State returns the queue pair state.
func (qp *QP) State() QPState { return qp.state }

// Stats returns a copy of the per-QP counters.
func (qp *QP) Stats() QPStats { return qp.stats }

// HCA returns the adapter owning this QP.
func (qp *QP) HCA() *HCA { return qp.hca }

// SendQueueDepth reports work requests waiting in the send queue (not yet
// picked up by the HCA engine) — the signal the weighted rail policy
// balances on.
func (qp *QP) SendQueueDepth() int { return qp.sq.Len() }

// OnRemoteWrite installs fn to run, before the node's memory event, in the
// dispatch that lands each RDMA write the peer posts into this queue pair's
// memory. One callback per queue pair; nil removes it.
func (qp *QP) OnRemoteWrite(fn func()) { qp.written = fn }

// PD returns the protection domain of this QP.
func (qp *QP) PD() *PD { return qp.pd }

// PostSend posts a work request to the send queue, charging the posting
// CPU overhead to the calling process.
func (qp *QP) PostSend(p *des.Proc, wr SendWR) {
	p.Sleep(qp.hca.prm.PostOverhead)
	qp.wrSeq++
	qp.stats.SendsPosted++
	qp.sq.Put(qp.hca.newWork(qp, qp.wrSeq, wr))
}

// PostRecv posts a receive descriptor.
func (qp *QP) PostRecv(p *des.Proc, wr RecvWR) {
	if qp.srq != nil {
		panic("ib: PostRecv on a QP attached to an SRQ; post to the SRQ")
	}
	p.Sleep(qp.hca.prm.PostOverhead)
	qp.stats.RecvsPosted++
	qp.rq.Put(wr)
}

// complete records the outcome of the work request with sequence seq and
// drains the in-order completion buffer. has marks a signaled operation
// whose CQE must reach the send CQ.
func (qp *QP) complete(seq uint64, cqe CQE, has bool) {
	if seq == qp.seqNext+1 && len(qp.seqBuf) == 0 {
		qp.seqNext = seq
		if has {
			qp.scq.insert(cqe)
		}
		return
	}
	if qp.seqBuf == nil {
		qp.seqBuf = make(map[uint64]seqEntry)
	}
	qp.seqBuf[seq] = seqEntry{cqe: cqe, has: has}
	for {
		e, ok := qp.seqBuf[qp.seqNext+1]
		if !ok {
			return
		}
		delete(qp.seqBuf, qp.seqNext+1)
		qp.seqNext++
		if e.has {
			qp.scq.insert(e.cqe)
		}
	}
}

// finish ends w with status st — a success CQE only if it was signaled,
// an error CQE always, matching the spec — and recycles it: nothing may
// touch w afterwards.
func (qp *QP) finish(w *sendWork, st Status) {
	if w.qp != qp {
		panic(fmt.Sprintf("ib: qp%d: work request %d completed twice", qp.num, w.wr.WRID))
	}
	cqe := CQE{WRID: w.wr.WRID, Status: st, Op: w.wr.Op, QPNum: qp.num}
	has := true
	if st == StatusSuccess {
		cqe.ByteLen, has = w.n, w.wr.Signaled
	}
	qp.complete(w.seq, cqe, has)
	qp.hca.freeWork(w)
}

// completeErr finishes a work request in error and transitions the QP to
// the error state, flushing everything else still queued on it.
func (qp *QP) completeErr(w *sendWork, st Status) {
	qp.finish(w, st)
	qp.fail()
}

// Fail transitions the QP to the error state, flushing queued work exactly
// once: posted receives complete with flush errors immediately, queued
// sends flush when the send engine reaches them, and undelivered two-sided
// sends parked in the responder-delivery FIFO complete in error at the
// requester (they never consumed a receive descriptor, so "error CQE"
// still means "definitively not delivered"). An operation the engine has
// already put on the wire is not recalled: it lands and completes
// normally, keeping recovery protocols exact. Idempotent.
func (qp *QP) Fail() { qp.fail() }

func (qp *QP) fail() {
	if qp.state == QPError {
		return
	}
	qp.state = QPError
	for r, ok := qp.rq.TryGet(); ok; r, ok = qp.rq.TryGet() {
		qp.rcq.insert(CQE{WRID: r.WRID, Status: StatusWRFlushErr, Op: OpRecv, QPNum: qp.num})
	}
	for w, ok := qp.deliverq.TryGet(); ok; w, ok = qp.deliverq.TryGet() {
		qp.finish(w, StatusWRFlushErr)
	}
	qp.hca.notifyMemWrite()
}

// Where the send engine's current work request stands.
const (
	sqIdle  = iota // none: waiting on the send queue
	sqRetry        // backing off inside a packet-drop window
	sqProc         // being processed (HCAProc)
	sqSlot         // waiting for an outstanding-read slot
	sqTx           // streaming its payload
)

// sendStep is the per-QP HCA send engine: it drains the send queue in
// order, charging per-WQR processing time and injecting data through the
// node's memory bus at the network rate. Under an injected packet-drop
// window on either endpoint's link it first models transport retransmission:
// each attempt burns an exponentially backed-off (capped) retry timer plus
// the NAK round trip, and exhausting the retry budget errors the work request
// and breaks the connection — both queue pairs go to the error state, as on
// real adapters, where transport retry exhaustion is fatal to the RC.
func (qp *QP) sendStep(t *des.Task) {
	prm := qp.hca.prm
	for {
		w := qp.cur
		switch qp.at {
		case sqIdle:
			var ok bool
			if w, ok = qp.sq.GetTask(t); !ok {
				return
			}
			if qp.state != QPError && (qp.state != QPReadyToSend || qp.peer == nil) {
				qp.completeErr(w, StatusWRFlushErr)
				continue
			}
			qp.cur = w
			fallthrough
		case sqRetry:
			switch {
			case qp.state == QPError:
				qp.finish(w, StatusWRFlushErr)
			case !qp.dropActive():
				qp.at = sqProc
				t.Sleep(prm.HCAProc)
				return
			case w.retries < retryLimit(prm):
				w.retries++
				qp.stats.Retries++
				qp.at = sqRetry
				t.Sleep(2*prm.WireLatency + retryTimeout(prm)<<min(w.retries-1, 6))
				return
			default:
				peer := qp.peer
				qp.completeErr(w, StatusRetryExc)
				if peer != nil {
					peer.fail()
				}
			}
		case sqProc:
			if qp.at = qp.exec(w); qp.at != sqIdle {
				continue
			}
		case sqSlot:
			if !qp.readSlots.AcquireTask(t, 1) {
				return
			}
			qp.hca.crossCtl(qp.peer.hca, w.toResponder)
		case sqTx:
			if !qp.tx.step(t) {
				return
			}
		}
		qp.cur, qp.at = nil, sqIdle // the engine is done with w
	}
}

// dropActive reports whether either endpoint's link is inside an injected
// packet-drop window right now.
func (qp *QP) dropActive() bool {
	now := qp.hca.eng.Now()
	if qp.hca.dropUntil > now {
		return true
	}
	return qp.peer != nil && qp.peer.hca.dropUntil > now
}

// retryTimeout returns the transport retry timer, defaulting when the
// parameter set predates the fault extension.
func retryTimeout(prm *model.Params) des.Time {
	if prm.RetryTimeout > 0 {
		return prm.RetryTimeout
	}
	return 100 * des.Microsecond
}

// retryLimit returns how many transport retries a requester attempts
// before erroring the connection.
func retryLimit(prm *model.Params) int {
	if prm.MaxRetry > 0 {
		return prm.MaxRetry
	}
	return 7
}

// exec starts the processed work request w and reports the stage that
// finishes it, sqIdle if it completed in error here.
//
// A write or send resolves its gather list (a write also validates the
// remote window) and streams through the local bus onto the wire. When the
// last granule lands (sendWork.atResponder) a write moves the bytes into the
// responder's window and is acked one wire latency later; a send joins the
// responder-delivery FIFO, moves into the head-of-queue receive descriptor
// and completes there too.
//
// A read or an 8-byte atomic validates its scatter destination first, so
// local faults complete before any network activity, then waits for one of
// the HCA's outstanding-read slots (the IRD serialization that caps mid-size
// read bandwidth; atomics share it, as on real adapters) and fires the
// request; the responder's read engine and this HCA's receive path do the rest.
func (qp *QP) exec(w *sendWork) int {
	switch w.wr.Op {
	case OpRDMAWrite, OpSend:
		if !qp.gatherLocal(w) {
			return sqIdle
		}
		peer := qp.peer
		if w.wr.Op == OpRDMAWrite {
			dst, err := peer.hca.checkRemote(w.wr.RemoteAddr, w.n, w.wr.RKey, peer.pd, AccessRemoteWrite)
			if err != nil {
				qp.completeErr(w, StatusRemoteAccessErr)
				return sqIdle
			}
			w.dst = dst
		}
		qp.stats.BytesSent += uint64(w.n)
		qp.hca.stats.BytesInjected += uint64(w.n)
		qp.tx.begin(qp.hca, w)
		return sqTx
	case OpRDMARead, OpCmpSwap, OpFetchAdd:
		sgl, n := w.wr.SGL, sglLen(w.wr.SGL)
		if w.wr.Op != OpRDMARead {
			if n < 8 {
				break
			}
			sgl, n = sgl[:1], 8
		}
		for _, sge := range sgl {
			if _, err := qp.hca.checkLocal(sge, qp.pd, true); err != nil {
				qp.completeErr(w, StatusLocalProtErr)
				return sqIdle
			}
		}
		w.n = n
		return sqSlot
	}
	qp.completeErr(w, StatusLocalProtErr)
	return sqIdle
}

// enqueueDeliver queues an arrived two-sided send for in-order responder
// delivery and drains the queue unless its head is already blocked on a
// receiver-not-ready retry.
func (qp *QP) enqueueDeliver(w *sendWork) {
	qp.deliverq.Put(w)
	if qp.deliverq.Len() == 1 {
		qp.drainDeliverq()
	}
}

// drainDeliverq delivers queued sends in arrival order. When the head is
// NAK'd (SRQ empty) the queue stalls until the scheduled retry re-enters,
// so no later send overtakes it.
func (qp *QP) drainDeliverq() {
	for w, ok := qp.deliverq.Peek(); ok && qp.tryDeliver(w); w, ok = qp.deliverq.Peek() {
		qp.deliverq.TryGet()
	}
}

// tryDeliver lands one two-sided send at the responder: take a receive
// descriptor — from the peer's shared receive queue if it is attached to
// one, its private receive queue otherwise — move the payload from the
// sender's memory into its scatter list (the one copy), and complete both
// sides. It reports false when the send was NAK'd and must stay at the head
// of the delivery queue (the retry is scheduled here).
//
// An empty SRQ is not fatal: the responder NAKs (receiver-not-ready) and
// the delivery is reattempted after the RNR timer plus a NAK/resend round
// trip, up to the retry limit — the limited-retry half of the SRQ flow
// control whose other half is the low-watermark refill (SRQ.Arm). An empty
// private receive queue stays a panic: those protocols pre-post, so
// hitting it is a bug in the layer above.
func (qp *QP) tryDeliver(w *sendWork) bool {
	peer := qp.peer
	prm := qp.hca.prm
	// A send arriving at an errored endpoint — either end failed while the
	// payload was on the wire, or while the head was parked on an RNR
	// retry — completes in error without consuming a receive descriptor,
	// preserving "error CQE means definitively not delivered".
	if qp.state == QPError || peer.state == QPError {
		qp.ack(w, StatusWRFlushErr)
		return true
	}
	var rwr RecvWR
	if peer.srq != nil {
		r, ok := peer.srq.pop()
		if !ok {
			peer.srq.stats.RNRNaks++
			w.rnr++
			limit := rnrRetryLimit(prm)
			if limit < 7 && w.rnr > limit {
				qp.ack(w, StatusRNRRetryExc)
				return true // consumed (in error); later sends may proceed
			}
			// Exponentially backed-off RNR timer (capped), plus the NAK and
			// resend crossing the wire. The retried delivery pops the
			// responder's SRQ, so it stays on the responder's engine.
			shift := w.rnr - 1
			if shift > 6 {
				shift = 6
			}
			peer.hca.eng.After(2*prm.WireLatency+rnrTimeout(prm)<<uint(shift), func() {
				qp.drainDeliverq()
			})
			return false
		}
		rwr = r
	} else {
		r, ok := peer.rq.TryGet()
		if !ok {
			panic(fmt.Sprintf("ib: RNR on qp%d: send of %d bytes with no posted receive",
				peer.num, w.n))
		}
		rwr = r
	}
	w.snap.check(w)
	if err := peer.hca.scatter(rwr.SGL, peer.pd, w.src, w.n); err != nil {
		// The consumed descriptor completes with the fault; the peer's
		// remaining posted receives drain through fail, exactly once.
		peer.rcq.insert(CQE{WRID: rwr.WRID, Status: StatusLocalProtErr, Op: OpRecv, QPNum: peer.num})
		peer.fail()
		qp.ack(w, StatusRemoteAccessErr)
		return true
	}
	peer.rcq.insert(CQE{WRID: rwr.WRID, Status: StatusSuccess, Op: OpRecv, ByteLen: w.n, QPNum: peer.num})
	peer.hca.notifyMemWrite()
	qp.ack(w, StatusSuccess)
	return true
}

// readUint64 and writeUint64 implement the atomic memory accesses.
func readUint64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func writeUint64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
