package ib

// inlineMax is the largest payload carried by value, as the inline data of
// real adapters is: it is copied out of the source buffer when the engine
// gathers the work request, so the poster may rewrite the buffer at once —
// which the 8-byte counter and flag writers of rdmachan and the rdma-direct
// collectives do, one staging slot per counter, several writes in flight.
// Anything larger stays where it is and belongs to the adapter until the
// work request completes.
const inlineMax = 64

// sendWork is one send-queue work request in flight, from PostSend to the
// completion that ends it. It carries no copy of the payload: src names the
// bytes to move — the registered source memory itself, or the inline array
// for small payloads — and the one copy, source to destination, happens at
// delivery. Work requests are recycled through the adapter's free list, so
// the steady state allocates neither them, their segment lists nor the
// continuations below.
type sendWork struct {
	qp  *QP // requester queue pair; nil while on the free list
	wr  SendWR
	seq uint64

	n      int             // payload length in bytes
	src    [][]byte        // payload source segments, resolved at gather time
	inline [inlineMax]byte // backing for src when n <= inlineMax (and atomic results)
	status Status          // outcome carried back to the requester
	snap   snapshot        // gather-time copy; empty unless built with -tags ibverify

	rnr     int // receiver-not-ready retries attempted so far
	retries int // transport retries attempted so far (drop windows)

	// The two wire crossings of a work request, bound once per sendWork so
	// that scheduling them allocates no closure.
	toResponder func()
	toRequester func()
}

// newWork takes a work request from the free list. The scatter/gather list
// is copied into storage the work request keeps across reuse — as a WQE
// copies it at post time — so the caller's list need not outlive the call.
func (h *HCA) newWork(qp *QP, seq uint64, wr SendWR) *sendWork {
	var w *sendWork
	if n := len(h.free); n > 0 {
		w, h.free[n-1] = h.free[n-1], nil
		h.free = h.free[:n-1]
	} else {
		w = &sendWork{}
		w.toResponder, w.toRequester = w.atResponder, w.atRequester
	}
	w.qp, w.seq = qp, seq
	w.wr = SendWR{
		WRID: wr.WRID, Op: wr.Op, Signaled: wr.Signaled,
		SGL:        append(w.wr.SGL[:0], wr.SGL...),
		RemoteAddr: wr.RemoteAddr, RKey: wr.RKey,
		Compare: wr.Compare, Swap: wr.Swap,
	}
	return w
}

// freeWork returns a completed work request to the free list.
func (h *HCA) freeWork(w *sendWork) {
	w.qp, w.src = nil, w.src[:0]
	w.n, w.status, w.rnr, w.retries = 0, StatusSuccess, 0, 0
	h.free = append(h.free, w)
}

// own fixes the payload once src and n are set: a payload of at most
// inlineMax bytes is copied into the inline array and keeps the value it had
// now; a larger one is left in place, lent to the adapter until completion.
func (w *sendWork) own() {
	if w.n > inlineMax {
		w.snap.take(w.src)
		return
	}
	off := 0
	for _, s := range w.src {
		off += copy(w.inline[off:], s)
	}
	w.src = append(w.src[:0], w.inline[:w.n])
}

// gatherLocal resolves the work request's gather list into its payload. It
// reports false when the list faulted and w completed in error.
func (qp *QP) gatherLocal(w *sendWork) bool {
	src, n, err := qp.hca.gather(w.src[:0], w.wr.SGL, qp.pd)
	if err != nil {
		qp.completeErr(w, StatusLocalProtErr)
		return false
	}
	w.src, w.n = src, n
	w.own()
	return true
}

// isRead reports whether w's payload flows responder to requester: an RDMA
// read or the result of an atomic.
func (w *sendWork) isRead() bool { return w.wr.Op != OpRDMAWrite && w.wr.Op != OpSend }

// dest returns the adapter w's payload streams to.
func (w *sendWork) dest() *HCA {
	if w.isRead() {
		return w.qp.hca
	}
	return w.qp.peer.hca
}

// landed runs on dest's engine when w's last payload granule has crossed
// its bus.
func (w *sendWork) landed() {
	if w.isRead() {
		w.atRequester()
	} else {
		w.atResponder()
	}
}

// atResponder runs on the responder's engine when the request has crossed
// the wire: for a write and a send after the last payload granule crossed
// the responder's bus, for a read or atomic when the request header arrives.
func (w *sendWork) atResponder() {
	qp := w.qp
	peer := qp.peer
	switch w.wr.Op {
	case OpRDMAWrite:
		// The one copy: source memory to the responder's window, resolved
		// here, on the responder's engine (QP.exec validated it).
		w.snap.check(w)
		dst := [1][]byte{peer.hca.node.Mem.MustResolve(w.wr.RemoteAddr, w.n)}
		copySegs(dst[:], w.src)
		if peer.written != nil {
			peer.written()
		}
		peer.hca.notifyMemWrite()
		qp.ack(w, StatusSuccess)
	case OpSend:
		qp.enqueueDeliver(w)
	default:
		peer.hca.readq.Put(w)
	}
}

// ack sends w's outcome back across the wire; atRequester finishes it there.
func (qp *QP) ack(w *sendWork, st Status) {
	w.status = st
	qp.peer.hca.crossCtl(qp.hca, w.toRequester)
}

// atRequester runs on the requester's engine and ends the work request: on
// the transport ack of a write or send, on an error NAK, or — for a read or
// atomic — when the last response granule has crossed the requester's bus
// and the payload moves, responder memory to the scatter list.
func (w *sendWork) atRequester() {
	qp := w.qp
	isRead := w.isRead()
	switch {
	case w.status != StatusSuccess:
		qp.completeErr(w, w.status)
	case !isRead:
		qp.finish(w, StatusSuccess)
	default:
		w.snap.check(w)
		if err := qp.hca.scatter(w.wr.SGL, qp.pd, w.src, w.n); err != nil {
			qp.completeErr(w, StatusLocalProtErr)
		} else {
			qp.hca.notifyMemWrite()
			qp.finish(w, StatusSuccess)
		}
	}
	if isRead {
		qp.readSlots.Release(1)
	}
}
