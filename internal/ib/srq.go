package ib

import "repro/internal/des"

// SRQ is a shared receive queue: a pool of receive descriptors that many
// queue pairs on one adapter draw from, instead of each QP pre-posting its
// own. It is the scalability primitive the MVAPICH lineage adopted after
// the paper — per-connection receive buffering is O(np) per process, an
// SRQ is O(pool) regardless of how many connections feed it.
//
// Two mechanisms replace the per-connection credit flow control that
// dedicated receive rings made possible:
//
//   - Low-watermark (limit) events: Arm installs a one-shot handler that
//     fires when the number of posted descriptors drops below the limit —
//     the IBV_EVENT_SRQ_LIMIT_REACHED of real adapters — so software can
//     refill before the queue runs dry.
//   - RNR NAK with limited retry: when a send arrives and the SRQ is
//     empty, the responder NAKs (receiver-not-ready) and the requester
//     retries after a timeout, up to Params.MaxRNRRetry times before
//     completing in error (see QP.deliverSend).
type SRQ struct {
	hca *HCA
	pd  *PD
	// Circular buffer of descriptor values, len(rq) a power of two: n posted
	// descriptors starting at rq[head] and wrapping. It grows only when more
	// are posted than it has ever held at once — a refilled SRQ is never
	// empty, so a buffer that rewound only when drained grew by one
	// descriptor per message received — and posting copies the descriptor in
	// instead of boxing it: the refill path runs once per delivered packet.
	rq   []RecvWR
	head int
	n    int

	limit   int
	onLimit func()

	stats SRQStats
}

// SRQStats counts shared-receive-queue activity.
type SRQStats struct {
	RecvsPosted   uint64
	RecvsConsumed uint64
	RNRNaks       uint64
}

// CreateSRQ allocates a shared receive queue on the adapter within pd.
// Queue pairs attach at creation time with CreateQPSRQ.
func (h *HCA) CreateSRQ(pd *PD) *SRQ {
	if pd.hca != h {
		panic("ib: SRQ PD belongs to a different HCA")
	}
	return &SRQ{hca: h, pd: pd}
}

// PostRecv posts a receive descriptor to the shared queue, charging the
// posting CPU overhead.
func (s *SRQ) PostRecv(p *des.Proc, wr RecvWR) {
	p.Sleep(s.hca.prm.PostOverhead)
	if s.n == len(s.rq) {
		s.grow()
	}
	s.rq[(s.head+s.n)&(len(s.rq)-1)] = wr
	s.n++
	s.stats.RecvsPosted++
}

// grow doubles the buffer, unwrapping the posted descriptors to its start.
func (s *SRQ) grow() {
	rq := make([]RecvWR, max(2*len(s.rq), 16))
	k := copy(rq, s.rq[s.head:])
	copy(rq[k:], s.rq[:s.head])
	s.rq, s.head = rq, 0
}

// Posted reports the number of receive descriptors currently queued.
func (s *SRQ) Posted() int { return s.n }

// Stats returns a copy of the SRQ counters.
func (s *SRQ) Stats() SRQStats { return s.stats }

// Arm installs a one-shot low-watermark handler: fn runs once when the
// posted descriptor count drops below limit (the SRQ limit event of the
// verbs spec). The consumer re-arms from the handler or after refilling.
func (s *SRQ) Arm(limit int, fn func()) {
	s.limit = limit
	s.onLimit = fn
}

// pop takes the head descriptor, firing the armed limit event when the
// queue falls below the watermark.
func (s *SRQ) pop() (RecvWR, bool) {
	if s.n == 0 {
		return RecvWR{}, false
	}
	wr := s.rq[s.head]
	s.rq[s.head] = RecvWR{}
	s.head = (s.head + 1) & (len(s.rq) - 1)
	s.n--
	s.stats.RecvsConsumed++
	if s.onLimit != nil && s.Posted() < s.limit {
		fn := s.onLimit
		s.onLimit = nil
		fn()
	}
	return wr, true
}

// CreateQPSRQ allocates a queue pair whose receive side draws descriptors
// from a shared receive queue instead of a private receive queue. Posting
// to the QP's own receive queue is a protocol error.
func (h *HCA) CreateQPSRQ(pd *PD, scq, rcq *CQ, srq *SRQ) *QP {
	if srq.hca != h {
		panic("ib: SRQ belongs to a different HCA")
	}
	if srq.pd != pd {
		panic("ib: SRQ PD mismatch")
	}
	qp := h.CreateQP(pd, scq, rcq)
	qp.srq = srq
	return qp
}
