package ib

import (
	"repro/internal/des"
	"repro/internal/model"
)

// CQ is a completion queue. Entries are delivered in work-request order per
// queue pair; consumers either poll non-blockingly (TryPoll) or block until
// an entry arrives (Poll), which models the spin-poll loop of the real
// implementation with a condition wakeup plus the reap cost.
//
// The entry buffer is a head-indexed ring over one slice: dequeues advance
// head instead of reslicing away the front, which kept discarding the
// array's capacity and reallocated it on every completion burst.
type CQ struct {
	hca     *HCA
	watch   *model.Watch // its owner's: notified on every insert
	entries []CQE
	head    int
	cond    des.Cond
	total   uint64
	added   func() // OnInsert's callback, or nil
}

// CreateCQ allocates a completion queue on the adapter that no rank owns:
// its completions notify the node's default watch.
func (h *HCA) CreateCQ() *CQ { return h.CreateCQFor(h.node.DefaultWatch()) }

// CreateCQFor allocates a completion queue owned by the poller of w: its
// completions notify w, and so do the landings on queue pairs that receive
// into it (CreateQP).
func (h *HCA) CreateCQFor(w *model.Watch) *CQ {
	return &CQ{hca: h, watch: w}
}

// insert appends a completion and wakes pollers: processes blocked in Poll
// and the owner's progress loop, which waits on its watch (software
// multiplexes flag polling and CQ polling in one loop).
func (cq *CQ) insert(e CQE) {
	cq.entries = append(cq.entries, e)
	cq.total++
	if cq.added != nil {
		cq.added()
	}
	cq.cond.Broadcast()
	cq.watch.Notify()
}

// OnInsert installs fn to run, before pollers are woken, in the dispatch
// that adds each completion. One callback per queue; nil removes it.
func (cq *CQ) OnInsert(fn func()) { cq.added = fn }

// Len reports pending, unreaped completions.
func (cq *CQ) Len() int { return len(cq.entries) - cq.head }

// Total reports the number of completions ever generated.
func (cq *CQ) Total() uint64 { return cq.total }

// pop removes and returns the head entry; callers check Len() > 0 first.
func (cq *CQ) pop() CQE {
	e := cq.entries[cq.head]
	cq.head++
	if cq.head == len(cq.entries) {
		cq.entries = cq.entries[:0]
		cq.head = 0
	} else if cq.head > 64 && cq.head*2 > len(cq.entries) {
		n := copy(cq.entries, cq.entries[cq.head:])
		cq.entries = cq.entries[:n]
		cq.head = 0
	}
	return e
}

// TryPoll dequeues a completion if one is pending. It charges no simulated
// time; callers model their own poll-loop costs.
func (cq *CQ) TryPoll() (CQE, bool) {
	if cq.Len() == 0 {
		return CQE{}, false
	}
	return cq.pop(), true
}

// Poll blocks the process until a completion is available, then reaps it,
// charging the per-CQE reap overhead.
func (cq *CQ) Poll(p *des.Proc) CQE {
	for cq.Len() == 0 {
		cq.cond.Wait(p)
	}
	p.Sleep(cq.hca.prm.CQPollOverhead)
	return cq.pop()
}
