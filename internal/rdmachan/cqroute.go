package rdmachan

import (
	"repro/internal/des"
	"repro/internal/ib"
)

// Work-request IDs of signaled work posted above the channel — on a queue
// pair the channel or an SRQ pool also posts on, completing into a CQ it
// drains — carry the routed mark in the top byte (disjoint from the
// channel's own tags), the poster's class in bits 32..55 and the poster's
// own tag in the low 32 bits.
const (
	wridKindMask = uint64(0xFF) << 56
	wridRouted   = uint64(0x52) << 56

	// WRIDTagMask selects the bits of a routed work-request ID that belong
	// to the layer that posted it.
	WRIDTagMask = uint64(1)<<32 - 1
)

// cqRouter is the one completion dispatch for layers above the channel
// (the CH3 rendezvous engine, one-sided windows, RDMA-direct collectives):
// a layer registers its handler once, gets a WRID class back, and every
// completion whose work-request ID carries that class reaches the handler
// from the owner's CQ drain, on the polling process. Any number of layers
// share a connection; none steals another's completions.
type cqRouter struct {
	handlers []func(p *des.Proc, cqe ib.CQE)
}

// OnCQE registers fn and returns its WRID class: post signaled work with
// WRID = class | tag, tag ≤ WRIDTagMask.
func (r *cqRouter) OnCQE(fn func(p *des.Proc, cqe ib.CQE)) uint64 {
	r.handlers = append(r.handlers, fn)
	return wridRouted | uint64(len(r.handlers)-1)<<32
}

// route hands cqe to its class's handler; false means the completion is not
// a routed one (or names a class nobody registered).
func (r *cqRouter) route(p *des.Proc, cqe ib.CQE) bool {
	if cqe.WRID&wridKindMask != wridRouted {
		return false
	}
	i := int((cqe.WRID &^ wridKindMask) >> 32)
	if i >= len(r.handlers) {
		return false
	}
	r.handlers[i](p, cqe)
	return true
}
