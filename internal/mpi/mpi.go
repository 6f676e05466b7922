package mpi

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/rdmachan"
	"repro/internal/transport"
)

// Matching wildcards.
const (
	AnySource = int(transport.AnySource)
	AnyTag    = int(transport.AnyTag)
)

// Context ids separating point-to-point from collective traffic, as real
// MPI context ids do. The world communicator owns the fixed low pair;
// every derived communicator (Dup, Split) allocates a fresh p2p+collective
// pair from ctxFirstDerived upward through the agreement protocol in
// comm.go, so traffic on sibling communicators can never cross-match.
const (
	ctxP2P          int32 = 0
	ctxColl         int32 = 1
	ctxFirstDerived int32 = 2
)

// Buffer names a span of the rank's node memory.
type Buffer = rdmachan.Buffer

// Request is a non-blocking operation handle.
type Request = transport.Request

// Status describes a completed receive. Comm methods report Source in the
// communicator's own rank space.
type Status = transport.Status

// Comm is a rank's handle on a communicator. Each MPI process is one
// simulated process; all calls must come from it. The world communicator
// comes from NewWithTuning; derived communicators from Dup and Split
// (comm.go).
type Comm struct {
	p      *des.Proc
	eng    *transport.Engine // the rank's progress engine (its ADI3 device)
	nodeOf []int32           // node id per world rank, shared cluster-wide
	rdmaOK bool              // cluster-wide RDMA-direct capability
	t      *topo

	group   []int32 // comm rank → world rank, comm rank order
	ident   bool    // group is the identity map (world and dup-of-world)
	inverse []int32 // world rank → comm rank; -1 outside the communicator
	rank    int     // the caller's rank in this communicator
	pt2pt   int32   // point-to-point context id
	coll    int32   // collective context id
	nextCtx *int32  // process-local context allocator, shared by all comms
	tuning  Tuning  // collective algorithm selection (algorithms.go)

	scr    scratch // reusable per-comm collective scratch buffers
	allocs int     // Alloc call count (scratch-reuse test hook)

	direct *rdmaDirect // lazily built RDMA-direct exposure (rdmadirect.go)
}

// NewWithTuning binds a world communicator handle to a rank's engine and
// process. nodeOf maps every world rank to its node; hierarchy-aware
// collectives read it. rdmaDirect is the cluster-wide RDMA-direct
// collective capability (rdmaDirectOK), which must be the same on every
// rank. net labels the network model the default table keys on ("flat"
// or a switchfab label). A nil tuning keeps the default topology/size
// table; derived communicators inherit the tuning. A tuning that fails
// Validate is a bug of the caller: cluster.New rejects one before any
// rank runs.
func NewWithTuning(p *des.Proc, eng *transport.Engine, nodeOf []int32, rdmaDirect bool,
	net string, tuning *Tuning) *Comm {
	group := make([]int32, eng.Size())
	for r := range group {
		group[r] = int32(r)
	}
	next := ctxFirstDerived
	var tun Tuning
	if tuning != nil {
		tun = *tuning
	}
	if err := tun.Validate(); err != nil {
		panic("mpi: Tuning." + err.Error())
	}
	tun.net = net
	base := &Comm{p: p, eng: eng, nodeOf: nodeOf, rdmaOK: rdmaDirect,
		nextCtx: &next, tuning: tun}
	return base.derive(group, int(eng.Rank()), ctxP2P, ctxColl)
}

// derive assembles a communicator handle sharing c's process, engine,
// placement, context allocator and tuning: membership, rank translation
// maps, context pair, and the topology recomputed over the member set so
// hierarchical algorithms work on any communicator, not just world.
func (c *Comm) derive(group []int32, rank int, pt2pt, coll int32) *Comm {
	c = &Comm{
		p: c.p, eng: c.eng, nodeOf: c.nodeOf, rdmaOK: c.rdmaOK,
		group: group, rank: rank,
		pt2pt: pt2pt, coll: coll,
		nextCtx: c.nextCtx, tuning: c.tuning,
	}
	c.inverse = make([]int32, c.eng.Size())
	for i := range c.inverse {
		c.inverse[i] = -1
	}
	c.ident = true
	for r, w := range group {
		c.inverse[w] = int32(r)
		if w != int32(r) {
			c.ident = false
		}
	}
	c.t = buildTopo(c)
	return c
}

// Rank returns the caller's rank in this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return len(c.group) }

// Proc returns the simulated process driving this rank.
func (c *Comm) Proc() *des.Proc { return c.p }

// Wtime returns the simulated wall clock in seconds (MPI_Wtime).
func (c *Comm) Wtime() float64 { return c.p.Now().Seconds() }

// world translates a communicator rank to the world rank the engine
// addresses.
func (c *Comm) world(rank int) int32 {
	if uint(rank) >= uint(len(c.group)) {
		c.badRank(rank)
	}
	if c.ident {
		// World (and duplicates of it) map ranks to themselves; skipping the
		// table avoids touching np words of translation data per communicator.
		return int32(rank)
	}
	return c.group[rank]
}

// badRank is kept out of world so world stays within the inlining budget —
// it sits on every send/receive path.
//
//go:noinline
func (c *Comm) badRank(rank int) {
	panic(fmt.Sprintf("mpi: rank %d outside communicator of size %d", rank, len(c.group)))
}

// local rewrites a receive status into this communicator's rank space.
// Send-request statuses carry no meaningful source and pass through.
func (c *Comm) local(st Status) Status {
	if st.Source >= 0 && int(st.Source) < len(c.inverse) && c.inverse[st.Source] >= 0 {
		st.Source = c.inverse[st.Source]
	}
	return st
}

// Alloc carves n bytes of node memory and returns the descriptor and the
// backing bytes (applications manipulate real data).
func (c *Comm) Alloc(n int) (Buffer, []byte) {
	c.allocs++
	va, b := c.eng.Node().Mem.Alloc(n)
	return Buffer{Addr: va, Len: n}, b
}

// Allocs returns how many times Alloc ran on this handle — collectives
// reuse per-comm scratch, so steady-state collective calls must not grow
// it (asserted by a test).
func (c *Comm) Allocs() int { return c.allocs }

// Bytes resolves a buffer to its backing storage.
func (c *Comm) Bytes(b Buffer) []byte {
	return c.eng.Node().Mem.MustResolve(b.Addr, b.Len)
}

// Slice returns a sub-buffer.
func Slice(b Buffer, off, n int) Buffer {
	if off < 0 || n < 0 || off+n > b.Len {
		panic(fmt.Sprintf("mpi: slice [%d,+%d) of %d-byte buffer", off, n, b.Len))
	}
	return Buffer{Addr: b.Addr + uint64(off), Len: n}
}

// Isend starts a non-blocking standard send.
func (c *Comm) Isend(buf Buffer, dest, tag int) *Request {
	return c.isend(buf, dest, tag, c.pt2pt)
}

// Irecv starts a non-blocking receive.
func (c *Comm) Irecv(buf Buffer, src, tag int) *Request {
	return c.irecv(buf, src, tag, c.pt2pt)
}

// Send blocks until the send buffer is reusable.
func (c *Comm) Send(buf Buffer, dest, tag int) {
	c.eng.Wait(c.p, c.Isend(buf, dest, tag))
}

// Recv blocks until a matching message has arrived.
func (c *Comm) Recv(buf Buffer, src, tag int) Status {
	return c.local(c.eng.Wait(c.p, c.Irecv(buf, src, tag)))
}

// Wait blocks until req completes, driving progress. The request must
// have been started on this communicator (its status is reported in this
// communicator's rank space).
func (c *Comm) Wait(req *Request) Status {
	return c.local(c.eng.Wait(c.p, req))
}

// WaitAll blocks until every request completes.
func (c *Comm) WaitAll(reqs ...*Request) {
	c.eng.WaitAll(c.p, reqs...)
}

// Sendrecv exchanges messages with possibly different peers, deadlock-free.
func (c *Comm) Sendrecv(send Buffer, dest, stag int, recv Buffer, src, rtag int) Status {
	rr := c.Irecv(recv, src, rtag)
	sr := c.Isend(send, dest, stag)
	c.eng.Wait(c.p, sr)
	return c.local(c.eng.Wait(c.p, rr))
}

// isendCtx and irecvCtx run on the collective context.
func (c *Comm) isendCtx(buf Buffer, dest, tag int) *Request {
	return c.isend(buf, dest, tag, c.coll)
}

func (c *Comm) irecvCtx(buf Buffer, src, tag int) *Request {
	return c.irecv(buf, src, tag, c.coll)
}

// isend and irecv charge the ADI3 per-call bookkeeping cost
// (model.Params.MPIOverhead) and hand the operation to the engine.
func (c *Comm) isend(buf Buffer, dest, tag int, ctx int32) *Request {
	d := c.world(dest)
	c.p.Sleep(c.eng.HCA().Params().MPIOverhead)
	return c.eng.Isend(c.p, d, int32(tag), ctx, buf)
}

func (c *Comm) irecv(buf Buffer, src, tag int, ctx int32) *Request {
	s := int32(AnySource)
	if src != AnySource {
		s = c.world(src)
	}
	c.p.Sleep(c.eng.HCA().Params().MPIOverhead)
	return c.eng.Irecv(c.p, s, int32(tag), ctx, buf)
}

// Compute advances simulated time by the cost of flops floating-point
// operations at the testbed's compute rate; applications use it to model
// their computation phases between communications.
func (c *Comm) Compute(flops float64) {
	prm := c.eng.Node().Params
	us := flops / prm.FlopRate // MFLOP/s ⇒ flops/µs
	c.p.Sleep(des.Microseconds(us))
}
