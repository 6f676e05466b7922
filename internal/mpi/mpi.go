package mpi

import (
	"cmp"
	"fmt"
	"slices"

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
// comes from World.Comm; derived communicators from Dup and Split
// (comm.go). A handle owns only its context pair and scratch: its member
// tables are read-only and shared, with the cluster's World for world and
// its duplicates, with the parent for every duplicate.
type Comm struct {
	p   *des.Proc
	eng *transport.Engine // the rank's progress engine (its ADI3 device)
	w   *World            // the cluster's world tables, tuning and capability
	t   *topo             // node placement over the members
	loc []int             // the caller's node's members, ascending (a view into t)

	group   []int32 // comm rank → world rank, comm rank order
	ident   bool    // group is the identity map (world and dups of it)
	byWorld []int32 // comm ranks in ascending world-rank order, for local
	rank    int     // the caller's rank in this communicator
	pt2pt   int32   // point-to-point context id
	coll    int32   // collective context id
	nextCtx *int32  // process-local context allocator, shared by all comms

	scr    scratch // reusable per-comm collective scratch buffers
	allocs int     // node-memory allocations, Alloc's and scratch's (scratch-reuse test hook)

	direct *rdmaDirect // lazily built RDMA-direct exposure (rdmadirect.go)
}

// World is the world communicator's tables, built once per cluster and
// read-only from then on, so every rank's world handle and every
// communicator derived from one point into it instead of holding np-sized
// copies: the identity group, the placement view (topo) and an identity
// rank list whose prefixes are every communicator's flat-algorithm group.
// It also carries what every communicator of the cluster inherits: the
// RDMA-direct capability and the collective tuning.
type World struct {
	group  []int32 // 0, 1, …, np-1: world's group, and a sorted group's byWorld
	ranks  []int   // 0, 1, …, np-1: its prefixes are the flat algorithms' groups
	t      *topo
	rdmaOK bool   // cluster-wide RDMA-direct capability (rdmaDirectOK)
	tuning Tuning // collective algorithm selection (algorithms.go)
}

// NewWorld builds the world tables of a cluster whose rank r runs on node
// nodeOf[r]; the World keeps nodeOf, which must not change afterwards.
// rdmaDirect is the cluster-wide RDMA-direct collective capability
// (rdmaDirectOK). net labels the network model the default table keys on
// ("flat" or a switchfab label). A nil tuning keeps the default
// topology/size table; derived communicators inherit the tuning. A tuning
// that fails Validate is a bug of the caller: cluster.New rejects one first.
func NewWorld(nodeOf []int32, rdmaDirect bool, net string, tuning *Tuning) *World {
	var tun Tuning
	if tuning != nil {
		tun = *tuning
	}
	if err := tun.Validate(); err != nil {
		panic("mpi: Tuning." + err.Error())
	}
	tun.net = net
	w := &World{group: make([]int32, len(nodeOf)), ranks: make([]int, len(nodeOf)),
		rdmaOK: rdmaDirect, tuning: tun}
	for r := range w.group {
		w.group[r], w.ranks[r] = int32(r), r
	}
	w.t = newTopo(nodeOf, w.ranks)
	return w
}

// Comm returns a world communicator handle for the rank eng serves, driven
// by process p. The handle points into w; it allocates only itself.
func (w *World) Comm(p *des.Proc, eng *transport.Engine) *Comm {
	next := ctxFirstDerived
	rank := int(eng.Rank())
	return &Comm{p: p, eng: eng, w: w, t: w.t, loc: w.t.local(rank),
		group: w.group, ident: true, rank: rank,
		pt2pt: ctxP2P, coll: ctxColl, nextCtx: &next}
}

// derive assembles a handle on a new member set, sharing c's process,
// engine, world and context allocator: membership, the world→comm
// translation and the topology recomputed over the members, each sized by
// them, so hierarchical algorithms work on any communicator, not just
// world.
func (c *Comm) derive(group []int32, rank int, pt2pt, coll int32) *Comm {
	d := &Comm{p: c.p, eng: c.eng, w: c.w, group: group, ident: true,
		byWorld: c.w.group[:len(group)], rank: rank,
		pt2pt: pt2pt, coll: coll, nextCtx: c.nextCtx}
	sorted := true
	for r, w := range group {
		d.ident = d.ident && w == int32(r)
		sorted = sorted && (r == 0 || group[r-1] < w)
	}
	if !sorted {
		d.byWorld = make([]int32, len(group))
		for r := range d.byWorld {
			d.byWorld[r] = int32(r)
		}
		slices.SortFunc(d.byWorld, func(a, b int32) int { return cmp.Compare(group[a], group[b]) })
	}
	nodeOf := make([]int32, len(group))
	for r, w := range group {
		nodeOf[r] = c.w.t.nodeOf[w]
	}
	d.t = newTopo(nodeOf, c.w.ranks)
	d.loc = d.t.local(rank)
	return d
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
		// World (and duplicates and prefixes of it) map ranks to themselves;
		// skipping the table avoids a load on every send and receive.
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

// local rewrites a receive status into this communicator's rank space by
// a binary search of the members in world-rank order. Send-request
// statuses carry no meaningful source and pass through.
func (c *Comm) local(st Status) Status {
	if c.ident || st.Source < 0 {
		return st
	}
	lo, hi := 0, len(c.byWorld)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.group[c.byWorld[m]] < st.Source {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(c.byWorld) && c.group[c.byWorld[lo]] == st.Source {
		st.Source = c.byWorld[lo]
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

// Allocs returns how many node-memory allocations this handle made, Alloc's
// and the collective scratch's — collectives reuse per-comm scratch, so
// steady-state collective calls must not grow it (asserted by a test).
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

// Send blocks until the send buffer is reusable. Its request never leaves
// the call, so the engine recycles it (transport.Engine.Finish), as it does
// every blocking call's in this package.
func (c *Comm) Send(buf Buffer, dest, tag int) {
	c.eng.Finish(c.p, c.Isend(buf, dest, tag))
}

// Recv blocks until a matching message has arrived.
func (c *Comm) Recv(buf Buffer, src, tag int) Status {
	return c.local(c.eng.Finish(c.p, c.Irecv(buf, src, tag)))
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
	c.eng.Finish(c.p, sr)
	return c.local(c.eng.Finish(c.p, rr))
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
