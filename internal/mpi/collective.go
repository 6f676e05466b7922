package mpi

import "fmt"

// Collective tags (on the collective context, so they never collide with
// user point-to-point traffic). The hierarchical algorithms use distinct
// tags per stage so leader-level and node-level traffic between the same
// pair can never cross-match.
const (
	tagBarrier = 1000 + iota
	tagBcast
	tagReduce
	tagGather
	tagScatter
	tagAllgather
	tagAlltoall
	tagHBcastInter
	tagHBcastIntra
	tagHReduceIntra
	tagHReduceInter
	tagHGatherUp
	tagHGatherDown
	tagHAllgatherRing
	tagHBarrierUp
	tagHBarrierDissem
	tagHBarrierDown
	tagARFold    // allreduce pre/post fold to a power-of-two participant set
	tagARDouble  // allreduce recursive-doubling exchange
	tagRabRS     // rabenseifner reduce-scatter (recursive halving)
	tagRabAG     // rabenseifner allgather (recursive doubling)
	tagSAScatter // scatter-allgather bcast: binomial scatter stage
	tagSARing    // scatter-allgather bcast: ring allgatherv stage
	tagXAddr     // window (and RDMA-direct exposure) addr/rkey exchange
	tagAGDouble  // allgather recursive-doubling exchange
	tagAGBruck   // allgather Bruck exchange
)

// scratch holds the reusable per-comm buffers the collective algorithms
// work in, so steady-state collective calls allocate nothing (grow-only;
// an allocation-count test asserts the reuse). Slots that are live at the
// same time within one call must be distinct.
type scratch struct {
	token Buffer // 1-byte barrier token
	in    Buffer // barrier fan-in/dissemination landing area
	acc   Buffer // reduce accumulator
	tmp   Buffer // reduce incoming partial
	part  Buffer // hierarchical reduce node partial
	bruck Buffer // Bruck allgather's rotated working copy
	split Buffer // Split's (color, key, counter) triple
	table Buffer // Split's gathered triples, one per member

	reqs []*Request // scattered alltoall's posted requests
}

// scratch returns an n-byte view of a lazily grown per-comm buffer slot.
func (c *Comm) scratch(slot *Buffer, n int) Buffer {
	if slot.Len < n {
		*slot, _ = c.Alloc(n)
	}
	return Slice(*slot, 0, n)
}

// Barrier blocks until all ranks arrive, through the algorithm the
// communicator's tuning table selects (barrier/hier on SMP layouts,
// barrier/dissemination otherwise, by default).
func (c *Comm) Barrier() {
	if c.Size() == 1 {
		return
	}
	c.pickBarrier()(c)
}

// flatBarrier is barrier/dissemination over the whole communicator,
// correct for any rank count.
func (c *Comm) flatBarrier() {
	c.groupDissem(c.t.world, c.Rank(), tagBarrier)
}

// Bcast broadcasts root's buffer to all ranks through the tuned algorithm
// (bcast/hier-leader on SMP layouts, bcast/binomial otherwise, by
// default).
func (c *Comm) Bcast(buf Buffer, root int) {
	if c.Size() == 1 {
		return
	}
	c.pickBcast()(c, buf, root)
}

// flatBcast is the topology-oblivious binomial broadcast (bcast/binomial).
func (c *Comm) flatBcast(buf Buffer, root int) {
	c.groupBcast(buf, c.t.world, root, tagBcast)
}

// Send2/Recv2 are collective-context point-to-point helpers.
func (c *Comm) Send2(buf Buffer, dest, tag int) { c.eng.Wait(c.p, c.isendCtx(buf, dest, tag)) }
func (c *Comm) Recv2(buf Buffer, src, tag int) Status {
	return c.local(c.eng.Wait(c.p, c.irecvCtx(buf, src, tag)))
}

// hierReduceCutoff is the message size at and above which the default
// tuning table picks reduce/hier on SMP layouts. Below it the flat
// binomial wins: its subtrees combine in parallel, while the hierarchy
// serializes the intra-node stage before any leader traffic starts. The
// crossover is measured by bench.AblationCollAlg (DESIGN.md §6).
const hierReduceCutoff = 4 << 10

// Reduce combines send buffers elementwise into recv at root through the
// tuned algorithm (reduce/hier at and above the tuning table's cutoff on
// SMP layouts, reduce/binomial otherwise, by default). recv may be
// Buffer{} on non-root ranks.
func (c *Comm) Reduce(send, recv Buffer, dt Datatype, op Op, root int) {
	if c.Size() == 1 {
		copy(c.Bytes(recv), c.Bytes(send))
		return
	}
	c.pickReduce(send.Len)(c, send, recv, dt, op, root)
}

// flatReduce is the topology-oblivious binomial reduce (reduce/binomial).
func (c *Comm) flatReduce(send, recv Buffer, dt Datatype, op Op, root int) {
	c.groupReduce(send, recv, dt, op, c.t.world, root, tagReduce)
}

// chargeReduceFlops models the arithmetic of combining n bytes.
func (c *Comm) chargeReduceFlops(n int, dt Datatype) {
	c.Compute(float64(n / dt.Size()))
}

// Allreduce combines send buffers elementwise into recv on every rank
// through the tuned algorithm. The flat default is reduce-then-bcast; on
// fat-tree topologies the default table picks the doubling/halving
// families, whose crossover BENCH_coll.json re-measures on the contended
// switch model.
func (c *Comm) Allreduce(send, recv Buffer, dt Datatype, op Op) {
	if recv.Len != send.Len {
		panic("mpi: Allreduce needs a full recv buffer on every rank")
	}
	if c.Size() == 1 {
		copy(c.Bytes(recv), c.Bytes(send))
		return
	}
	c.pickAllreduce(send.Len)(c, send, recv, dt, op)
}

// flatAllreduce is Reduce to rank 0 followed by Bcast, the classic simple
// algorithm (allreduce/reduce-bcast; adequate at 8 ranks on a flat wire).
func (c *Comm) flatAllreduce(send, recv Buffer, dt Datatype, op Op) {
	c.Reduce(send, recv, dt, op, 0)
	c.Bcast(recv, 0)
}

// Gather collects equal-size contributions into recv at root
// (recv holds size × send.Len bytes, rank order).
func (c *Comm) Gather(send, recv Buffer, root int) {
	size, rank := c.Size(), c.Rank()
	n := send.Len
	if rank == root {
		if recv.Len < n*size {
			panic(fmt.Sprintf("mpi: Gather recv %d < %d", recv.Len, n*size))
		}
		copy(c.Bytes(Slice(recv, rank*n, n)), c.Bytes(send))
		reqs := make([]*Request, 0, size-1)
		for r := 0; r < size; r++ {
			if r == root {
				continue
			}
			reqs = append(reqs, c.irecvCtx(Slice(recv, r*n, n), r, tagGather))
		}
		c.WaitAll(reqs...)
		return
	}
	c.Send2(send, root, tagGather)
}

// Scatter distributes root's buffer in rank order.
func (c *Comm) Scatter(send, recv Buffer, root int) {
	size, rank := c.Size(), c.Rank()
	n := recv.Len
	if rank == root {
		if send.Len < n*size {
			panic(fmt.Sprintf("mpi: Scatter send %d < %d", send.Len, n*size))
		}
		reqs := make([]*Request, 0, size-1)
		for r := 0; r < size; r++ {
			if r == root {
				continue
			}
			reqs = append(reqs, c.isendCtx(Slice(send, r*n, n), r, tagScatter))
		}
		copy(c.Bytes(recv), c.Bytes(Slice(send, rank*n, n)))
		c.WaitAll(reqs...)
		return
	}
	c.Recv2(recv, root, tagScatter)
}

// Allgather shares equal-size contributions with everyone through the
// tuned algorithm: by default allgather/hier on SMP layouts with
// block-contiguous placement; elsewhere a log-step algorithm
// (allgather/recursive-doubling on power-of-two sizes, allgather/bruck on
// the rest) for blocks below the network's measured cutoff and
// allgather/ring from there up. recv may be longer than the gathered
// region; bytes past it stay untouched.
func (c *Comm) Allgather(send, recv Buffer) {
	if total := send.Len * c.Size(); recv.Len < total {
		panic(fmt.Sprintf("mpi: Allgather recv %d < %d", recv.Len, total))
	}
	c.pickAllgather(send.Len)(c, send, recv)
}

// flatAllgather is the topology-oblivious ring algorithm (allgather/ring).
func (c *Comm) flatAllgather(send, recv Buffer) {
	rank, n := c.Rank(), send.Len
	copy(c.Bytes(Slice(recv, rank*n, n)), c.Bytes(send))
	c.groupRing(c.t.world, rank, func(i int) Buffer { return Slice(recv, i*n, n) }, tagAllgather)
}

// Alltoall exchanges equal-size blocks between all rank pairs through the
// tuned algorithm: by default alltoall/scattered for blocks below 32 KiB
// on a communicator that spans nodes, alltoall/pairwise otherwise.
func (c *Comm) Alltoall(send, recv Buffer) {
	size := c.Size()
	if send.Len%size != 0 || recv.Len != send.Len {
		panic("mpi: Alltoall buffers must be size-divisible and equal")
	}
	c.pickAlltoall(send.Len/size)(c, send, recv)
}

// flatAlltoall is the pairwise exchange schedule (alltoall/pairwise) over
// equal blocks.
func (c *Comm) flatAlltoall(send, recv Buffer) {
	n := send.Len / c.Size()
	c.pairwise(func(p int) Buffer { return Slice(send, p*n, n) },
		func(p int) Buffer { return Slice(recv, p*n, n) })
}

// Alltoallv exchanges variable-size blocks pairwise; counts give per-peer
// bytes.
func (c *Comm) Alltoallv(send Buffer, sendCounts []int, recv Buffer, recvCounts []int) {
	sOff, rOff := offsets(sendCounts), offsets(recvCounts)
	c.pairwise(func(p int) Buffer { return Slice(send, sOff[p], sendCounts[p]) },
		func(p int) Buffer { return Slice(recv, rOff[p], recvCounts[p]) })
}

// pairwise is the exchange Alltoall and Alltoallv share: the caller's own
// block is copied locally, then at step k every rank sends to rank+k and
// receives from rank-k, so each step is a perfect matching and no rank is
// ever oversubscribed. sendBlk and recvBlk locate a peer's block.
func (c *Comm) pairwise(sendBlk, recvBlk func(peer int) Buffer) {
	size, rank := c.Size(), c.Rank()
	copy(c.Bytes(recvBlk(rank)), c.Bytes(sendBlk(rank)))
	for step := 1; step < size; step++ {
		to, from := (rank+step)%size, (rank-step+size)%size
		c.Sendrecv2(sendBlk(to), to, recvBlk(from), from, tagAlltoall)
	}
}

// Sendrecv2 is Sendrecv on the collective context.
func (c *Comm) Sendrecv2(send Buffer, dest int, recv Buffer, src, tag int) {
	rr := c.irecvCtx(recv, src, tag)
	sr := c.isendCtx(send, dest, tag)
	c.eng.Wait(c.p, sr)
	c.eng.Wait(c.p, rr)
}

func offsets(counts []int) []int {
	off := make([]int, len(counts))
	sum := 0
	for i, n := range counts {
		off[i] = sum
		sum += n
	}
	return off
}
