package mpi

// Collective algorithms after Thakur/Rabenseifner/van de Geijn (the MPICH
// repertoire): recursive-doubling and Rabenseifner allreduce,
// scatter-allgather broadcast, the log-step allgathers (recursive
// doubling, Bruck) and the scattered alltoall. The allreduces and the
// broadcast handle non-power-of-two sizes — the doubling/halving families
// by folding the extra ranks into a power-of-two participant set first,
// the broadcast by chunking over virtual ranks — and all are
// bit-identical to the flat baselines (for commutative ops, the only ones
// the datatype layer defines), which the algorithm-equivalence harness
// asserts per topology, datatype, and rank count.

// allreduceRabCutoff is the message size in bytes at and above which the
// fat-tree tuning table picks allreduce/rabenseifner over
// recursive-doubling. Measured on the canonical contended topology
// (BENCH_figures.json, coll-allreduce/fattree-d4-u1/np=16/cpn=1): doubling
// wins through 2 KiB (102 µs vs 117 µs), the two are even at 3 KiB
// (130 µs vs 126 µs), and Rabenseifner's halved uplink volume wins
// clearly from 4 KiB (162 µs vs 137 µs) out to 256 KiB (6.5 ms vs
// 2.5 ms).
const allreduceRabCutoff = 3 << 10

// allgatherRingCutoff is the per-rank block size in bytes at and above
// which the default table keeps allgather/ring, per network. Measured at
// np=16, one rank per node (the coll-allgather rows of BENCH_figures.json,
// then bench.CollAlgSweep at the sizes between and past its rows). Flat wire: recursive doubling leads
// from 256 B (66.6 µs vs 194.3 µs) through 64 KiB (3.29 ms vs 4.16 ms),
// the two are even at 160–192 KiB (10.45 ms vs 10.40 ms) and the ring
// leads from 256 KiB (13.98 ms vs 13.36 ms). fattree-d4-u1: doubling's
// far partners all cross the one uplink of their leaf while the ring
// crosses it once per four ranks, so doubling leads only through 4 KiB
// (410.8 µs vs 447.8 µs), is level at 5 KiB (488.2 µs vs 483.0 µs) and
// behind from 6 KiB (559.6 µs vs 545.4 µs) to 64 KiB (4.92 ms vs
// 4.13 ms). The key is the block, not MPICH's gathered total, so that a
// 24-byte Split never goes back to the ring at any np: the even block
// holds or rises with np on both nets, the even total does neither
// (DESIGN.md §14).
func (t Tuning) allgatherRingCutoff() int {
	if t.fattree() {
		return 5 << 10
	}
	return 192 << 10
}

// alltoallScatterCutoff is the per-peer block size in bytes below which
// the default table picks alltoall/scattered on a communicator that spans
// more than one node. Scattered beats pairwise at every size measured on
// every multi-node layout (np=32: 256 B 553.5 → 111.4 µs on the flat
// wire, 545.9 → 110.5 µs on fattree-d4-u1), but from MPICH's 32 KiB
// medium/long boundary up the win costs more than it gives: at 64 KiB on
// the fat tree, 31 rendezvous in flight raise live heap per rank 7.3 %
// and events 1.8×, for a gain partly owed to the per-QP send engines of
// the model. Single-node communicators stay pairwise: their ranks share
// one memory bus, and scattered runs 0.06–0.08 % slower there (DESIGN.md
// §14).
const alltoallScatterCutoff = 32 << 10

// scatteredAlltoall is alltoall/scattered (Thakur, Rabenseifner and
// Gropp's medium-block schedule): after the local copy it posts every
// receive in the pairwise step order, then every send, and waits once —
// pairwise's messages, tags and bytes, with its np−1 round trips
// overlapped instead of run in lockstep. The request list is per-comm
// scratch (finishAll).
func (c *Comm) scatteredAlltoall(send, recv Buffer) {
	size, rank := c.Size(), c.Rank()
	n := send.Len / size
	copy(c.Bytes(Slice(recv, rank*n, n)), c.Bytes(Slice(send, rank*n, n)))
	reqs := c.scr.reqs[:0]
	for step := 1; step < size; step++ {
		from := (rank - step + size) % size
		reqs = append(reqs, c.irecvCtx(Slice(recv, from*n, n), from, tagAlltoall))
	}
	for step := 1; step < size; step++ {
		to := (rank + step) % size
		reqs = append(reqs, c.isendCtx(Slice(send, to*n, n), to, tagAlltoall))
	}
	c.finishAll(reqs)
}

// pof2Below returns the largest power of two ≤ n (n ≥ 1).
func pof2Below(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// foldDown folds a non-power-of-two rank set to pof2 participants: the
// first 2*rem ranks pair up (even sends its contribution to even+1, which
// combines and carries both), leaving rem even ranks idle through the
// power-of-two phase. It returns the caller's virtual rank in the folded
// set, or -1 for the idle evens. acc/tmp are n-byte scratch views; acc
// holds the caller's (possibly combined) contribution on return.
func (c *Comm) foldDown(acc, tmp Buffer, dt Datatype, op Op, rem int) int {
	rank, n := c.Rank(), acc.Len
	if rank >= 2*rem {
		return rank - rem
	}
	if rank%2 == 0 {
		c.Send2(acc, rank+1, tagARFold)
		return -1
	}
	c.Recv2(tmp, rank-1, tagARFold)
	reduce(c.Bytes(acc), c.Bytes(tmp), dt, op)
	c.chargeReduceFlops(n, dt)
	return rank / 2
}

// foldReal maps a virtual rank in the folded power-of-two set back to the
// real rank that carries it.
func foldReal(vrank, rem int) int {
	if vrank < rem {
		return vrank*2 + 1
	}
	return vrank + rem
}

// unfold returns the finished result from the odd carriers back to their
// idle even partners; every rank ends with the result in recv.
func (c *Comm) unfold(acc, recv Buffer, rem int) {
	rank := c.Rank()
	if rank < 2*rem {
		if rank%2 == 0 {
			c.Recv2(recv, rank+1, tagARFold)
			return
		}
		c.Send2(acc, rank-1, tagARFold)
	}
	copy(c.Bytes(recv), c.Bytes(acc))
}

// rdAllreduce is allreduce/recursive-doubling: after folding to a
// power-of-two set, partners at distance 1, 2, 4, … exchange full vectors
// and combine, so every participant holds the result after log2 steps.
// Latency-optimal for short vectors; every step moves the whole vector.
func (c *Comm) rdAllreduce(send, recv Buffer, dt Datatype, op Op) {
	size, n := c.Size(), send.Len
	acc := c.scratch(&c.scr.acc, n)
	tmp := c.scratch(&c.scr.tmp, n)
	copy(c.Bytes(acc), c.Bytes(send))

	pof2 := pof2Below(size)
	rem := size - pof2
	vrank := c.foldDown(acc, tmp, dt, op, rem)
	if vrank != -1 {
		for mask := 1; mask < pof2; mask <<= 1 {
			peer := foldReal(vrank^mask, rem)
			c.Sendrecv2(acc, peer, tmp, peer, tagARDouble)
			reduce(c.Bytes(acc), c.Bytes(tmp), dt, op)
			c.chargeReduceFlops(n, dt)
		}
	}
	c.unfold(acc, recv, rem)
}

// rdAllgather is allgather/recursive-doubling, for power-of-two sizes: at
// distance mask a rank holds the mask blocks of its aligned group and
// swaps them, in place, for the partner group's — log2 size exchanges
// against the ring's size-1, the same bytes per rank in total.
func (c *Comm) rdAllgather(send, recv Buffer) {
	size, rank, n := c.Size(), c.Rank(), send.Len
	copy(c.Bytes(Slice(recv, rank*n, n)), c.Bytes(send))
	for mask := 1; mask < size; mask <<= 1 {
		peer := rank ^ mask
		mine, theirs := rank&^(mask-1), peer&^(mask-1)
		c.Sendrecv2(Slice(recv, mine*n, mask*n), peer, Slice(recv, theirs*n, mask*n), peer, tagAGDouble)
	}
}

// bruckAllgather is allgather/bruck, for any size: block i of a temporary
// holds rank+i's contribution, so at distance dist a rank sends its first
// blocks to rank-dist and appends what rank+dist had — ceil(log2 size)
// exchanges, the last one partial — and one rotation by rank puts the
// blocks in rank order. The size·n temporary is the price of taking any
// size; it is per-comm scratch.
func (c *Comm) bruckAllgather(send, recv Buffer) {
	size, rank, n := c.Size(), c.Rank(), send.Len
	tmp := c.scratch(&c.scr.bruck, n*size)
	copy(c.Bytes(Slice(tmp, 0, n)), c.Bytes(send))
	for dist := 1; dist < size; dist <<= 1 {
		cnt := min(dist, size-dist)
		c.Sendrecv2(Slice(tmp, 0, cnt*n), (rank-dist+size)%size,
			Slice(tmp, dist*n, cnt*n), (rank+dist)%size, tagAGBruck)
	}
	head := (size - rank) * n // tmp[0, head) is ranks rank … size-1
	copy(c.Bytes(Slice(recv, rank*n, head)), c.Bytes(Slice(tmp, 0, head)))
	copy(c.Bytes(Slice(recv, 0, rank*n)), c.Bytes(Slice(tmp, head, rank*n)))
}

// rabAllreduce is allreduce/rabenseifner: a reduce-scatter by recursive
// halving (each step exchanges half the remaining range, so total traffic
// per rank is ~one vector) followed by an allgather by recursive doubling
// over the same ranges. Bandwidth-optimal for long vectors; the extra
// phase costs 2·log2 startups, so the tuning table gates it by size.
func (c *Comm) rabAllreduce(send, recv Buffer, dt Datatype, op Op) {
	size, n := c.Size(), send.Len
	es := dt.Size()
	if n%es != 0 {
		panic("mpi: allreduce buffer not a whole number of elements")
	}
	acc := c.scratch(&c.scr.acc, n)
	tmp := c.scratch(&c.scr.tmp, n)
	copy(c.Bytes(acc), c.Bytes(send))

	pof2 := pof2Below(size)
	rem := size - pof2
	vrank := c.foldDown(acc, tmp, dt, op, rem)
	if vrank != -1 && pof2 > 1 {
		// Element ranges: chunk i of pof2 covers elements
		// [disp[i], disp[i]+cnt[i]), remainder spread over the first chunks.
		elems := n / es
		cnts := make([]int, pof2)
		disps := make([]int, pof2)
		for i := range cnts {
			cnts[i] = elems / pof2
			if i < elems%pof2 {
				cnts[i]++
			}
			if i > 0 {
				disps[i] = disps[i-1] + cnts[i-1]
			}
		}
		span := func(lo, hi int) (off, bytes int) { // element chunks [lo,hi) as a byte range
			return disps[lo] * es, (disps[hi-1] + cnts[hi-1] - disps[lo]) * es
		}

		// Reduce-scatter by recursive halving: each step keeps the half of
		// the remaining chunk range on this rank's side of the partner and
		// sends the other half, combining what arrives.
		sendIdx, recvIdx, lastIdx := 0, 0, pof2
		for mask := 1; mask < pof2; mask <<= 1 {
			vpeer := vrank ^ mask
			peer := foldReal(vpeer, rem)
			half := pof2 / (mask * 2)
			// The send range is the partner's half of [recvIdx, lastIdx);
			// the recv range is this rank's half.
			var sLo, sHi, rLo, rHi int
			if vrank < vpeer {
				sendIdx = recvIdx + half
				sLo, sHi = sendIdx, lastIdx
				rLo, rHi = recvIdx, sendIdx
			} else {
				recvIdx = sendIdx + half
				sLo, sHi = sendIdx, recvIdx
				rLo, rHi = recvIdx, lastIdx
			}
			sOff, sBytes := span(sLo, sHi)
			rOff, rBytes := span(rLo, rHi)
			c.Sendrecv2(Slice(acc, sOff, sBytes), peer, Slice(tmp, rOff, rBytes), peer, tagRabRS)
			reduce(c.Bytes(Slice(acc, rOff, rBytes)), c.Bytes(Slice(tmp, rOff, rBytes)), dt, op)
			c.chargeReduceFlops(rBytes, dt)
			sendIdx = recvIdx
			// Keep lastIdx through the final halving step: the allgather's
			// first exchange reuses it as its receive bound.
			if mask*2 < pof2 {
				lastIdx = recvIdx + half
			}
		}

		// Allgather by recursive doubling over the same ranges, unwinding
		// the halving schedule in reverse mask order.
		for mask := pof2 >> 1; mask > 0; mask >>= 1 {
			vpeer := vrank ^ mask
			peer := foldReal(vpeer, rem)
			half := pof2 / (mask * 2)
			if vrank < vpeer {
				if mask != pof2>>1 {
					lastIdx += half
				}
				recvIdx = sendIdx + half
			} else {
				recvIdx = sendIdx - half
			}
			var sLo, sHi, rLo, rHi int
			if vrank < vpeer {
				sLo, sHi = sendIdx, recvIdx
				rLo, rHi = recvIdx, lastIdx
			} else {
				sLo, sHi = sendIdx, lastIdx
				rLo, rHi = recvIdx, sendIdx
			}
			sOff, sBytes := span(sLo, sHi)
			rOff, rBytes := span(rLo, rHi)
			c.Sendrecv2(Slice(acc, sOff, sBytes), peer, Slice(acc, rOff, rBytes), peer, tagRabAG)
			if vrank > vpeer {
				sendIdx = recvIdx
			}
		}
	}
	c.unfold(acc, recv, rem)
}

// saBcast is bcast/scatter-allgather (van de Geijn): the root binomially
// scatters ceiling-size chunks across virtual ranks, then a ring
// allgatherv reassembles the full buffer everywhere. Total traffic per
// rank is ~2 vectors independent of size, versus log2·vector for the
// binomial tree, so it wins for long messages.
func (c *Comm) saBcast(buf Buffer, root int) {
	size, rank, n := c.Size(), c.Rank(), buf.Len
	if size == 1 {
		return
	}
	vrank := (rank - root + size) % size
	real := func(v int) int { return (v + root) % size }
	chunk := n / size
	if n%size != 0 {
		chunk++
	}
	// Chunk i's offset and size, both clamped at the tail: on a buffer short
	// against the communicator, trailing chunks are empty and sit at n.
	blkOff := func(i int) int { return min(i*chunk, n) }
	blkLen := func(i int) int {
		l := n - i*chunk
		if l < 0 {
			l = 0
		}
		if l > chunk {
			l = chunk
		}
		return l
	}

	// Binomial scatter over virtual ranks: each rank first receives its
	// range [vrank*chunk, …) from the ancestor that covers it, then hands
	// the upper halves of that range down the tree.
	curr := 0
	if vrank == 0 {
		curr = n
	}
	mask := 1
	for mask < size {
		if vrank&mask != 0 {
			curr = n - vrank*chunk
			if curr < 0 {
				curr = 0
			}
			if curr > mask*chunk {
				curr = mask * chunk
			}
			// An empty range gets no message at all (the parent's send-size
			// check skips it), so don't post a receive for it.
			if curr > 0 {
				c.Recv2(Slice(buf, blkOff(vrank), curr), real(vrank-mask), tagSAScatter)
			}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < size {
			send := curr - mask*chunk
			if send > 0 {
				dst := real(vrank + mask)
				c.Send2(Slice(buf, blkOff(vrank+mask), send), dst, tagSAScatter)
				curr -= send
			}
		}
		mask >>= 1
	}

	// Ring allgatherv over the chunks, indexed by virtual rank: step s
	// forwards the chunk received at step s-1, so after size-1 steps every
	// rank holds every chunk. Tail chunks may be empty; zero-length
	// messages still ride the ring so the schedule stays uniform.
	right := real((vrank + 1) % size)
	left := real((vrank - 1 + size) % size)
	for step := 0; step < size-1; step++ {
		sblk := (vrank - step + size) % size
		rblk := (vrank - step - 1 + size) % size
		c.Sendrecv2(Slice(buf, blkOff(sblk), blkLen(sblk)), right,
			Slice(buf, blkOff(rblk), blkLen(rblk)), left, tagSARing)
	}
}
