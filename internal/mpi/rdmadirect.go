package mpi

import (
	"fmt"

	"repro/internal/ib"
)

// RDMA-direct collectives: the paper's RDMA fast path applied to whole
// collective schedules instead of single messages. Each communicator
// lazily exposes a slot region on every rank as a one-sided window
// (onesided.go); algorithm steps then move payloads with one window Put —
// one RDMA write straight from the sender's buffer into the receiver's
// pre-exposed slot, no eager copy through the channel ring, no rendezvous
// handshake — and publish each payload with a second 8-byte flag Put the
// receiver polls, exactly the remote-write completion detection the
// channel design uses for its own ring.
//
// Correctness leans on two orderings the fabric model provides. First,
// two writes posted on one queue pair apply in order (the send engine
// serializes granules and the switch model preserves per-flow granule
// order), so a flag can never overtake its payload. Second, a writer's
// completion fires only after the remote apply, so waiting out the
// window's outstanding writes before touching local buffers makes reuse
// safe, and leaves our payloads visible at their targets.
//
// Slot reuse across calls is guarded by call-parity double buffering:
// call k uses slot bank k mod 2 within its algorithm family's dedicated
// slot area (areas are a pure function of the communicator size, so
// interleaved allreduce/alltoall calls never alias each other's bytes),
// and the flag value is the per-comm call sequence number, never reused.
// A single bank is provably racy — a partner can post its call-k+1 write
// before we read its call-k slot — but two suffice: completing any direct
// call causally requires every rank to have posted its initial write for
// that call, hence to have finished the call before it outright
// (alltoall receives from everyone; an allreduce result data-depends on
// every rank's fold-in), so a same-bank writer at call k+2 can only exist
// once every call-k slot has been read.
//
// Applicability (rdmaDirectOK) requires the cluster-wide capability flag
// — channel-design transport, no SRQ eager mode, no armed fault plan; any
// rail count, the exposure living on rail 0 — and an all-inter-node
// communicator. Under an armed fault plan the flag is down, so a tuning
// table forcing "rdma-direct" falls back to the flat algorithms through
// the registry's standard fallback: that is the failover story the
// rail-loss sweep asserts.

// rdmaDirect is a communicator's exposure state. The exposure is a
// one-sided window over a row of slots, each slotSize payload bytes plus
// an 8-byte flag, split into two parity banks of slots/2 lanes each; every
// payload and flag is a window Put.
type rdmaDirect struct {
	slotSize int // payload bytes per slot (power of two, grow-only)
	slots    int // total slots, both parity banks (grow-only)
	win      *Win
	seq      uint64 // collective call counter; the published flag value
	calls    int    // completed RDMA-direct collectives (test hook)
	flagSrc  Buffer // 8-byte staging cell the flag writes gather from
}

func (x *rdmaDirect) stride() int { return x.slotSize + 8 }

// ensureDirect returns the communicator's exposure state, (re)building it
// when a call needs larger slots or more of them. Every rank computes the
// same (minSlot, nSlots) from the same collective arguments and carries
// the same grow-only state, so all ranks agree on whether to rebuild —
// the rebuild's pairwise address exchange is itself collective. A rebuild
// is safe mid-stream: every direct collective waits out its writes before
// returning, so no write targeting the old region is still in flight when
// any rank enters the exchange. The superseded region stays registered.
func (c *Comm) ensureDirect(minSlot, nSlots int) *rdmaDirect {
	x := c.direct
	if x == nil {
		x = &rdmaDirect{win: &Win{comm: c, peers: make([]winPeer, c.Size())}}
		c.direct = x
	}
	if x.slotSize >= minSlot && x.slots >= nSlots {
		return x
	}
	for x.slotSize < minSlot {
		if x.slotSize == 0 {
			x.slotSize = 64
			continue
		}
		x.slotSize *= 2
	}
	x.slots = max(x.slots, nSlots)
	x.win.base, _ = c.Alloc(x.slots * x.stride()) // zero-filled: flags start clear
	if x.flagSrc.Len == 0 {
		x.flagSrc, _ = c.Alloc(8)
	}
	// rdmaDirectOK vouched for every connection; a failure here is a
	// capability-flag bug, not a runtime condition.
	must(x.win.expose(ib.AccessLocalWrite|ib.AccessRemoteWrite, nil))
	return x
}

// must panics on a failure the RDMA-direct path cannot recover from.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("mpi: rdma-direct: %v", err))
	}
}

// publish writes local into slot of peer's region, then the current call
// sequence into the slot's flag word. Both are posted on the same queue
// pair, so the flag applies after the payload.
func (x *rdmaDirect) publish(c *Comm, peer, slot int, local Buffer) {
	if local.Len > 0 {
		must(x.win.Put(local, peer, slot*x.stride()))
	}
	PutInt64(c.Bytes(x.flagSrc), 0, int64(x.seq))
	must(x.win.Put(x.flagSrc, peer, slot*x.stride()+x.slotSize))
}

// await polls slot's flag word until it carries the current call sequence
// — the channel design's poll-on-last-byte, one level up.
func (x *rdmaDirect) await(c *Comm, slot int) {
	fb := c.Bytes(Slice(x.win.base, slot*x.stride()+x.slotSize, 8))
	want := int64(x.seq)
	c.eng.Watch().Wait(c.p, func() bool { return GetInt64(fb, 0) == want })
}

// slotBytes resolves slot's first n payload bytes.
func (x *rdmaDirect) slotBytes(c *Comm, slot, n int) []byte {
	return c.Bytes(Slice(x.win.base, slot*x.stride(), n))
}

// directSlotPlan lays out the region's slot areas: the allreduce family
// owns slots [0, 2·arLanes), the alltoall family [2·arLanes, total), each
// split into two parity banks. Pure function of the communicator size.
func (c *Comm) directSlotPlan() (arLanes, total int) {
	size := c.Size()
	pof2 := pof2Below(size)
	steps := 0
	for m := 1; m < pof2; m <<= 1 {
		steps++
	}
	arLanes = steps + 2
	return arLanes, 2*arLanes + 2*size
}

// RDMADirectCalls reports how many collectives completed on the
// RDMA-direct path on this communicator — the positive proof, used by
// tests, that a forced "rdma-direct" tuning actually took the direct path
// rather than falling back.
func (c *Comm) RDMADirectCalls() int {
	if c.direct == nil {
		return 0
	}
	return c.direct.calls
}

// directAllreduce is allreduce/rdma-direct: the recursive-doubling
// schedule with every exchange a pre-exposed RDMA write. Lane layout per
// parity bank: lane 0 receives the fold-in contribution, lanes 1..steps
// the doubling exchanges, lane steps+1 the finished result on the way
// back to the folded-out evens.
func (c *Comm) directAllreduce(send, recv Buffer, dt Datatype, op Op) {
	size, rank, n := c.Size(), c.Rank(), send.Len
	pof2 := pof2Below(size)
	rem := size - pof2
	lanes, total := c.directSlotPlan()
	x := c.ensureDirect(n, total)
	x.seq++
	base := int(x.seq&1) * lanes

	acc := c.scratch(&c.scr.acc, n)
	copy(c.Bytes(acc), c.Bytes(send))

	vrank := rank - rem
	if rank < 2*rem {
		if rank%2 == 0 {
			x.publish(c, rank+1, base, acc)
			must(x.win.waitOutstanding(0))
			vrank = -1
		} else {
			x.await(c, base)
			reduce(c.Bytes(acc), x.slotBytes(c, base, n), dt, op)
			c.chargeReduceFlops(n, dt)
			vrank = rank / 2
		}
	}
	if vrank != -1 {
		lane := 1
		for mask := 1; mask < pof2; mask <<= 1 {
			peer := foldReal(vrank^mask, rem)
			x.publish(c, peer, base+lane, acc)
			must(x.win.waitOutstanding(0)) // acc is rewritten next; the write must have gathered
			x.await(c, base+lane)
			reduce(c.Bytes(acc), x.slotBytes(c, base+lane, n), dt, op)
			c.chargeReduceFlops(n, dt)
			lane++
		}
	}
	if rank < 2*rem && rank%2 == 0 {
		x.await(c, base+lanes-1)
		copy(c.Bytes(recv), x.slotBytes(c, base+lanes-1, n))
	} else {
		if rank < 2*rem {
			x.publish(c, rank-1, base+lanes-1, acc)
			must(x.win.waitOutstanding(0))
		}
		copy(c.Bytes(recv), c.Bytes(acc))
	}
	x.calls++
}

// directAlltoall is alltoall/rdma-direct: every rank writes block i
// straight into rank i's lane for this source rank, publishes it, and
// polls its own lanes — the pairwise schedule's messages without its
// lockstep send/receive coupling, so a slow uplink stalls only the
// writers crossing it.
func (c *Comm) directAlltoall(send, recv Buffer) {
	size, rank := c.Size(), c.Rank()
	n := send.Len / size
	arLanes, total := c.directSlotPlan()
	x := c.ensureDirect(n, total)
	x.seq++
	base := 2*arLanes + int(x.seq&1)*size

	copy(c.Bytes(Slice(recv, rank*n, n)), c.Bytes(Slice(send, rank*n, n)))
	for step := 1; step < size; step++ {
		to := (rank + step) % size
		x.publish(c, to, base+rank, Slice(send, to*n, n))
	}
	must(x.win.waitOutstanding(0))
	for step := 1; step < size; step++ {
		from := (rank - step + size) % size
		x.await(c, base+from)
		copy(c.Bytes(Slice(recv, from*n, n)), x.slotBytes(c, base+from, n))
	}
	x.calls++
}
