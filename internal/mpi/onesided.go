package mpi

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/rdmachan"
	"repro/internal/transport"
)

// This file implements the MPI-2 one-sided extension the paper flags as
// future work (§9): "provide support for MPI-2 functionalities such as
// one-sided communication using RDMA and atomic operations in InfiniBand".
// A window exposes a region of each rank's memory; Put and Get map
// directly onto RDMA write/read on the existing connections' queue pairs,
// and FetchAdd/CompareSwap map onto InfiniBand atomics — no target-side
// CPU involvement, the whole point of the exercise.
//
// The extension requires an RDMA-capable transport (piggyback, pipeline,
// zero-copy or CH3); the basic design's endpoints do not expose raw queue
// pairs, and an SRQ-mode connection has no queue pair of its own to expose.
// On a multi-rail connection a window lives on rail 0: registered under
// rail 0's protection domain, its operations posted on rail 0's queue pair.
// Its completions come back through the connection's completion router
// (rdmachan.RawAccess.OnCQE) under the window's own WRID class, so a window
// shares a connection with striped rendezvous traffic, RDMA-direct
// collectives and other windows without any of them seeing another's
// completions.

// Win is a one-sided communication window.
type Win struct {
	comm *Comm
	base Buffer

	peers []winPeer // indexed by rank; self entry unused
	// Outstanding signaled one-sided operations awaiting completion.
	outstanding int
	failed      error
}

type winPeer struct {
	raw     rdmachan.RawAccess
	wrid    uint64 // the window's WRID class on this connection
	mr      *ib.MR // window registration under this connection's PD
	rAddr   uint64 // peer window base
	rKey    uint32 // peer window rkey for this connection
	scratch Buffer // registered 8-byte scratch for atomics results
	scrMR   *ib.MR
}

// rawOf digs the verbs-level access out of a transport endpoint.
func rawOf(ep transport.Endpoint) (rdmachan.RawAccess, error) {
	type hasEndpoint interface{ Endpoint() rdmachan.Endpoint }
	he, ok := ep.(hasEndpoint)
	if !ok {
		if _, srq := ep.(interface{ Pool() *rdmachan.SRQPool }); srq {
			return nil, fmt.Errorf("mpi: one-sided windows need a channel-design transport, " +
				"and this cluster runs the SRQ-backed eager mode: set cluster.Config.Chan.UseSRQ = false " +
				"(keeping Config.ConnectMode = ConnectLazy is fine — windows establish their " +
				"connections on creation); see DESIGN.md §9")
		}
		return nil, fmt.Errorf("mpi: one-sided windows need a channel-design InfiniBand transport " +
			"(this connection — e.g. an intra-node shared-memory pair — exposes no raw verbs endpoint)")
	}
	raw, ok := he.Endpoint().(rdmachan.RawAccess)
	if !ok {
		return nil, fmt.Errorf("mpi: one-sided windows need an RDMA-capable transport (not the basic design)")
	}
	return raw, nil
}

// WinCreate collectively exposes base on every rank and returns the
// window. The base buffer must be at least `size` bytes on every rank.
func (c *Comm) WinCreate(base Buffer) (*Win, error) {
	w := &Win{comm: c, base: base, peers: make([]winPeer, c.Size())}
	np, rank := c.Size(), c.Rank()

	// Register the window under every connection's protection domain and
	// exchange (addr, rkey) pairwise — the window-creation handshake.
	for peer := 0; peer < np; peer++ {
		if peer == rank {
			continue
		}
		// Lazy mode: a window grants every member RDMA access to this rank,
		// so window creation is the first use — establish the connection
		// before digging out its verbs resources.
		c.eng.EnsureConnected(c.p, c.world(peer))
		raw, err := rawOf(c.eng.Endpoint(c.world(peer)))
		if err != nil {
			return nil, err
		}
		hca := c.eng.HCA()
		mr, err := hca.RegisterMR(c.p, raw.RawPD(), base.Addr, base.Len,
			ib.AccessLocalWrite|ib.AccessRemoteWrite|ib.AccessRemoteRead|ib.AccessRemoteAtomic)
		if err != nil {
			return nil, fmt.Errorf("mpi: window registration: %w", err)
		}
		scratchVA, _ := c.eng.Node().Mem.Alloc(8)
		scrMR, err := hca.RegisterMR(c.p, raw.RawPD(), scratchVA, 8, ib.AccessLocalWrite)
		if err != nil {
			return nil, fmt.Errorf("mpi: scratch registration: %w", err)
		}
		w.peers[peer] = winPeer{
			raw: raw, wrid: raw.OnCQE(w.complete), mr: mr,
			scratch: Buffer{Addr: scratchVA, Len: 8}, scrMR: scrMR,
		}

		// Exchange window addresses with this peer.
		sb, sbb := c.Alloc(16)
		rb, rbb := c.Alloc(16)
		PutInt64(sbb, 0, int64(base.Addr))
		PutInt64(sbb, 1, int64(mr.RKey()))
		c.Sendrecv(sb, peer, 900, rb, peer, 900)
		w.peers[peer].rAddr = uint64(GetInt64(rbb, 0))
		w.peers[peer].rKey = uint32(GetInt64(rbb, 1))
	}
	c.Barrier()
	return w, nil
}

// complete reaps one of the window's operations.
func (w *Win) complete(_ *des.Proc, cqe ib.CQE) {
	w.outstanding--
	if cqe.Status != ib.StatusSuccess && w.failed == nil {
		w.failed = fmt.Errorf("mpi: one-sided wr %#x failed: %v", cqe.WRID, cqe.Status)
	}
}

// Put writes local into the target rank's window at byte offset off —
// one RDMA write, no target CPU.
func (w *Win) Put(local Buffer, target, off int) error {
	p := w.peers[target]
	if p.raw == nil {
		return fmt.Errorf("mpi: Put to self or unconnected rank %d", target)
	}
	mr, _, err := p.raw.RailRegCache(0).Register(w.comm.p, local.Addr, local.Len)
	if err != nil {
		return err
	}
	defer release(w, p, mr)
	p.raw.RailQP(0).PostSend(w.comm.p, ib.SendWR{
		WRID: p.wrid, Op: ib.OpRDMAWrite, Signaled: true,
		SGL:        []ib.SGE{{Addr: local.Addr, Len: local.Len, LKey: mr.LKey()}},
		RemoteAddr: p.rAddr + uint64(off), RKey: p.rKey,
	})
	w.outstanding++
	return nil
}

// Get reads from the target rank's window at byte offset off into local —
// one RDMA read.
func (w *Win) Get(local Buffer, target, off int) error {
	p := w.peers[target]
	if p.raw == nil {
		return fmt.Errorf("mpi: Get from self or unconnected rank %d", target)
	}
	mr, _, err := p.raw.RailRegCache(0).Register(w.comm.p, local.Addr, local.Len)
	if err != nil {
		return err
	}
	defer release(w, p, mr)
	p.raw.RailQP(0).PostSend(w.comm.p, ib.SendWR{
		WRID: p.wrid, Op: ib.OpRDMARead, Signaled: true,
		SGL:        []ib.SGE{{Addr: local.Addr, Len: local.Len, LKey: mr.LKey()}},
		RemoteAddr: p.rAddr + uint64(off), RKey: p.rKey,
	})
	w.outstanding++
	return nil
}

// FetchAdd atomically adds delta to the int64 at byte offset off in the
// target window and returns the previous value (InfiniBand fetch-and-add;
// the fence is not required first — atomics complete independently).
func (w *Win) FetchAdd(target, off int, delta int64) (int64, error) {
	return w.atomic(target, off, ib.OpFetchAdd, uint64(delta), 0)
}

// CompareSwap atomically replaces the int64 at byte offset off in the
// target window with swap if it equals compare, returning the previous
// value.
func (w *Win) CompareSwap(target, off int, compare, swap int64) (int64, error) {
	return w.atomic(target, off, ib.OpCmpSwap, uint64(compare), uint64(swap))
}

func (w *Win) atomic(target, off int, op ib.Opcode, compare, swap uint64) (int64, error) {
	p := w.peers[target]
	if p.raw == nil {
		return 0, fmt.Errorf("mpi: atomic to self or unconnected rank %d", target)
	}
	before := w.outstanding
	p.raw.RailQP(0).PostSend(w.comm.p, ib.SendWR{
		WRID: p.wrid, Op: op, Signaled: true,
		SGL:        []ib.SGE{{Addr: p.scratch.Addr, Len: 8, LKey: p.scrMR.LKey()}},
		RemoteAddr: p.rAddr + uint64(off), RKey: p.rKey,
		Compare: compare, Swap: swap,
	})
	w.outstanding++
	// Atomics return a value, so wait for this operation's completion.
	w.waitOutstanding(before)
	if w.failed != nil {
		return 0, w.failed
	}
	return GetInt64(w.comm.Bytes(p.scratch), 0), nil
}

func release(w *Win, p winPeer, mr *ib.MR) {
	// The pin-down cache keeps the registration alive past the in-flight
	// DMA; refcount release here is safe and O(1).
	if err := p.raw.RailRegCache(0).Release(w.comm.p, mr); err != nil && w.failed == nil {
		w.failed = err
	}
}

// waitOutstanding drives progress until at most target one-sided
// operations remain in flight.
func (w *Win) waitOutstanding(target int) {
	w.comm.eng.ProgressUntil(w.comm.p, func() bool { return w.outstanding <= target })
}

// Fence completes all outstanding one-sided operations issued by this
// rank, then synchronizes all ranks (MPI_Win_fence semantics).
func (w *Win) Fence() error {
	w.waitOutstanding(0)
	w.comm.Barrier()
	return w.failed
}
