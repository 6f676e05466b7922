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
// shares a connection with striped rendezvous traffic and other windows —
// an RDMA-direct collective exposure (rdmadirect.go) is one — without any
// of them seeing another's completions.

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
	err := w.expose(ib.AccessLocalWrite|ib.AccessRemoteWrite|ib.AccessRemoteRead|ib.AccessRemoteAtomic,
		func(p *winPeer) error {
			// The 8-byte landing cell of this peer's atomics results.
			scratchVA, _ := c.eng.Node().Mem.Alloc(8)
			scrMR, err := c.eng.HCA().RegisterMR(c.p, p.raw.RawPD(), scratchVA, 8, ib.AccessLocalWrite)
			if err != nil {
				return fmt.Errorf("mpi: scratch registration: %w", err)
			}
			p.scratch, p.scrMR = Buffer{Addr: scratchVA, Len: 8}, scrMR
			return nil
		})
	if err != nil {
		return nil, err
	}
	c.Barrier()
	return w, nil
}

// expose registers the window's base under every member connection's
// protection domain with the given access and swaps (addr, rkey) with each
// peer — the window-creation handshake, shared by WinCreate and the
// RDMA-direct exposure. extra, when non-nil, runs per peer between the
// registration and the exchange. A peer keeps the WRID class it was given
// on an earlier exposure of the same window.
func (w *Win) expose(access ib.Access, extra func(p *winPeer) error) error {
	c := w.comm
	for peer := range w.peers {
		if peer == c.Rank() {
			continue
		}
		// Lazy mode: a window grants every member RDMA access to this rank,
		// so window creation is the first use — establish the connection
		// before digging out its verbs resources.
		c.eng.EnsureConnected(c.p, c.world(peer))
		raw, err := rawOf(c.eng.Endpoint(c.world(peer)))
		if err != nil {
			return err
		}
		mr, err := c.eng.HCA().RegisterMR(c.p, raw.RawPD(), w.base.Addr, w.base.Len, access)
		if err != nil {
			return fmt.Errorf("mpi: window registration: %w", err)
		}
		p := &w.peers[peer]
		p.raw = raw
		if extra != nil {
			if err := extra(p); err != nil {
				return err
			}
		}
		if p.wrid == 0 {
			p.wrid = raw.OnCQE(w.complete)
		}

		// Exchange addresses on the collective context, where no user
		// receive can match them. Receiving a peer's (addr, rkey) implies
		// the peer registered first, so an operation can never race its
		// target's registration.
		sb, sbb := c.Alloc(16)
		rb, rbb := c.Alloc(16)
		PutInt64(sbb, 0, int64(w.base.Addr))
		PutInt64(sbb, 1, int64(mr.RKey()))
		c.Sendrecv2(sb, peer, rb, peer, tagXAddr)
		p.rAddr = uint64(GetInt64(rbb, 0))
		p.rKey = uint32(GetInt64(rbb, 1))
	}
	return nil
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
	return w.rdma(ib.OpRDMAWrite, "Put to", local, target, off)
}

// Get reads from the target rank's window at byte offset off into local —
// one RDMA read.
func (w *Win) Get(local Buffer, target, off int) error {
	return w.rdma(ib.OpRDMARead, "Get from", local, target, off)
}

// rdma posts one signaled RDMA op between local and the target's window at
// byte offset off; what names the call in the error.
func (w *Win) rdma(op ib.Opcode, what string, local Buffer, target, off int) error {
	p := w.peers[target]
	if p.raw == nil {
		return fmt.Errorf("mpi: %s self or unconnected rank %d", what, target)
	}
	mr, _, err := p.raw.RailRegCache(0).Register(w.comm.p, local.Addr, local.Len)
	if err != nil {
		return err
	}
	defer release(w, p, mr)
	p.raw.RailQP(0).PostSend(w.comm.p, ib.SendWR{
		WRID: p.wrid, Op: op, Signaled: true,
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
	if err := w.waitOutstanding(before); err != nil {
		return 0, err
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
// operations remain in flight, and reports the window's first failure.
func (w *Win) waitOutstanding(target int) error {
	w.comm.eng.ProgressUntil(w.comm.p, func() bool { return w.outstanding <= target })
	return w.failed
}

// Fence completes all outstanding one-sided operations issued by this
// rank, then synchronizes all ranks (MPI_Win_fence semantics).
func (w *Win) Fence() error {
	w.waitOutstanding(0)
	w.comm.Barrier()
	return w.failed
}
