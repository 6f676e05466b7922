package rdmachan

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/ib"
)

// basicEP is the basic design of §4.2: a byte ring in the receiver's
// memory, emulating the globally-shared-memory scheme of Figure 3 with
// RDMA writes. Head and tail pointers are replicated — the master head
// lives at the sender, its replica at the receiver; the master tail at the
// receiver, its replica at the sender — and every update crosses the wire
// as its own RDMA write.
//
// The design is a deliberately direct translation of the shared-memory
// code: each put performs copy → RDMA write → wait for completion → RDMA
// write of the head pointer → wait for completion, so every store is
// globally visible before the next step, exactly as the shared-memory
// version's program order guarantees. That conservatism is what the paper
// measures: "a matching pair of send and receive operations in MPI require
// three RDMA write operations", 18.6 µs latency and 230 MB/s bandwidth,
// with memory copies fully serialized against communication (§4.2.1).
// Staging cycles through the whole ring, so its copies run at streaming
// (memory-bound) rate rather than cache rate.
type basicEP struct {
	*endpointBase

	// Receive side: the ring lives in this endpoint's memory.
	ring    []byte
	ringVA  uint64
	ringMR  *ib.MR
	headIn  slot8  // head replica, written by the peer
	tail    uint64 // master tail (bytes consumed)
	tailOut counterWriter

	// Send side.
	staging   []byte
	stagingVA uint64
	stagingMR *ib.MR
	head      uint64 // master head (bytes produced)
	tailIn    slot8  // tail replica, written by the peer
	headOut   counterWriter
	peerRing  remoteWindow
}

// remoteWindow names peer memory reachable by RDMA.
type remoteWindow struct {
	va   uint64
	rkey uint32
	size int
}

// Footprint reports this side's dedicated per-connection memory: the byte
// ring and its staging mirror plus the replicated pointer slots and one
// queue pair. The basic ring is one undivided eager buffer.
func (e *basicEP) Footprint() Footprint {
	ringBytes := int64(2 * e.cfg.RingSize)
	return Footprint{
		QPs:         1,
		EagerSlots:  1,
		EagerBytes:  ringBytes,
		PinnedBytes: ringBytes + 4*8,
	}
}

func newBasicPair(p *des.Proc, cfg Config, ba, bb *endpointBase) (Endpoint, Endpoint, error) {
	a := &basicEP{endpointBase: ba}
	b := &basicEP{endpointBase: bb}
	if err := ib.Connect(a.rails[0].qp, b.rails[0].qp); err != nil {
		return nil, nil, err
	}
	for _, e := range []*basicEP{a, b} {
		if err := e.setupLocal(p); err != nil {
			return nil, nil, err
		}
	}
	a.exchange(b)
	b.exchange(a)
	return a, b, nil
}

func (e *basicEP) setupLocal(p *des.Proc) error {
	n := e.cfg.RingSize
	e.ringVA, e.ring = e.node.Mem.Alloc(n)
	r0 := &e.rails[0]
	var err error
	e.ringMR, err = r0.hca.RegisterMR(p, r0.pd, e.ringVA, n,
		ib.AccessLocalWrite|ib.AccessRemoteWrite)
	if err != nil {
		return err
	}
	e.stagingVA, e.staging = e.node.Mem.Alloc(n)
	e.stagingMR, err = r0.hca.RegisterMR(p, r0.pd, e.stagingVA, n, ib.AccessLocalWrite)
	if err != nil {
		return err
	}
	if e.headIn, err = newSlot8(p, r0); err != nil {
		return err
	}
	if e.tailIn, err = newSlot8(p, r0); err != nil {
		return err
	}
	if e.tailOut.src, err = newSlot8(p, r0); err != nil {
		return err
	}
	e.tailOut.qp = r0.qp
	if e.headOut.src, err = newSlot8(p, r0); err != nil {
		return err
	}
	e.headOut.qp = r0.qp
	return nil
}

// exchange installs peer addresses, the simulated stand-in for the
// connection-setup address/rkey exchange of §4.2.
func (e *basicEP) exchange(peer *basicEP) {
	e.peerRing = remoteWindow{va: peer.ringVA, rkey: peer.ringMR.RKey(), size: peer.cfg.RingSize}
	e.tailOut.peerVA = peer.tailIn.va
	e.tailOut.peerKey = peer.tailIn.mr.RKey()
	e.headOut.peerVA = peer.headIn.va
	e.headOut.peerKey = peer.headIn.mr.RKey()
}

// Put implements the six-step sender algorithm of §4.2.
func (e *basicEP) Put(p *des.Proc, bufs []Buffer) (int, error) {
	e.stats.PutCalls++
	p.Sleep(e.prm.ChanOverhead)
	total := Total(bufs)
	if total == 0 {
		return 0, nil
	}

	// Step 1: local head and tail replica decide the available space.
	// Write only up to the end of the ring; the next call handles wrap.
	used := int(e.head - e.tailIn.value())
	space := e.cfg.RingSize - used
	off := int(e.head % uint64(e.cfg.RingSize))
	if contig := e.cfg.RingSize - off; space > contig {
		space = contig
	}
	n := total
	if n > space {
		n = space
	}
	if n <= 0 {
		return 0, nil
	}

	// Step 2: copy user data into the preregistered buffer. The staging
	// region cycles through the whole ring, so the copy streams from
	// memory (no cache reuse) — the serialized copy the paper blames for
	// the basic design's bandwidth.
	dst := e.staging[off : off+n]
	copied := 0
	for _, b := range bufs {
		if copied >= n {
			break
		}
		src, err := e.resolve(b)
		if err != nil {
			return 0, fmt.Errorf("rdmachan(basic): put: %w", err)
		}
		copied += copy(dst[copied:], src)
	}
	e.node.Bus.Memcpy(p, n, e.prm.CacheKneeHigh)

	// Step 3: RDMA write the data to the ring, and wait for the
	// completion so the data is globally visible before the head moves
	// (the shared-memory program order, enforced with a completion).
	e.rails[0].qp.PostSend(p, ib.SendWR{
		WRID: wridBasicData, Op: ib.OpRDMAWrite, Signaled: true,
		SGL:        []ib.SGE{{Addr: e.stagingVA + uint64(off), Len: n, LKey: e.stagingMR.LKey()}},
		RemoteAddr: e.peerRing.va + uint64(off), RKey: e.peerRing.rkey,
	})
	if cqe := e.rails[0].scq.Poll(p); cqe.Status != ib.StatusSuccess {
		return 0, fmt.Errorf("rdmachan(basic): data write failed: %v", cqe.Status)
	}

	// Steps 4–5: advance the master head and RDMA write the replica,
	// again waiting for visibility.
	e.head += uint64(n)
	e.headOut.post(p, e.head, true, wridBasicHead)
	if cqe := e.rails[0].scq.Poll(p); cqe.Status != ib.StatusSuccess {
		return 0, fmt.Errorf("rdmachan(basic): head write failed: %v", cqe.Status)
	}

	// Step 6: report bytes written.
	return n, nil
}

// Get implements the five-step receiver algorithm of §4.2.
func (e *basicEP) Get(p *des.Proc, bufs []Buffer) (int, error) {
	e.stats.GetCalls++
	p.Sleep(e.prm.ChanOverhead)
	want := Total(bufs)
	if want == 0 {
		return 0, nil
	}

	// Step 1: compare local head replica and master tail.
	avail := int(e.headIn.value() - e.tail)
	off := int(e.tail % uint64(e.cfg.RingSize))
	if contig := e.cfg.RingSize - off; avail > contig {
		avail = contig
	}
	n := want
	if n > avail {
		n = avail
	}
	if n <= 0 {
		return 0, nil
	}

	// Step 2: copy from the shared ring into the user buffers.
	src := e.ring[off : off+n]
	copied := 0
	for _, b := range bufs {
		if copied >= n {
			break
		}
		dst, err := e.resolve(b)
		if err != nil {
			return 0, fmt.Errorf("rdmachan(basic): get: %w", err)
		}
		copied += copy(dst, src[copied:])
	}
	e.node.Bus.Memcpy(p, n, e.prm.CacheKneeHigh)

	// Steps 3–4: advance the master tail and update the sender's replica
	// with an RDMA write (fire-and-forget; staleness only delays the
	// sender, §4.2).
	e.tail += uint64(n)
	e.tailOut.write(p, e.tail)

	// Step 5: report bytes read.
	return n, nil
}

// Work request IDs for the basic design's signaled writes.
const (
	wridBasicData = 0xB000
	wridBasicHead = 0xB001
)
