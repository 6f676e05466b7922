package rdmachan

import (
	"encoding/binary"
	"fmt"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/regcache"
)

// Chunk framing (§4.3): the ring is divided into fixed-size chunks; each
// message segment occupies one chunk and carries its own detection flags,
// so the receiver polls chunk flags instead of a head pointer and the
// sender never sends a separate head-pointer update.
//
// Layout within a chunk:
//
//	[0:4)   seq+1   (uint32 LE) — leading flag; 0 never matches
//	[4]     type    (1 = data, 2 = RTS)
//	[5:8)   reserved
//	[8:12)  paylen  (uint32 LE)
//	[12:16) credits (uint32 LE) — piggybacked cumulative consumed count
//	[16:16+paylen) payload
//	[16+paylen]    trailing flag = byte(seq+1) ("bottom fill")
//
// A chunk is valid when both flags match the expected sequence number;
// sequence numbers distinguish a fresh chunk from the stale contents of a
// previous ring lap.
const (
	chunkHdrSize  = 16
	chunkOverhead = chunkHdrSize + 1

	chunkData byte = 1
	chunkRTS  byte = 2

	// RTS payload: addr(8) + size(8) + rkey(4) — the historical 20-byte
	// form, emitted whenever the transfer uses one rail. A striped
	// transfer emits addr(8) + size(8) + span(4) + one rkey(4) per
	// stripe, a resilient one span(4) + one rkey(4) per connection rail (0
	// = rail not offered); the receiver distinguishes the first two by
	// length (20 vs 20+4·stripes with stripes ≥ 2) and takes the block
	// length from the span field rather than re-deriving it, so both sides
	// always agree on the block ranges their per-rail registrations cover.
	rtsPayloadBase = 16
	rtsPayloadMax  = rtsPayloadBase + 4 + 4*MaxRails

	// Resilient-mode chunk-write tag (DESIGN.md §11): recovery needs to know,
	// from an error completion alone, which chunk to re-post, so resilient
	// chunk writes carry a kind tag in the top byte and the chunk sequence
	// below it. Disjoint from the routed mark (cqroute.go), so completions of
	// the stripe mover and the layers above still reach them.
	wridChunkMark = uint64(0x43) << 56
)

// railMR is a registration pinned on one rail's adapter — zero-copy
// transfer state tracks the rail so re-issued stripes can land on a
// different adapter than the stripe index implies.
type railMR struct {
	rail int
	mr   *ib.MR
}

// rtsInfo is an RTS chunk's content: the sender's buffer, its size, the
// stripe span and the sender's rkey per rail (0 = rail not offered).
type rtsInfo struct {
	addr       uint64
	size, span int
	keys       [MaxRails]uint32
}

// encode writes r as an RTS payload for a connection of nRails rails and
// returns its length: one key slot per stripe, or per rail when resilient.
func (r *rtsInfo) encode(dst []byte, nRails int, resilient bool) int {
	binary.LittleEndian.PutUint64(dst[0:8], r.addr)
	binary.LittleEndian.PutUint64(dst[8:16], uint64(r.size))
	slots := nRails
	if !resilient {
		slots = (r.size-1)/r.span + 1
	}
	keys := dst[rtsPayloadBase:]
	if resilient || slots > 1 {
		binary.LittleEndian.PutUint32(keys[0:4], uint32(r.span))
		keys = keys[4:]
	}
	for k := 0; k < slots; k++ {
		binary.LittleEndian.PutUint32(keys[4*k:4*k+4], r.keys[k])
	}
	return len(dst) - len(keys) + 4*slots
}

// decodeRTS parses and validates an RTS payload for a connection of nRails
// rails: the move it describes must have a size, a span, and no more
// stripes than the connection has rails — a plain one, exactly one offered
// key per stripe. It accepts exactly what encode emits.
func decodeRTS(pay []byte, nRails int, resilient bool) (r rtsInfo, err error) {
	n := len(pay)
	if n < rtsPayloadBase+4 || (n-rtsPayloadBase)%4 != 0 ||
		resilient && n != rtsPayloadBase+4+4*nRails ||
		!resilient && n == rtsPayloadBase+8 { // a striped RTS has ≥ 2 stripes
		return r, fmt.Errorf("corrupt RTS length %d", n)
	}
	r.addr = binary.LittleEndian.Uint64(pay[0:8])
	r.size = int(binary.LittleEndian.Uint64(pay[8:16]))
	r.span = r.size
	keys := pay[rtsPayloadBase:]
	if resilient || n > rtsPayloadBase+4 {
		r.span = int(binary.LittleEndian.Uint32(keys[0:4]))
		keys = keys[4:]
	}
	slots := len(keys) / 4
	if slots > nRails {
		return r, fmt.Errorf("RTS names %d rails, connection has %d", slots, nRails)
	}
	if r.size < 1 || r.span < 1 {
		return r, fmt.Errorf("corrupt RTS: size %d, span %d", r.size, r.span)
	}
	stripes := (r.size-1)/r.span + 1
	if stripes > nRails || !resilient && stripes != slots {
		return r, fmt.Errorf("corrupt RTS span %d: %d stripes of %d bytes over %d key slots, %d rails",
			r.span, stripes, r.size, slots, nRails)
	}
	for k := 0; k < slots; k++ {
		if r.keys[k] = binary.LittleEndian.Uint32(keys[4*k : 4*k+4]); r.keys[k] == 0 && !resilient {
			return r, fmt.Errorf("RTS offers no key for stripe %d", k)
		}
	}
	return r, nil
}

// chunkEP implements the piggyback, pipeline and zero-copy designs; the
// three differ only in the pipelined and zc flags set from cfg.Design.
type chunkEP struct {
	*endpointBase
	cqRouter       // completions of signaled work posted above the channel
	pipelined bool // overlap per-chunk copies with RDMA writes (§4.4)
	zc        bool // RDMA-read zero-copy for large messages (§5)
	resilient bool // fault-survival mode (NewConnectionRails)

	nChunks    int
	maxPayload int

	// Receive side: the ring lives in this endpoint's memory, registered
	// once per rail so any rail's queue pair may deliver into it. Ring and
	// staging are slotted regions, one slot per chunk, backed on the host
	// only while a slot holds a chunk (model.AllocSlots).
	ring      model.Slots
	ringVA    uint64
	ringMRs   []*ib.MR // by rail
	recvSeq   uint64   // chunks fully consumed == next expected seq
	chunkOff  int      // bytes of the current chunk's payload already delivered
	announced uint64   // consumed count last conveyed to the peer
	creditOut counterWriter

	// Send side.
	staging       model.Slots
	stagingVA     uint64
	stagingMRs    []*ib.MR       // by rail
	sendSeq       uint64         // chunks sent
	knownConsumed uint64         // peer's consumed count, from credits
	creditsIn     slot8          // explicit credit returns land here
	peerRings     []remoteWindow // peer ring window, by rail
	allRails      []int          // 0..rails-1: the live set while nothing has died
	railRR        int            // round-robin cursor of the rail policy

	// Zero-copy send state (one outstanding operation per direction; the
	// pipe is FIFO, so the paper's put returns 0 until the transfer and
	// its acknowledgement complete).
	zcSendActive bool
	zcSendBuf    Buffer
	zcSendMRs    []railMR // registrations backing the current send, by rail
	zcStarted    uint64   // cumulative zero-copy sends initiated
	zcAckIn      slot8    // peer writes cumulative completions
	zcAckOut     counterWriter
	zcCompleted  uint64 // cumulative zero-copy receives completed

	// Zero-copy receive state: the mover pulls the stripes and reports the
	// last completion (MoveDone).
	mover        Mover
	zcRecvActive bool
	zcRecvSize   int
	zcRecvDone   bool
	zcRecvMRs    []railMR // registrations backing the in-flight reads

	// railDead marks rails evicted by fault recovery (resilient mode);
	// nil until the first eviction, so the zero-fault path never touches it.
	railDead []bool

	regcs       []*regcache.Cache // pin-down cache, by rail
	railChunks  []uint64          // eager chunks posted, by rail
	railZCBytes []uint64          // zero-copy stripe bytes pulled, by rail
	err         error
}

func newChunkPair(p *des.Proc, cfg Config, ba, bb *endpointBase, resilient bool) (Endpoint, Endpoint, error) {
	a := &chunkEP{endpointBase: ba}
	b := &chunkEP{endpointBase: bb}
	for _, e := range []*chunkEP{a, b} {
		e.pipelined = cfg.Design == DesignPipeline || cfg.Design == DesignZeroCopy
		e.zc = cfg.Design == DesignZeroCopy
		e.resilient = resilient
		e.nChunks = cfg.RingSize / cfg.ChunkSize
		e.maxPayload = cfg.ChunkSize - chunkOverhead
		e.railChunks = make([]uint64, len(e.rails))
		e.railZCBytes = make([]uint64, len(e.rails))
		e.mover = NewMover(e, resilient)
		for k := range e.rails {
			e.allRails = append(e.allRails, k)
		}
	}
	for k := range a.rails {
		if err := ib.Connect(a.rails[k].qp, b.rails[k].qp); err != nil {
			return nil, nil, err
		}
	}
	for _, e := range []*chunkEP{a, b} {
		if err := e.setupLocal(p); err != nil {
			return nil, nil, err
		}
	}
	a.exchange(b)
	b.exchange(a)
	return a, b, nil
}

func (e *chunkEP) setupLocal(p *des.Proc) error {
	n := e.cfg.RingSize
	e.ringVA, e.ring = e.node.Mem.AllocSlots(e.nChunks, e.cfg.ChunkSize)
	e.stagingVA, e.staging = e.node.Mem.AllocSlots(e.nChunks, e.cfg.ChunkSize)
	// The ring and staging regions are registered on every rail's adapter:
	// any rail may deliver a chunk into the ring (remote write) or gather
	// one out of staging, and each HCA validates keys against its own
	// tables, exactly as separate physical adapters would.
	for i := range e.rails {
		r := &e.rails[i]
		ringMR, err := r.hca.RegisterMR(p, r.pd, e.ringVA, n,
			ib.AccessLocalWrite|ib.AccessRemoteWrite)
		if err != nil {
			return err
		}
		e.ringMRs = append(e.ringMRs, ringMR)
		stagingMR, err := r.hca.RegisterMR(p, r.pd, e.stagingVA, n, ib.AccessLocalWrite)
		if err != nil {
			return err
		}
		e.stagingMRs = append(e.stagingMRs, stagingMR)
		e.regcs = append(e.regcs, regcache.New(r.hca, r.pd, e.cfg.RegCacheBytes))
	}
	// Control counters (credits, zero-copy acks) live on rail 0 only: they
	// are cumulative, so a single strictly ordered path keeps them simple,
	// and their 8-byte writes are noise next to the data rails.
	r0 := &e.rails[0]
	var err error
	if e.creditsIn, err = newSlot8(p, r0); err != nil {
		return err
	}
	if e.zcAckIn, err = newSlot8(p, r0); err != nil {
		return err
	}
	if e.creditOut.src, err = newSlot8(p, r0); err != nil {
		return err
	}
	if e.zcAckOut.src, err = newSlot8(p, r0); err != nil {
		return err
	}
	e.creditOut.qp = r0.qp
	e.zcAckOut.qp = r0.qp
	return nil
}

func (e *chunkEP) exchange(peer *chunkEP) {
	for k := range e.rails {
		e.peerRings = append(e.peerRings, remoteWindow{
			va: peer.ringVA, rkey: peer.ringMRs[k].RKey(), size: peer.cfg.RingSize,
		})
	}
	e.creditOut.peerVA = peer.creditsIn.va
	e.creditOut.peerKey = peer.creditsIn.mr.RKey()
	e.zcAckOut.peerVA = peer.zcAckIn.va
	e.zcAckOut.peerKey = peer.zcAckIn.mr.RKey()
}

// RawAccess exposes the verbs-level resources behind a chunked endpoint.
// The RDMA Channel interface deliberately hides these; the direct CH3
// design (§6) is exactly the design that needs them — it reuses the eager
// chunk ring but posts its own RDMA writes for rendezvous payloads. The
// MPI-2 one-sided extension (the paper's future work) and the RDMA-direct
// collectives also build on it, on rail 0.
type RawAccess interface {
	// RailSet: CH3 writes share the eager chunks' rails, their pin-down
	// caches and their rail-liveness view.
	RailSet

	// RawPD is rail 0's protection domain, under which a layer above
	// registers memory it exposes to the peer.
	RawPD() *ib.PD

	// NRails reports the connection's rail count.
	NRails() int

	// Resilient reports whether the connection runs in fault-survival mode
	// (built by NewConnectionRails with resilient set).
	Resilient() bool
}

// RawPD implements RawAccess.
func (e *chunkEP) RawPD() *ib.PD { return e.rails[0].pd }

// NRails implements RawAccess.
func (e *chunkEP) NRails() int { return len(e.rails) }

// RailQP implements RawAccess.
func (e *chunkEP) RailQP(k int) *ib.QP { return e.rails[k].qp }

// RailRegCache implements RawAccess.
func (e *chunkEP) RailRegCache(k int) *regcache.Cache { return e.regcs[k] }

// Resilient implements RawAccess.
func (e *chunkEP) Resilient() bool { return e.resilient }

// RailAlive implements RawAccess: rail k is not evicted, its QP ready.
func (e *chunkEP) RailAlive(k int) bool {
	return (e.railDead == nil || !e.railDead[k]) && e.rails[k].qp.State() == ib.QPReadyToSend
}

// StripeUnit implements RawAccess.
func (e *chunkEP) StripeUnit() int { return e.cfg.ChunkSize }

// StripeCount implements RawAccess.
func (e *chunkEP) StripeCount(size int) int {
	return (size-1)/e.stripeSpan(size, len(e.rails)) + 1
}

// Footprint reports this side's dedicated per-connection memory: the
// receive ring and its staging mirror (pinned once per rail — each
// adapter pins independently), the four replicated 8-byte counters, and
// one queue pair per rail. This is the O(np)-per-process cost the SRQ
// mode exists to remove.
func (e *chunkEP) Footprint() Footprint {
	ringBytes := int64(2 * e.cfg.RingSize) // receive ring + send staging
	pinned := ringBytes*int64(len(e.rails)) + 4*8
	for _, rc := range e.regcs {
		pinned += int64(rc.PinnedBytes())
	}
	return Footprint{
		QPs:         len(e.rails),
		EagerSlots:  e.nChunks,
		EagerBytes:  ringBytes,
		PinnedBytes: pinned,
	}
}

// Stats returns endpoint counters including the per-rail traffic split (each
// rail's pin-down cache counts its own: RailRegCache).
func (e *chunkEP) Stats() Stats {
	s := e.stats
	s.StripeReissues = e.mover.Reissues()
	s.RailChunks = append([]uint64(nil), e.railChunks...)
	s.RailZCBytes = append([]uint64(nil), e.railZCBytes...)
	return s
}

// freeCredits reports send-window slots available.
func (e *chunkEP) freeCredits() int {
	return e.nChunks - int(e.sendSeq-e.knownConsumed)
}

// refreshCredits merges the explicit credit slot into the send window.
func (e *chunkEP) refreshCredits() { e.credit(e.creditsIn.value()) }

// credit advances the peer's consumed count to c, if that is further, and
// releases the staging slots it covers: a consumed chunk has been
// delivered, so nothing reads its slot again (repostChunk reads only
// chunks not yet credited).
func (e *chunkEP) credit(c uint64) {
	for ; e.knownConsumed < c; e.knownConsumed++ {
		e.staging.Release(int(e.knownConsumed % uint64(e.nChunks)))
	}
}

// drainCQ reaps pending completions on every rail's send CQ, charging reap
// cost only when something was pending: routed ones (zero-copy stripe reads
// to the mover, work posted above the channel to its layer) and errors. In
// resilient mode a failed chunk write — chunk writes are unsignaled, so only
// failures surface, and a failed one definitively did not land — evicts its
// rail and re-posts the chunk on a survivor. Any other failure, a rail-0
// control write (credits, zero-copy acks: WRID 0) among them, is
// connection-fatal by design: the cumulative counters need one strictly
// ordered path, so rail 0 is the connection's lifeline (DESIGN.md §11).
func (e *chunkEP) drainCQ(p *des.Proc) {
	for k := range e.rails {
		scq := e.rails[k].scq
		for {
			cqe, ok := scq.TryPoll()
			if !ok {
				break
			}
			p.Sleep(e.prm.CQPollOverhead)
			switch {
			case e.route(p, cqe), cqe.Status == ib.StatusSuccess:
			case cqe.WRID&wridKindMask == wridChunkMark:
				e.EvictRail(k)
				e.repostChunk(p, cqe.WRID&^wridKindMask)
			default:
				e.err = fmt.Errorf("rdmachan(%s): wr %#x on rail %d failed: %v",
					e.cfg.Design, cqe.WRID, k, cqe.Status)
			}
		}
	}
}

// EvictRail implements RawAccess: it removes rail k from the live set.
func (e *chunkEP) EvictRail(k int) {
	if e.railDead == nil {
		e.railDead = make([]bool, len(e.rails))
	}
	if !e.railDead[k] {
		e.railDead[k] = true
		e.stats.RailEvictions++
	}
}

// liveRailList returns the rails still usable for new work: not evicted
// and with a ready queue pair.
func (e *chunkEP) liveRailList() []int {
	live := make([]int, 0, len(e.rails))
	for k := range e.rails {
		if e.RailAlive(k) {
			live = append(live, k)
		}
	}
	return live
}

// pickRail selects the rail for the next eager chunk per the configured
// policy: over every rail, or in resilient mode over the survivors.
func (e *chunkEP) pickRail() (int, error) {
	live := e.allRails
	if e.resilient {
		if live = e.liveRailList(); len(live) == 0 {
			return 0, fmt.Errorf("rdmachan(%s): no surviving rail", e.cfg.Design)
		}
	}
	return e.cfg.PickRail(len(e.rails), live, e.sendDepth, &e.railRR), nil
}

// sendDepth is the weighted policy's load probe: rail k's send-queue depth.
func (e *chunkEP) sendDepth(k int) int { return e.rails[k].qp.SendQueueDepth() }

// repostChunk re-sends an errored eager chunk on a surviving rail. The
// staging slot is guaranteed intact: a slot is only reused once the peer's
// credit returns, a credit implies delivery, and the error completion rules
// delivery out. The stale piggybacked credit in the slot is harmless —
// credits are cumulative and merged with max at the peer.
func (e *chunkEP) repostChunk(p *des.Proc, seq uint64) {
	k, err := e.pickRail()
	if err != nil {
		e.err = err
		return
	}
	paylen := int(binary.LittleEndian.Uint32(e.slotBytes(seq, chunkHdrSize)[8:12]))
	e.postChunkOn(p, seq, paylen, k)
	e.stats.ChunkReposts++
}

// slotBytes returns the first n bytes of the staging slot for sequence seq.
func (e *chunkEP) slotBytes(seq uint64, n int) []byte {
	return e.staging.Slot(int(seq%uint64(e.nChunks)), n)
}

// frameChunk writes the framing around a payload of paylen bytes already
// placed in slot, which holds exactly chunkOverhead+paylen bytes.
func (e *chunkEP) frameChunk(slot []byte, seq uint64, ctype byte, paylen int) {
	binary.LittleEndian.PutUint32(slot[0:4], uint32(seq+1))
	slot[4] = ctype
	binary.LittleEndian.PutUint32(slot[8:12], uint32(paylen))
	binary.LittleEndian.PutUint32(slot[12:16], uint32(e.recvSeq)) // piggybacked credit (§4.3)
	slot[chunkHdrSize+paylen] = byte(seq + 1)
}

// stageChunk fills the staging slot for seq with framing and payload.
func (e *chunkEP) stageChunk(seq uint64, ctype byte, payload []byte) {
	slot := e.slotBytes(seq, chunkOverhead+len(payload))
	copy(slot[chunkHdrSize:], payload)
	e.frameChunk(slot, seq, ctype, len(payload))
}

// postChunk RDMA-writes the framed chunk into the peer's ring slot, on the
// rail the policy picks. Unsignaled: the slot is reusable once its credit
// returns, which implies delivery, so no completion is needed. Chunks on
// different rails may land out of order; the receiver consumes strictly by
// sequence number and polls each chunk's own flags, so ordering across
// rails is immaterial.
func (e *chunkEP) postChunk(p *des.Proc, seq uint64, paylen int) {
	k, err := e.pickRail()
	if err != nil {
		e.err = err
		return
	}
	e.postChunkOn(p, seq, paylen, k)
	e.announced = e.recvSeq // the chunk carried our consumed count
	e.stats.ChunksSent++
}

// postChunkOn posts the RDMA write for seq's staging slot on rail k. In
// resilient mode the request carries a tagged work-request ID so a failure
// completion identifies the chunk to re-post; success completions stay
// unsignaled either way, so the tag never surfaces on the fault-free path.
func (e *chunkEP) postChunkOn(p *des.Proc, seq uint64, paylen, k int) {
	i := uint64(seq % uint64(e.nChunks))
	var wrid uint64
	if e.resilient {
		wrid = wridChunkMark | seq
	}
	e.rails[k].qp.PostSend(p, ib.SendWR{
		WRID: wrid,
		Op:   ib.OpRDMAWrite,
		SGL: []ib.SGE{{
			Addr: e.stagingVA + i*uint64(e.cfg.ChunkSize),
			Len:  chunkOverhead + paylen,
			LKey: e.stagingMRs[k].LKey(),
		}},
		RemoteAddr: e.peerRings[k].va + i*uint64(e.cfg.ChunkSize),
		RKey:       e.peerRings[k].rkey,
	})
	e.railChunks[k]++
}

// StripeLKey implements MoveOwner for the zero-copy pull: each stripe's
// block is registered on the rail that reads it, at post time.
func (e *chunkEP) StripeLKey(p *des.Proc, k int, addr uint64, n int) (uint32, error) {
	mr, _, err := e.regcs[k].Register(p, addr, n)
	if err != nil {
		return 0, fmt.Errorf("rdmachan(zerocopy): register: %w", err)
	}
	e.zcRecvMRs = append(e.zcRecvMRs, railMR{rail: k, mr: mr})
	e.railZCBytes[k] += uint64(n)
	return mr.LKey(), nil
}

// MoveDone implements MoveOwner: the pull has landed, or failed.
func (e *chunkEP) MoveDone(_ *des.Proc, err error) {
	if e.zcRecvDone = err == nil; err != nil {
		e.err = fmt.Errorf("rdmachan(zerocopy): %w", err)
	}
}

// charge is the entry cost of every Put and Get, paid before the call
// looks at anything: the per-call channel bookkeeping and, on the zero-copy
// design, the buffer check — two back-to-back charges slept as one step.
func (e *chunkEP) charge() des.Step {
	if e.zc {
		return des.Step{D: e.prm.ChanOverhead + e.prm.ZCCheckOverhead, Hops: 2}
	}
	return des.Step{D: e.prm.ChanOverhead, Hops: 1}
}

// Put implements the sender side of the piggyback (§4.3), pipeline (§4.4)
// and zero-copy (§5) designs.
func (e *chunkEP) Put(p *des.Proc, bufs []Buffer) (int, error) {
	e.stats.PutCalls++
	p.SleepStep(e.charge())
	if e.err != nil {
		return 0, e.err
	}
	e.drainCQ(p)
	e.refreshCredits()

	// An outstanding zero-copy send blocks the pipe until acknowledged;
	// put then reports the whole transfer at once (§5: "subsequent calls
	// to put also return 0 until all of the data has been transferred").
	if e.zcSendActive {
		if e.zcAckIn.value() >= e.zcStarted {
			n := e.zcSendBuf.Len
			for _, m := range e.zcSendMRs {
				if err := e.regcs[m.rail].Release(p, m.mr); err != nil {
					return 0, fmt.Errorf("rdmachan(zerocopy): %w", err)
				}
			}
			e.zcSendMRs = e.zcSendMRs[:0]
			e.zcSendActive = false
			return n, nil
		}
		return 0, nil
	}

	ws := Total(bufs) // working-set hint for the copy cost model
	if ws == 0 {
		return 0, nil
	}
	total := 0

	// Staged plan for the non-pipelined design: all copies first, then all
	// RDMA writes — the serialization the pipeline optimization removes.
	type staged struct {
		seq    uint64
		paylen int
	}
	var plan []staged
	copiedBytes := 0

	flushPlan := func() {
		if copiedBytes > 0 {
			e.node.Bus.Memcpy(p, copiedBytes, ws)
			copiedBytes = 0
		}
		for _, s := range plan {
			e.postChunk(p, s.seq, s.paylen)
		}
		plan = plan[:0]
	}

	// zcEligible reports whether the bi-th buffer, taken from its start,
	// should go zero-copy (§5: the put function checks the user buffer and
	// decides based on the buffer size).
	zcEligible := func(bi, off int) bool {
		return e.zc && off == 0 && bufs[bi].Len >= e.cfg.ZCThreshold
	}

	bi, off := 0, 0
	for bi < len(bufs) {
		if zcEligible(bi, off) {
			if e.freeCredits()-len(plan) < 1 {
				break
			}
			flushPlan()
			b := bufs[bi]
			// A plain transfer stripes over the first n rails, each rail's
			// adapter registering only its own contiguous block. A resilient
			// one registers the full buffer on every live rail, so the
			// receiver can pull any stripe over any offered rail — the
			// property stripe re-issue relies on.
			r := rtsInfo{addr: b.Addr, size: b.Len}
			var regs [MaxRails]Buffer
			if e.resilient {
				live := e.liveRailList()
				if len(live) == 0 {
					return total, fmt.Errorf("rdmachan(%s): no surviving rail", e.cfg.Design)
				}
				r.span = e.stripeSpan(b.Len, len(live))
				for _, k := range live {
					regs[k] = b
				}
			} else {
				r.span = e.stripeSpan(b.Len, len(e.rails))
				for k, off := 0, 0; off < b.Len; k, off = k+1, off+r.span {
					regs[k] = Buffer{Addr: b.Addr + uint64(off), Len: min(r.span, b.Len-off)}
				}
			}
			for k, reg := range regs {
				if reg.Len == 0 {
					continue
				}
				mr, _, err := e.regcs[k].Register(p, reg.Addr, reg.Len)
				if err != nil {
					return total, fmt.Errorf("rdmachan(zerocopy): register: %w", err)
				}
				e.zcSendMRs = append(e.zcSendMRs, railMR{rail: k, mr: mr})
				r.keys[k] = mr.RKey()
			}
			var rts [rtsPayloadMax]byte
			paylen := r.encode(rts[:], len(e.rails), e.resilient)
			e.stageChunk(e.sendSeq, chunkRTS, rts[:paylen])
			e.postChunk(p, e.sendSeq, paylen)
			e.sendSeq++
			e.zcSendActive = true
			e.zcSendBuf = b
			e.zcStarted++
			e.stats.ZCSends++
			// The pipe is blocked behind the transfer; report what was
			// accepted so far.
			return total, nil
		}

		// Eager path: pack one chunk, spanning buffer boundaries (a CH3
		// packet header shares its chunk with the payload it precedes).
		if e.freeCredits()-len(plan) < 1 {
			break
		}
		// The slot is backed only as far as the chunk reaches, so measure
		// the fill before resolving it.
		fill := 0
		for i, o := bi, off; i < len(bufs) && fill < e.maxPayload && !zcEligible(i, o); i, o = i+1, 0 {
			fill += min(bufs[i].Len-o, e.maxPayload-fill)
		}
		seq := e.sendSeq
		e.sendSeq++
		slot := e.slotBytes(seq, chunkOverhead+fill)
		n := 0
		for bi < len(bufs) && n < e.maxPayload && !zcEligible(bi, off) {
			src, err := e.resolve(bufs[bi])
			if err != nil {
				return total, fmt.Errorf("rdmachan(%s): put: %w", e.cfg.Design, err)
			}
			m := copy(slot[chunkHdrSize+n:chunkHdrSize+fill], src[off:])
			n += m
			off += m
			total += m
			if off == bufs[bi].Len {
				bi++
				off = 0
			}
		}
		e.frameChunk(slot, seq, chunkData, n)
		copiedBytes += n
		if e.pipelined {
			// Overlap: charge this chunk's copy and launch its RDMA write
			// before copying the next chunk (§4.4).
			e.node.Bus.Memcpy(p, copiedBytes, ws)
			copiedBytes = 0
			e.postChunk(p, seq, n)
		} else {
			plan = append(plan, staged{seq: seq, paylen: n})
		}
	}
	flushPlan()
	return total, nil
}

// Get implements the receiver side: consume framed chunks in order,
// copying data chunks into the user buffers and converting RTS chunks into
// RDMA reads pulled straight into the user buffer (§5, Figure 10).
func (e *chunkEP) Get(p *des.Proc, bufs []Buffer) (int, error) {
	p.SleepStep(e.charge())
	return e.GetCharged(p, bufs)
}

// IdleGet implements IdleGetter: nothing to reap, no transfer to finish and
// the next ring slot's leading flag not yet written.
func (e *chunkEP) IdleGet() (des.Step, bool) {
	if e.err != nil || e.zcRecvActive {
		return des.Step{}, false
	}
	for k := range e.rails {
		if e.rails[k].scq.Len() > 0 {
			return des.Step{}, false
		}
	}
	if binary.LittleEndian.Uint32(e.ring.Slot(int(e.recvSeq%uint64(e.nChunks)), 4)) == uint32(e.recvSeq+1) {
		return des.Step{}, false
	}
	return e.charge(), true
}

// WatchIdle implements IdleGetter: the ring, the counters and every rail's
// send queue change only through these hooks.
func (e *chunkEP) WatchIdle(touch func()) {
	for _, r := range e.rails {
		r.qp.OnRemoteWrite(touch)
		r.scq.OnInsert(touch)
	}
}

// SkipGet implements IdleGetter.
func (e *chunkEP) SkipGet() { e.stats.GetCalls++ }

// GetCharged implements IdleGetter: everything Get does after its entry
// charge.
func (e *chunkEP) GetCharged(p *des.Proc, bufs []Buffer) (int, error) {
	e.stats.GetCalls++
	if e.err != nil {
		return 0, e.err
	}
	e.drainCQ(p)

	// The walk over bufs is a position — buffer bi, off bytes into it — and
	// the bytes left: bufs is the caller's, who trims it by what Get returns.
	got, bi, off := 0, 0, 0
	ws := Total(bufs)
	left := ws

	// Finish an in-flight zero-copy receive: the striped RDMA reads
	// scattered the payload directly into the user buffer (the mover counted
	// their completions down in drainCQ); acknowledge and deliver.
	if e.zcRecvActive {
		if !e.zcRecvDone {
			return 0, nil
		}
		for _, m := range e.zcRecvMRs {
			if err := e.regcs[m.rail].Release(p, m.mr); err != nil {
				return 0, fmt.Errorf("rdmachan(zerocopy): %w", err)
			}
		}
		e.zcRecvMRs = e.zcRecvMRs[:0]
		e.zcCompleted++
		e.zcAckOut.write(p, e.zcCompleted)
		got += e.zcRecvSize
		bi, off = seek(bufs, bi, off, e.zcRecvSize)
		left -= e.zcRecvSize
		e.zcRecvActive, e.zcRecvDone = false, false
	}

	copied := 0
	for left > 0 {
		slotIdx := int(e.recvSeq % uint64(e.nChunks))
		slot := e.ring.Slot(slotIdx, chunkHdrSize)
		want := uint32(e.recvSeq + 1)
		if binary.LittleEndian.Uint32(slot[0:4]) != want {
			break
		}
		paylen := int(binary.LittleEndian.Uint32(slot[8:12]))
		if paylen < 0 || paylen > e.maxPayload {
			return got, fmt.Errorf("rdmachan(%s): corrupt chunk length %d", e.cfg.Design, paylen)
		}
		slot = e.ring.Slot(slotIdx, chunkOverhead+paylen)
		if slot[chunkHdrSize+paylen] != byte(want) {
			break // trailing flag not yet written
		}
		e.credit(uint64(binary.LittleEndian.Uint32(slot[12:16]))) // the piggybacked credit (§4.3)

		switch slot[4] {
		case chunkData:
			pay := slot[chunkHdrSize+e.chunkOff : chunkHdrSize+paylen]
			m := 0
			for i, o := bi, off; i < len(bufs) && m < len(pay); i, o = i+1, 0 {
				dst, err := e.resolve(Buffer{Addr: bufs[i].Addr + uint64(o), Len: bufs[i].Len - o})
				if err != nil {
					return got, fmt.Errorf("rdmachan(%s): get: %w", e.cfg.Design, err)
				}
				m += copy(dst, pay[m:])
			}
			copied += m
			got += m
			left -= m
			bi, off = seek(bufs, bi, off, m)
			e.chunkOff += m
			if e.chunkOff == paylen {
				e.chunkOff = 0
				e.advanceChunk(p)
			}
		case chunkRTS:
			if !e.zc {
				return got, fmt.Errorf("rdmachan(%s): unexpected RTS chunk", e.cfg.Design)
			}
			r, err := decodeRTS(slot[chunkHdrSize:chunkHdrSize+paylen], len(e.rails), e.resilient)
			if err != nil {
				return got, fmt.Errorf("rdmachan(zerocopy): %w", err)
			}
			if bi == len(bufs) || bufs[bi].Len-off < r.size {
				return got, fmt.Errorf("rdmachan(zerocopy): target buffer %d < message %d",
					left, r.size)
			}
			// Candidate rails are those the sender offered a key for — on a
			// resilient connection, those of them still alive here. A plain
			// RTS offers exactly rails 0..stripes-1, so block k is pulled
			// over rail k against the rkey covering exactly that block.
			var buf [MaxRails]int
			cands := buf[:0]
			for k := range e.rails {
				if r.keys[k] != 0 && (!e.resilient || e.RailAlive(k)) {
					cands = append(cands, k)
				}
			}
			if len(cands) == 0 {
				return got, fmt.Errorf("rdmachan(zerocopy): no surviving rail offered by RTS")
			}
			e.advanceChunk(p)
			if err := e.mover.Post(p, &Move{
				Op: ib.OpRDMARead, Local: bufs[bi].Addr + uint64(off), Remote: r.addr, Size: r.size,
				Keys: r.keys, Rails: cands, Unit: r.span, Counted: true, Owner: e,
			}); err != nil {
				return got, err
			}
			e.zcRecvActive = true
			e.zcRecvSize = r.size
			// The read is in flight; deliver what preceded it.
			if copied > 0 {
				e.node.Bus.Memcpy(p, copied, ws)
			}
			return got, nil
		default:
			return got, fmt.Errorf("rdmachan(%s): corrupt chunk type %d", e.cfg.Design, slot[4])
		}
	}
	if copied > 0 {
		e.node.Bus.Memcpy(p, copied, ws)
	}
	return got, nil
}

// stripeSpan decides how a zero-copy transfer of size bytes spreads over n
// rails (the connection's, or a resilient transfer's survivors): the whole
// size below the striping threshold (or when striping is disabled, or on
// one rail), otherwise one contiguous ChunkSize-aligned block per stripe,
// stripe k covering [k*span, min((k+1)*span, size)). The stripe count
// follows from the rounded span, so it never exceeds what the data fills
// (an 80 KB transfer over 4 rails at 16 KB chunks yields 3 × 32 KB blocks).
func (e *chunkEP) stripeSpan(size, n int) int {
	if n == 1 || e.cfg.StripeThreshold < 0 ||
		(e.cfg.StripeThreshold > 0 && size < e.cfg.StripeThreshold) {
		return size
	}
	span := (size + n - 1) / n
	return (span + e.cfg.ChunkSize - 1) / e.cfg.ChunkSize * e.cfg.ChunkSize
}

// advanceChunk retires the current chunk, releasing its ring slot, and
// applies the delayed tail-update policy (§4.3): an explicit credit message
// only after CreditBatch chunks with no reverse traffic to piggyback on.
func (e *chunkEP) advanceChunk(p *des.Proc) {
	e.ring.Release(int(e.recvSeq % uint64(e.nChunks)))
	e.recvSeq++
	if e.recvSeq-e.announced >= uint64(e.cfg.CreditBatch) {
		e.creditOut.write(p, e.recvSeq)
		e.announced = e.recvSeq
		e.stats.CreditWrites++
	}
}
