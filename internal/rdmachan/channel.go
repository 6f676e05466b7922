package rdmachan

import (
	"encoding/binary"
	"fmt"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
)

// Design selects one of the paper's channel implementations.
type Design int

// The four designs of §4–§5.
const (
	DesignBasic Design = iota
	DesignPiggyback
	DesignPipeline
	DesignZeroCopy
)

func (d Design) String() string {
	switch d {
	case DesignBasic:
		return "basic"
	case DesignPiggyback:
		return "piggyback"
	case DesignPipeline:
		return "pipeline"
	case DesignZeroCopy:
		return "zerocopy"
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// MaxRails bounds the rails a connection can carry: the RTS chunk and the
// CH3 CTS header have room for this many per-rail rkeys.
const MaxRails = 4

// RailPolicy selects the rail an eager chunk travels on when a connection
// spans several adapters. Large zero-copy transfers ignore it: they stripe
// across every rail in ChunkSize-aligned blocks (see chunkEP).
type RailPolicy int

const (
	// RailRoundRobin cycles chunks over the rails — the default, balancing
	// load without inspecting the adapters.
	RailRoundRobin RailPolicy = iota

	// RailWeighted posts each chunk on the rail whose queue pair currently
	// has the shallowest send queue, adapting to transient imbalance (a
	// rail slowed by a competing flow drains slower and attracts less).
	RailWeighted

	// RailFixed pins all eager traffic to rail 0 — the single-rail
	// baseline inside a multi-rail build, and the control series of the
	// rail-policy ablation.
	RailFixed
)

func (rp RailPolicy) String() string {
	switch rp {
	case RailRoundRobin:
		return "round-robin"
	case RailWeighted:
		return "weighted"
	case RailFixed:
		return "fixed"
	}
	return fmt.Sprintf("RailPolicy(%d)", int(rp))
}

// PickRail is the one rail-policy switch, shared by the chunk endpoints
// (a rail per eager chunk) and the cluster's SRQ mode (a rail per
// connection). n is the size of the rail set and live its usable members in
// ascending order, at least one; load is the weighted policy's probe and rr
// the caller's round-robin cursor. With every rail alive the choice — and
// the cursor, which only round-robin over more than one rail consumes — is
// what a fault-free build makes; with casualties a dead fixed rail falls
// back to the first survivor, weighted and round-robin run over the live set.
func (c *Config) PickRail(n int, live []int, load func(k int) int, rr *int) int {
	if n == 1 {
		return 0
	}
	switch c.RailPolicy {
	case RailFixed:
		return live[0] // rail 0, or with it dead the first survivor
	case RailWeighted:
		best, least := live[0], load(live[0])
		for _, k := range live[1:] {
			if l := load(k); l < least {
				best, least = k, l
			}
		}
		return best
	default: // RailRoundRobin
		k := live[*rr%len(live)]
		*rr++
		return k
	}
}

// Buffer names a span of the endpoint's node address space. The channel
// moves real bytes between Buffers; zero-copy transfers register them.
type Buffer struct {
	Addr uint64
	Len  int
}

// Total returns the byte count of a buffer list.
func Total(bufs []Buffer) int {
	n := 0
	for _, b := range bufs {
		n += b.Len
	}
	return n
}

// Advance returns bufs with the first n bytes removed.
func Advance(bufs []Buffer, n int) []Buffer {
	out := bufs
	for n > 0 && len(out) > 0 {
		if out[0].Len <= n {
			n -= out[0].Len
			out = out[1:]
			continue
		}
		head := Buffer{Addr: out[0].Addr + uint64(n), Len: out[0].Len - n}
		rest := append([]Buffer{head}, out[1:]...)
		return rest
	}
	return out
}

// seek moves a walk's position in bufs (buffer bi, off bytes into it) n
// bytes forward, past every buffer it finishes, as Advance would trim them.
func seek(bufs []Buffer, bi, off, n int) (int, int) {
	for n > 0 && bi < len(bufs) {
		k := min(n, bufs[bi].Len-off)
		n, off = n-k, off+k
		if off == bufs[bi].Len {
			bi, off = bi+1, 0
		}
	}
	return bi, off
}

// Endpoint is one side of a connection: a bidirectional pair of byte pipes
// (Figure 2 of the paper). All methods must be called from simulated
// processes on the endpoint's node.
type Endpoint interface {
	// Put writes bytes from bufs into the pipe toward the peer. It returns
	// the number of bytes completed, which is 0 when the pipe is full or a
	// zero-copy transfer is still in flight; the caller retries with the
	// unconsumed remainder.
	Put(p *des.Proc, bufs []Buffer) (int, error)

	// Get reads bytes from the incoming pipe into bufs, returning the
	// number of bytes completed (0 when no data is available yet).
	Get(p *des.Proc, bufs []Buffer) (int, error)

	// EventSeq snapshots the endpoint's watch: the fabric-activity counter
	// of the rank it belongs to (NewConnectionRails). Read it
	// before a Put/Get attempt; if the attempt makes no progress, pass it
	// to WaitEventSince to sleep without losing a wakeup that raced with
	// the attempt.
	EventSeq() uint64

	// WaitEventSince blocks until fabric activity newer than seq (a remote
	// write landed or a completion arrived), returning immediately if
	// something already happened.
	WaitEventSince(p *des.Proc, seq uint64)

	// HCA returns the adapter the endpoint drives.
	HCA() *ib.HCA

	// Stats returns endpoint counters.
	Stats() Stats

	// Footprint reports this side's dedicated per-connection memory.
	Footprint() Footprint
}

// IdleGetter is implemented by endpoints whose Get costs simulated time
// even when the pipe is empty (the chunk-ring designs charge every call
// before looking). It lets a progress loop that polls many such endpoints
// in turn sleep a run of empty Gets as one des.SleepChain instead of one
// event per endpoint, and keep each answer until the endpoint is touched.
type IdleGetter interface {
	// IdleGet reports whether a Get issued now would pay exactly its entry
	// charge and deliver nothing, and that charge. The answer holds until
	// touch (WatchIdle) runs or the caller's own Put or Get changes the
	// endpoint; a Get issued while it holds changes nothing.
	IdleGet() (des.Step, bool)

	// WatchIdle installs touch, which runs in every dispatch that changes
	// what IdleGet reads behind the caller's back: an RDMA write landing
	// through one of the endpoint's queue pairs, a completion entering one
	// of its send queues. Both are followed by a Notify of its watch.
	WatchIdle(touch func())

	// GetCharged is Get with the entry charge already slept by the caller.
	GetCharged(p *des.Proc, bufs []Buffer) (int, error)

	// SkipGet accounts a Get whose charge the caller slept and whose look
	// at the pipe was elided because IdleGet still held.
	SkipGet()
}

// Stats counts endpoint activity.
type Stats struct {
	PutCalls     uint64
	GetCalls     uint64
	ChunksSent   uint64
	CreditWrites uint64
	ZCSends      uint64

	// Fault-recovery counters (resilient mode only; see DESIGN.md §11).
	RailEvictions  uint64 // rails removed from the live set after an error
	ChunkReposts   uint64 // eager chunks re-posted on a surviving rail
	StripeReissues uint64 // zero-copy stripe reads re-issued on a surviving rail

	// Per-rail traffic (len = rail count; nil for single-rail designs
	// predating rails): eager chunks posted on each rail by this side, and
	// zero-copy stripe bytes this side pulled over each rail.
	RailChunks  []uint64
	RailZCBytes []uint64
}

// Config tunes a connection. Zero values select the defaults used
// throughout the paper's evaluation.
type Config struct {
	Design Design

	// RingSize is the per-direction shared buffer size. Default 128 KB for
	// the chunked designs and 64 KB for the basic design (one large message
	// in flight, matching the basic design's serialized behaviour).
	RingSize int

	// ChunkSize divides the ring for the piggyback/pipeline/zero-copy
	// designs (§4.3–§4.4). Default 16 KB, the paper's chosen value.
	ChunkSize int

	// ZCThreshold is the message size at and above which the zero-copy
	// design switches from the eager ring to RDMA read. Default
	// DefaultZCThreshold.
	ZCThreshold int

	// CreditBatch is the delayed-tail-update threshold: the receiver sends
	// an explicit credit message only after consuming this many chunks
	// without reverse traffic (§4.3). Default: half the chunks.
	CreditBatch int

	// RegCacheBytes bounds the pin-down cache (§5). Default 64 MB;
	// negative disables caching (every zero-copy transfer pays full
	// registration cost). Multi-rail endpoints keep one cache per rail:
	// each adapter pins independently, as real HCAs do.
	RegCacheBytes int

	// RailPolicy selects the rail for each eager chunk on multi-rail
	// connections (DESIGN.md §10). Single-rail connections ignore it.
	RailPolicy RailPolicy

	// StripeThreshold is the zero-copy transfer size at and above which a
	// multi-rail connection stripes the transfer across its rails;
	// below it the transfer uses a single rail (striping a small message
	// pays per-rail registration and read turnaround for little overlap).
	// 0 selects the default — stripe every zero-copy transfer, i.e. the
	// threshold collapses into ZCThreshold; negative disables striping.
	StripeThreshold int

	// UseSRQ selects the SRQ-backed eager mode (DESIGN.md §9): instead of
	// a dedicated ring per connection, inbound eager packets land in a
	// per-process pool of slots behind a shared receive queue (SRQPool,
	// sized by the SRQ* constants), and large messages take the CH3
	// rendezvous. Per-process eager memory becomes O(pool), independent of
	// peer count.
	UseSRQ bool
}

// DefaultZCThreshold is the zero-copy switch: the message size at and above
// which a payload leaves the eager ring for RDMA (below it, the RDMA round
// trip costs more than it saves). The channel's ZCThreshold defaults to it,
// and CH3's direct mode starts its write rendezvous at it.
const DefaultZCThreshold = 32 << 10

// Validate reports the first setting a connection of c's design cannot
// run, naming the field ("ChunkSize 8: …") so a caller can prefix its own
// path. Zero fields take their defaults first; NewConnectionRails calls it.
func (c Config) Validate() error {
	c = c.withDefaults()
	chunks := c.RingSize / c.ChunkSize
	switch {
	case c.Design < DesignBasic || c.Design > DesignZeroCopy:
		return fmt.Errorf("Design %d: unknown design", c.Design)
	case c.RailPolicy < RailRoundRobin || c.RailPolicy > RailFixed:
		return fmt.Errorf("RailPolicy %d: unknown rail policy", c.RailPolicy)
	case c.RingSize < 1:
		return fmt.Errorf("RingSize %d: must be positive", c.RingSize)
	case c.ZCThreshold < 1:
		return fmt.Errorf("ZCThreshold %d: must be positive", c.ZCThreshold)
	case c.Design == DesignBasic:
		return nil // an undivided byte ring: no chunk geometry
	case c.ChunkSize <= chunkOverhead+rtsPayloadMax:
		return fmt.Errorf("ChunkSize %d: too small, need more than %d",
			c.ChunkSize, chunkOverhead+rtsPayloadMax)
	case c.RingSize%c.ChunkSize != 0 || chunks < 2:
		return fmt.Errorf("RingSize %d: not a multiple (≥ 2) of ChunkSize %d", c.RingSize, c.ChunkSize)
	case c.CreditBatch < 1 || c.CreditBatch > chunks:
		// Above the ring's chunk count a one-way stream would fill the ring
		// before the receiver ever returned a credit.
		return fmt.Errorf("CreditBatch %d: need 1 to %d, the ring's chunk count", c.CreditBatch, chunks)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.RingSize == 0 {
		if c.Design == DesignBasic {
			c.RingSize = 64 << 10
		} else {
			c.RingSize = 128 << 10
		}
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 16 << 10
	}
	if c.ZCThreshold == 0 {
		c.ZCThreshold = DefaultZCThreshold
	}
	if c.CreditBatch == 0 {
		c.CreditBatch = (c.RingSize / c.ChunkSize) / 2
	}
	if c.RegCacheBytes == 0 {
		c.RegCacheBytes = 64 << 20
	}
	return c
}

// Footprint is one component's contribution to a process's communication
// memory: queue pairs, dedicated eager buffer slots, the bytes behind
// them, and total pinned bytes. The cluster aggregates footprints into its
// per-process MemStats — the accounting the connection-scalability work
// (DESIGN.md §9) is measured by.
type Footprint struct {
	QPs         int
	EagerSlots  int
	EagerBytes  int64
	PinnedBytes int64
}

// Add accumulates o into f.
func (f *Footprint) Add(o Footprint) {
	f.QPs += o.QPs
	f.EagerSlots += o.EagerSlots
	f.EagerBytes += o.EagerBytes
	f.PinnedBytes += o.PinnedBytes
}

// NewConnection wires a bidirectional single-rail connection between two
// adapters and returns the two endpoints. Setup (ring allocation,
// registration, address exchange) happens synchronously on the calling
// process; in the real system this is the channel's init function, outside
// the measured path. Neither side belongs to a rank: both wait on their
// node's default watch.
func NewConnection(p *des.Proc, cfg Config, ha, hb *ib.HCA) (Endpoint, Endpoint, error) {
	return NewConnectionRails(p, cfg, []*ib.HCA{ha}, []*ib.HCA{hb}, nil, nil, false)
}

// NewConnectionRails wires a rail-set connection: rail k pairs ra[k] with
// rb[k] (one queue pair per rail), and the two endpoints share the
// existing eager and rendezvous state machines across all of them — eager
// chunks pick a rail through Config.RailPolicy, large zero-copy transfers
// stripe across every rail (DESIGN.md §10). The basic design predates
// chunk framing and its head/tail protocol needs one strictly ordered
// queue pair, so it always runs on rail 0 alone.
//
// wa and wb are the watches of the ranks owning the two sides (nil: the
// node's default watch): every queue of a side notifies its owner's, and
// the side's EventSeq and WaitEventSince read it.
//
// resilient builds the fault-survival machinery (DESIGN.md §11): chunk
// endpoints evict rails that die and re-issue their outstanding work on
// survivors. Without it none of that runs and the connection behaves
// bit-identically to a build without it.
func NewConnectionRails(p *des.Proc, cfg Config, ra, rb []*ib.HCA, wa, wb *model.Watch, resilient bool) (Endpoint, Endpoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("rdmachan: %w", err)
	}
	cfg = cfg.withDefaults()
	if len(ra) == 0 || len(ra) != len(rb) {
		return nil, nil, fmt.Errorf("rdmachan: rail sets must be non-empty and equal (got %d and %d)",
			len(ra), len(rb))
	}
	if len(ra) > MaxRails {
		return nil, nil, fmt.Errorf("rdmachan: at most %d rails per connection (got %d)",
			MaxRails, len(ra))
	}
	if cfg.Design == DesignBasic {
		return newBasicPair(p, cfg, newBase(cfg, ra[:1], wa), newBase(cfg, rb[:1], wb))
	}
	return newChunkPair(p, cfg, newBase(cfg, ra, wa), newBase(cfg, rb, wb), resilient)
}

// PutAll drives Put until every byte of bufs is accepted.
func PutAll(p *des.Proc, e Endpoint, bufs []Buffer) error { return drive(p, e, bufs, e.Put) }

// GetAll drives Get until bufs is completely filled.
func GetAll(p *des.Proc, e Endpoint, bufs []Buffer) error { return drive(p, e, bufs, e.Get) }

// drive calls op, e's Put or Get, until bufs is done, waiting for e's next
// event whenever a call moves nothing.
func drive(p *des.Proc, e Endpoint, bufs []Buffer, op func(*des.Proc, []Buffer) (int, error)) error {
	for len(bufs) > 0 {
		seq := e.EventSeq()
		n, err := op(p, bufs)
		if err != nil {
			return err
		}
		if n == 0 {
			e.WaitEventSince(p, seq)
			continue
		}
		bufs = Advance(bufs, n)
	}
	return nil
}

// slot8 is a registered 8-byte counter used for replicated pointers,
// credit returns and zero-copy acknowledgements. The owner reads it
// locally; the peer updates it with an 8-byte RDMA write.
type slot8 struct {
	va  uint64
	buf []byte
	mr  *ib.MR
}

func newSlot8(p *des.Proc, r *railRes) (slot8, error) {
	va, buf := r.hca.Node().Mem.Alloc(8)
	mr, err := r.hca.RegisterMR(p, r.pd, va, 8,
		ib.AccessLocalWrite|ib.AccessRemoteWrite|ib.AccessRemoteRead)
	if err != nil {
		return slot8{}, err
	}
	return slot8{va: va, buf: buf, mr: mr}, nil
}

func (s slot8) value() uint64 { return binary.LittleEndian.Uint64(s.buf) }

// counterWriter owns a local registered 8-byte source staging slot and
// posts unsignaled RDMA writes of fresh counter values to a peer slot.
type counterWriter struct {
	src     slot8
	qp      *ib.QP
	peerVA  uint64
	peerKey uint32
}

func (cw *counterWriter) write(p *des.Proc, v uint64) {
	cw.post(p, v, false, 0)
}

func (cw *counterWriter) post(p *des.Proc, v uint64, signaled bool, wrid uint64) {
	binary.LittleEndian.PutUint64(cw.src.buf, v)
	cw.qp.PostSend(p, ib.SendWR{
		WRID:       wrid,
		Op:         ib.OpRDMAWrite,
		Signaled:   signaled,
		SGL:        []ib.SGE{{Addr: cw.src.va, Len: 8, LKey: cw.src.mr.LKey()}},
		RemoteAddr: cw.peerVA,
		RKey:       cw.peerKey,
	})
}

// railRes is one rail's verbs resources on an endpoint: its adapter, a
// protection domain, a queue pair and the pair of completion queues.
type railRes struct {
	hca *ib.HCA
	pd  *ib.PD
	qp  *ib.QP
	scq *ib.CQ
	rcq *ib.CQ
}

// endpointBase carries the plumbing common to all designs. Rail 0 carries
// all control traffic (credits, acks) and is the only rail of the basic
// design.
type endpointBase struct {
	cfg   Config
	rails []railRes
	node  *model.Node
	watch *model.Watch // the owning rank's, or the node's default
	prm   *model.Params
	stats Stats
}

func (b *endpointBase) HCA() *ib.HCA { return b.rails[0].hca }
func (b *endpointBase) Stats() Stats { return b.stats }

func (b *endpointBase) EventSeq() uint64 { return b.watch.Seq() }
func (b *endpointBase) WaitEventSince(p *des.Proc, seq uint64) {
	b.watch.WaitSince(p, seq)
}

// resolve maps a Buffer to its backing bytes on this endpoint's node.
func (b *endpointBase) resolve(buf Buffer) ([]byte, error) {
	return b.node.Mem.Resolve(buf.Addr, buf.Len)
}

// newBase builds one side's rail set on hcas, every queue owned by w (nil:
// the node's default watch).
func newBase(cfg Config, hcas []*ib.HCA, w *model.Watch) *endpointBase {
	if w == nil {
		w = hcas[0].Node().DefaultWatch()
	}
	b := &endpointBase{
		cfg:   cfg,
		node:  hcas[0].Node(),
		watch: w,
		prm:   hcas[0].Params(),
	}
	for _, h := range hcas {
		r := railRes{hca: h}
		r.pd = h.AllocPD()
		r.scq = h.CreateCQFor(w)
		r.rcq = h.CreateCQFor(w)
		r.qp = h.CreateQP(r.pd, r.scq, r.rcq)
		b.rails = append(b.rails, r)
	}
	return b
}
