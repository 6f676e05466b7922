package model

import "repro/internal/des"

// Bus models a node's memory bus as a granule-arbitrated shared resource.
//
// Every flow that touches host memory — CPU memcpy, HCA DMA on transmit,
// HCA DMA on receive — moves its bytes through the bus in BusGranule-sized
// slices, each of which holds the bus exclusively for granule/rate time.
// When two backlogged flows share the bus their granules interleave FIFO,
// so each observes roughly 1/(1/r1+1/r2) of its solo rate — exactly the
// contention behaviour behind the paper's pipelining ceiling ("the memory
// bus clearly becomes a performance bottleneck for large messages because
// of the extra memory copies", §4.4).
type Bus struct {
	name    string
	params  *Params
	res     *des.Resource
	mem     *MemCtl  // shared memory controller; nil = standalone bus
	busy    des.Time // accumulated occupancy, for utilization stats
	granted uint64   // granules served
}

// MemCtl is a node's memory controller: the resource every bus of the node
// — the primary bus and any additional rail (PCI segment) buses — funnels
// through. A granule occupies the controller for granule/MemBandwidth time
// regardless of the flow's own pacing, so flows on *different* buses of one
// node aggregate up to MemBandwidth and no further, while flows sharing a
// single bus serialize on that bus exactly as before (the controller is
// never contended beneath an already-held bus, so single-bus timing is
// unchanged down to the nanosecond).
type MemCtl struct {
	params  *Params
	res     *des.Resource
	buses   int // buses funnelling through this controller
	busy    des.Time
	granted uint64
}

// NewMemCtl returns a memory controller using the rate from p.
func NewMemCtl(p *Params) *MemCtl {
	return &MemCtl{params: p, res: des.NewResource(1)}
}

// BusyTime returns total simulated time the controller has been occupied.
func (m *MemCtl) BusyTime() des.Time { return m.busy }

// NewBus returns a bus using the granule and rate ceiling from p.
func NewBus(name string, p *Params) *Bus {
	return &Bus{name: name, params: p, res: des.NewResource(1)}
}

// NewBusOn returns a bus whose granules additionally occupy the shared
// memory controller mem — the construction rail buses use so that rails
// of one node share MemBandwidth while each owns its NetBandwidth pacing.
func NewBusOn(name string, p *Params, mem *MemCtl) *Bus {
	mem.buses++
	return &Bus{name: name, params: p, res: des.NewResource(1), mem: mem}
}

// Name returns the bus label (used in traces).
func (b *Bus) Name() string { return b.name }

// BusyTime returns total simulated time the bus has been occupied.
func (b *Bus) BusyTime() des.Time { return b.busy }

// Granules returns the number of granule grants served.
func (b *Bus) Granules() uint64 { return b.granted }

// Transfer moves n bytes through the bus at up to rate MB/s, blocking the
// calling process for the duration (including queueing behind other flows).
// A rate of 0 means "as fast as the bus allows".
func (b *Bus) Transfer(p *des.Proc, n int, rate float64) {
	var x Xfer
	for x.Begin(b, n, rate); x.Left() > 0; {
		if _, ok := x.Granule(p.Task()); !ok {
			p.Block()
		}
	}
}

// Xfer is a transfer in progress: the granule loop, with its position kept
// here instead of on a process stack so that a stackless task (des.Task)
// can run it. Transfer is the same loop driven by a process.
type Xfer struct {
	bus   *Bus
	rem   int
	rate  float64
	chunk int
	d, dm des.Time // the granule's dwell, and the memory controller's share
	at    int      // where the granule in progress is
}

const (
	xferBus  = iota // waiting for the bus
	xferMem         // bus held, waiting for the shared memory controller
	xferCtl         // sleeping the controller's share, controller held
	xferDone        // sleeping the rest of the dwell
)

// Begin starts moving n bytes through b at up to rate MB/s, as Transfer
// does; the task then calls Granule until nothing is Left.
func (x *Xfer) Begin(b *Bus, n int, rate float64) {
	if rate <= 0 || rate > b.params.BusMaxRate {
		rate = b.params.BusMaxRate
	}
	*x = Xfer{bus: b, rem: max(n, 0), rate: rate}
}

// Left returns the bytes that have not left the bus yet.
func (x *Xfer) Left() int { return x.rem }

// Granule moves the next granule as far as it can go without waiting. It
// reports the granule's size once it has left the bus; false means t is
// parked and must call Granule again when woken.
//
// The granule holds the bus for its dwell time d = chunk/rate. Of that, the
// memory controller's share dm = chunk/MemBandwidth is spent holding the
// shared controller (where buses of other rails queue), the rest as the
// flow's own pacing on its bus. The parts sum to exactly d, so a flow that
// never meets cross-bus traffic is timed identically to a plain bus. When
// the controller serves a single bus nothing can queue for it beneath the
// held bus, and both parts are charged as one two-hop step — one event per
// granule instead of two.
func (x *Xfer) Granule(t *des.Task) (int, bool) {
	b := x.bus
	m := b.mem
	switch x.at {
	case xferBus:
		if !b.res.AcquireTask(t, 1) {
			return 0, false
		}
		x.chunk = min(x.rem, b.params.BusGranule)
		x.d = TimeForBytes(x.chunk, x.rate)
		x.at = xferDone
		if m == nil {
			t.Sleep(x.d)
			return 0, false
		}
		x.dm = TimeForBytes(x.chunk, m.params.memBandwidth())
		if m.buses <= 1 {
			step := des.Step{D: x.dm, Hops: 1}
			if x.dm < x.d {
				step = des.Step{D: x.d, Hops: 2}
			}
			t.SleepStep(step)
			return 0, false
		}
		x.at = xferMem
		fallthrough
	case xferMem:
		if !m.res.AcquireTask(t, 1) {
			return 0, false
		}
		x.at = xferCtl
		t.Sleep(x.dm)
		return 0, false
	case xferCtl:
		m.res.Release(1)
		x.at = xferDone
		if x.dm < x.d {
			t.Sleep(x.d - x.dm)
			return 0, false
		}
	}
	if m != nil {
		m.busy += x.dm
		m.granted++
	}
	b.busy += x.d
	b.granted++
	b.res.Release(1)
	x.rem -= x.chunk
	x.at = xferBus
	return x.chunk, true
}

// Memcpy models a CPU copy of n bytes whose benchmark working set is ws
// bytes: the copy occupies both the CPU (the calling process) and the
// memory bus at the cache-dependent rate.
func (b *Bus) Memcpy(p *des.Proc, n, ws int) {
	b.Transfer(p, n, b.params.CopyRate(ws))
}
