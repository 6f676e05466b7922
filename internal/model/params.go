package model

import "repro/internal/des"

// Params holds every tunable cost constant of the simulated testbed.
// All times are des.Time (nanoseconds); all bandwidths are MB/s with
// MB = 10^6 bytes, matching the paper's units.
type Params struct {
	// CPU / software costs.
	PostOverhead    des.Time // building + posting one work queue request
	CQPollOverhead  des.Time // reaping one completion queue entry
	PollDetect      des.Time // a polling loop noticing a memory change
	MPIOverhead     des.Time // per-message MPI bookkeeping per side
	ChanOverhead    des.Time // per-call RDMA Channel put/get bookkeeping
	ZCCheckOverhead des.Time // extra per-call cost of the zero-copy design's
	// threshold/ack bookkeeping; the paper's 7.4 µs → 7.6 µs small-message
	// latency delta (§5)

	// Network path.
	WireLatency    des.Time // HCA→switch→HCA first-byte latency, one way
	HCAProc        des.Time // per-WQR HCA processing (WQE fetch, doorbell)
	NetBandwidth   float64  // MB/s sustained DMA rate (PCI-X 64/133 bound)
	ReadTurnaround des.Time // responder-side extra latency for RDMA read
	MaxRDMAReads   int      // outstanding RDMA reads per QP (HCA limit)
	RNRTimeout     des.Time // receiver-not-ready NAK retry timer (SRQ mode)
	MaxRNRRetry    int      // RNR retries before erroring; 7 = retry forever
	// (the verbs convention)
	RetryTimeout des.Time // transport retry timer (packet-drop windows)
	MaxRetry     int      // transport retries before erroring the QP

	// Memory subsystem.
	BusMaxRate   float64 // MB/s ceiling for any single bus flow
	MemBandwidth float64 // MB/s node memory-controller ceiling shared
	// by every bus of the node (rail/PCI segments included).
	// A single flow is paced by its own rate; concurrent flows on different
	// buses of one node aggregate up to this and no further (multi-rail).
	BusGranule          int     // bus arbitration granule, bytes
	CopyBandwidthCached float64 // MB/s memcpy, working set within caches
	CopyBandwidthMem    float64 // MB/s memcpy, streaming from memory
	CacheKneeLow        int     // working set ≤ this: fully cached copy rate
	CacheKneeHigh       int     // working set ≥ this: streaming copy rate

	// Intra-node shared-memory channel (internal/shmchan).
	ShmOverhead des.Time // per-message bookkeeping per side: enqueue or
	// dequeue on the shared ring, flag store/load, cache-line transfer
	// between cores. The copies themselves are charged through the node
	// Bus at CopyRate, so co-located ranks contend for memory bandwidth.

	// Memory registration (pinning) costs.
	PageSize       int
	RegBase        des.Time // fixed cost of a registration verb
	RegPerPage     des.Time // additional per-page pinning cost
	DeregBase      des.Time
	DeregPerPage   des.Time
	RegCacheLookup des.Time // pin-down cache hit cost

	// Compute model for application benchmarks (NAS).
	FlopRate float64 // MFLOP/s per process (2003-era 2.4 GHz Xeon)
}

// Testbed returns the calibrated parameter set for the paper's cluster.
// See DESIGN.md §5 for the mapping from constants to published numbers.
func Testbed() *Params {
	return &Params{
		PostOverhead:    400 * des.Nanosecond,
		CQPollOverhead:  300 * des.Nanosecond,
		PollDetect:      150 * des.Nanosecond,
		MPIOverhead:     600 * des.Nanosecond,
		ChanOverhead:    200 * des.Nanosecond,
		ZCCheckOverhead: 50 * des.Nanosecond,

		WireLatency:    3850 * des.Nanosecond,
		HCAProc:        1500 * des.Nanosecond,
		NetBandwidth:   870.0,
		ReadTurnaround: 1000 * des.Nanosecond,
		MaxRDMAReads:   1,
		RNRTimeout:     10 * des.Microsecond,
		MaxRNRRetry:    7,
		RetryTimeout:   100 * des.Microsecond,
		MaxRetry:       7,

		BusMaxRate:          2000.0,
		MemBandwidth:        2000.0,
		BusGranule:          16384,
		CopyBandwidthCached: 1300.0,
		CopyBandwidthMem:    800.0,
		CacheKneeLow:        256 << 10,
		CacheKneeHigh:       1 << 20,

		ShmOverhead: 200 * des.Nanosecond,

		PageSize:       4096,
		RegBase:        20 * des.Microsecond,
		RegPerPage:     250 * des.Nanosecond,
		DeregBase:      10 * des.Microsecond,
		DeregPerPage:   50 * des.Nanosecond,
		RegCacheLookup: 300 * des.Nanosecond,

		FlopRate: 400.0,
	}
}

// TimeForBytes returns the time to move n bytes at rate MB/s
// (MB = 10^6 bytes), i.e. n/rate microseconds.
func TimeForBytes(n int, rate float64) des.Time {
	if n <= 0 {
		return 0
	}
	if rate <= 0 {
		panic("model: nonpositive rate")
	}
	return des.Time(float64(n)*1000.0/rate + 0.5)
}

// CopyRate returns the effective memcpy bandwidth (MB/s) for a copy whose
// working set is ws bytes. Below CacheKneeLow the source/destination stay
// resident in cache across the benchmark's reuse pattern; above
// CacheKneeHigh every byte streams through the memory bus; in between the
// rate interpolates linearly. This reproduces the paper's observation that
// memcpy bandwidth is "less than 800 MB/s for large messages" and the
// large-message droop of the pipelined design (Figure 11).
func (p *Params) CopyRate(ws int) float64 {
	switch {
	case ws <= p.CacheKneeLow:
		return p.CopyBandwidthCached
	case ws >= p.CacheKneeHigh:
		return p.CopyBandwidthMem
	default:
		span := float64(p.CacheKneeHigh - p.CacheKneeLow)
		frac := float64(ws-p.CacheKneeLow) / span
		return p.CopyBandwidthCached + frac*(p.CopyBandwidthMem-p.CopyBandwidthCached)
	}
}

// RegTime returns the cost of registering (pinning) n bytes.
func (p *Params) RegTime(n int) des.Time {
	pages := (n + p.PageSize - 1) / p.PageSize
	return p.RegBase + des.Time(pages)*p.RegPerPage
}

// DeregTime returns the cost of deregistering n bytes.
func (p *Params) DeregTime(n int) des.Time {
	pages := (n + p.PageSize - 1) / p.PageSize
	return p.DeregBase + des.Time(pages)*p.DeregPerPage
}
