package cluster

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
	"repro/internal/shmchan"
	"repro/internal/switchfab"
)

// Transport selects the MPI transport under test, matching the designs the
// paper evaluates against each other.
type Transport int

// The five transports of the evaluation.
const (
	TransportBasic Transport = iota
	TransportPiggyback
	TransportPipeline
	TransportZeroCopy // "RDMA Channel" in Figures 16–17
	TransportCH3      // direct CH3 design with RDMA-write rendezvous
)

func (t Transport) String() string {
	switch t {
	case TransportBasic:
		return "basic"
	case TransportPiggyback:
		return "piggyback"
	case TransportPipeline:
		return "pipeline"
	case TransportZeroCopy:
		return "rdma-channel-zerocopy"
	case TransportCH3:
		return "ch3-zerocopy"
	}
	return fmt.Sprintf("Transport(%d)", int(t))
}

// design is the channel design the transport runs; the direct CH3 design
// rides the pipeline design's eager ring.
func (t Transport) design() rdmachan.Design {
	return [...]rdmachan.Design{rdmachan.DesignBasic, rdmachan.DesignPiggyback,
		rdmachan.DesignPipeline, rdmachan.DesignZeroCopy, rdmachan.DesignPipeline}[t]
}

// ConnectMode selects the connection lifecycle.
type ConnectMode int

const (
	// ConnectEager wires every rank pair at cluster construction — the
	// paper's behaviour, and the default.
	ConnectEager ConnectMode = iota

	// ConnectLazy establishes each connection on first send: the first
	// message to an unconnected peer queues behind a simulated
	// QP-create/address-exchange handshake run by a connection-manager
	// process, and receives (AnySource included) never force connections.
	ConnectLazy
)

func (m ConnectMode) String() string {
	switch m {
	case ConnectEager:
		return "eager"
	case ConnectLazy:
		return "lazy"
	}
	return fmt.Sprintf("ConnectMode(%d)", int(m))
}

// Config describes the cluster to build.
type Config struct {
	NP        int // number of ranks
	Transport Transport

	// ConnectMode selects eager (default, the paper's full mesh at
	// startup) or lazy (on-demand) connection establishment.
	ConnectMode ConnectMode

	// CoresPerNode places this many ranks on each node, in rank order
	// (rank r runs on node r/CoresPerNode; the last node may be partially
	// filled). Co-located pairs communicate over shared memory, remote
	// pairs over the Transport. 0 or 1 reproduces the paper's testbed:
	// one rank per node, all traffic on InfiniBand.
	CoresPerNode int

	// RailsPerNode provisions this many HCAs (rails) on every node; 0 or 1
	// reproduces the paper's testbed, one PCI-X-bound adapter per node —
	// the 870 MB/s ceiling of §6. With more rails every inter-node
	// connection becomes a rail set (one queue pair per rail): eager
	// chunks pick a rail through Chan.RailPolicy, large zero-copy
	// transfers stripe across all rails, and the rails share the node's
	// memory bandwidth while each owns its network bandwidth
	// (DESIGN.md §10). One-sided windows live on rail 0 of such a
	// connection. At most rdmachan.MaxRails.
	RailsPerNode int

	// Chan overrides per-connection channel parameters (chunk size, ring
	// size, thresholds, registration cache) for sweeps and ablations. Its
	// Design follows Transport: the zero Design means "follow Transport",
	// so DesignBasic (the zero value) is asked for through Transport alone,
	// and any other Design must agree with it.
	// Chan.UseSRQ selects the SRQ-backed eager mode: inter-node pairs
	// share a per-process slot pool (rdmachan.SRQPool) behind one shared
	// receive queue instead of dedicating a ring to every connection.
	Chan rdmachan.Config

	// Shm overrides the intra-node channel's rendezvous threshold.
	Shm shmchan.Config

	// Tuning overrides collective algorithm selection for every
	// communicator of every launched job (nil = the default
	// topology/size table; see mpi.Tuning).
	Tuning *mpi.Tuning

	// Params overrides the testbed cost model (nil = calibrated defaults).
	Params *model.Params

	// Switch replaces the flat per-link timing with a blocking two-level
	// fat-tree fabric (internal/switchfab): nodes hang off leaf switches,
	// cross-leaf granules pay switch hops plus per-uplink queueing, and
	// alltoall/hotspot traffic actually collides. nil keeps the flat
	// model, bit-identical to the pre-switch cluster. Each rail gets an
	// independent plane. Under sharded execution the shard count is
	// additionally clamped to the leaf count so every leaf's port clocks
	// have a single owning engine (determinism; DESIGN.md §14).
	Switch *switchfab.Config

	// Shards partitions the simulation across OS threads: nodes are
	// assigned to this many shard engines in contiguous blocks, each shard
	// running its own event queue and dispatch driver, synchronized by
	// conservative lookahead windows derived from Params.WireLatency
	// (DESIGN.md §13). 0 or 1 runs the classic single-threaded engine. The
	// shard count is clamped to the node count, and a fault plan with
	// events forces serial execution — the recovery machinery reaches
	// across shard boundaries at unbounded delay, so fault runs trade
	// parallelism for the proven serial paths. Any fixed shard count
	// produces dispatch schedules bit-identical to the serial engine
	// (TraceFingerprint equality).
	Shards int

	// Fault schedules failure injection: the plan's events fire at their
	// offsets from the end of cluster setup, downing links, whole
	// adapters, or opening packet-drop windows (internal/fault). A
	// non-nil plan — even an empty one — switches the transport stack
	// into resilient mode: chunk rings and stripe engines tag their work
	// requests for rail eviction and re-issue, SRQ connections retain
	// packets for resend, and broken pairs re-dial on a surviving rail.
	// With Fault nil every recovery path is compiled out of the hot path
	// and runs are bit-identical to the fault-free stack (DESIGN.md §11).
	Fault *fault.Plan
}

// Validate reports the first setting New cannot build as asked, naming its
// field path ("cluster: Chan.ChunkSize 8: …"): no setting is silently
// replaced by another. New calls it before building anything.
func (cfg Config) Validate() error {
	cpn, rails := max(cfg.CoresPerNode, 1), max(cfg.RailsPerNode, 1)
	var err error
	switch {
	case cfg.NP < 2:
		err = fmt.Errorf("NP %d: need at least 2 ranks", cfg.NP)
	case cfg.Transport < TransportBasic || cfg.Transport > TransportCH3:
		err = fmt.Errorf("Transport %d: unknown transport", cfg.Transport)
	case cfg.ConnectMode != ConnectEager && cfg.ConnectMode != ConnectLazy:
		err = fmt.Errorf("ConnectMode %d: unknown mode", cfg.ConnectMode)
	case cfg.CoresPerNode < 0:
		err = fmt.Errorf("CoresPerNode %d: negative", cfg.CoresPerNode)
	case cfg.RailsPerNode < 0 || rails > rdmachan.MaxRails:
		err = fmt.Errorf("RailsPerNode %d: need 0 to %d", cfg.RailsPerNode, rdmachan.MaxRails)
	case rails > 1 && cfg.Transport == TransportBasic:
		// The basic design's strictly ordered head/tail protocol runs on a
		// single queue pair; a multi-rail basic run would silently measure
		// rail 0 alone under a multi-rail label.
		err = fmt.Errorf("RailsPerNode %d: the basic design is single-rail; use piggyback, pipeline, zerocopy or ch3", rails)
	case cfg.Shards < 0:
		err = fmt.Errorf("Shards %d: negative", cfg.Shards)
	case cfg.Chan.UseSRQ && cfg.Transport != TransportZeroCopy:
		// The SRQ mode replaces the inter-node channel design wholesale;
		// accepting another Transport would silently run identical SRQ
		// traffic under that transport's label.
		err = fmt.Errorf("Chan.UseSRQ replaces the channel design; use Transport zerocopy (got %v)", cfg.Transport)
	case cfg.Chan.Design != 0 && cfg.Chan.Design != cfg.Transport.design():
		err = fmt.Errorf("Chan.Design %v: Transport %v runs the %v design",
			cfg.Chan.Design, cfg.Transport, cfg.Transport.design())
	case cfg.Shm.RndvThreshold < 0:
		err = fmt.Errorf("Shm.RndvThreshold %d: negative (0 disables rendezvous)", cfg.Shm.RndvThreshold)
	}
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if err := cfg.chanConfig().Validate(); err != nil {
		return fmt.Errorf("cluster: Chan.%w", err)
	}
	if cfg.Switch != nil {
		if err := cfg.Switch.Validate(); err != nil {
			return fmt.Errorf("cluster: Switch.%w", err)
		}
	}
	if cfg.Fault != nil {
		if err := cfg.Fault.Validate((cfg.NP+cpn-1)/cpn, rails); err != nil {
			return fmt.Errorf("cluster: Fault.%w", err)
		}
	}
	if cfg.Tuning != nil {
		if err := cfg.Tuning.Validate(); err != nil {
			return fmt.Errorf("cluster: Tuning.%w", err)
		}
	}
	return nil
}

// chanConfig is Chan with its design resolved from Transport.
func (cfg Config) chanConfig() rdmachan.Config {
	c := cfg.Chan
	c.Design = cfg.Transport.design()
	return c
}
