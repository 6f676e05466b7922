package switchfab

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/model"
)

// HopLatency is the per-switch port-to-port latency — the
// InfiniScale-class cut-through forwarding delay. A cross-leaf path
// traverses two switch hops (leaf up to spine, spine down to leaf) on top
// of the flat WireLatency, which keeps modelling the host-side and cable
// components of the path.
const HopLatency = 110 * des.Nanosecond

// Config describes a two-level fat tree: nNodes end nodes hang off
// ceil(nNodes/LeafDown) leaf switches, and every leaf reaches every other
// leaf through LeafUp uplinks into a spine crossbar. LeafUp < LeafDown is
// an oversubscribed tree; LeafUp >= LeafDown is full bisection (contention
// then only appears when distinct flows hash onto the same uplink). Every
// link runs at the testbed's NetBandwidth, so contention comes from
// sharing only.
type Config struct {
	// LeafDown is the number of nodes attached to one leaf switch.
	LeafDown int
	// LeafUp is the number of uplinks from each leaf into the spine.
	LeafUp int
}

// Label names the topology for tuning tables and benchmark reports, e.g.
// "fattree-d4-u2"; the two fields are the whole configuration.
func (c Config) Label() string {
	return fmt.Sprintf("fattree-d%d-u%d", c.LeafDown, c.LeafUp)
}

// Fabric is a built switch fabric: one independent Plane per rail (each
// rail of a multi-rail cluster runs its own physical tree, mirroring the
// per-rail buses on the nodes).
type Fabric struct {
	cfg    Config
	leaves int
	planes []*Plane
}

// Validate reports the first field New cannot build a tree from, naming it
// ("LeafDown 0: …") so a caller can prefix its own path.
func (c Config) Validate() error {
	switch {
	case c.LeafDown < 1:
		return fmt.Errorf("LeafDown %d: need at least 1", c.LeafDown)
	case c.LeafUp < 1:
		return fmt.Errorf("LeafUp %d: need at least 1", c.LeafUp)
	}
	return nil
}

// New builds the fabric for nNodes nodes and the given rail count.
// netBW is the testbed NetBandwidth, the capacity of every port.
func New(cfg Config, nNodes, rails int, netBW float64) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("switchfab: %w", err)
	}
	f := &Fabric{
		cfg:    cfg,
		leaves: (nNodes + cfg.LeafDown - 1) / cfg.LeafDown,
		planes: make([]*Plane, rails),
	}
	for k := range f.planes {
		p := &Plane{cfg: cfg, bw: netBW, leaf: make([]leafPorts, f.leaves)}
		for l := range p.leaf {
			p.leaf[l].up = make([]portClock, cfg.LeafUp)
			p.leaf[l].down = make([]portClock, cfg.LeafUp)
		}
		f.planes[k] = p
	}
	return f, nil
}

// Label names the topology (Config.Label).
func (f *Fabric) Label() string { return f.cfg.Label() }

// Leaves returns the number of leaf switches.
func (f *Fabric) Leaves() int { return f.leaves }

// LeafOf returns the leaf switch a node hangs off.
func (f *Fabric) LeafOf(node int) int { return node / f.cfg.LeafDown }

// Plane returns rail k's switch plane.
func (f *Fabric) Plane(rail int) *Plane { return f.planes[rail] }

// Stats aggregates contention counters across all planes and leaves.
// Call it only when the simulation is quiescent (engines stopped): the
// per-leaf counters are written by the engine that owns the leaf.
func (f *Fabric) Stats() Stats {
	var s Stats
	for _, p := range f.planes {
		for _, lp := range p.leaf {
			for i := range lp.up {
				pc := &lp.up[i]
				s.UpGranules += pc.granules
				s.UpWaited += pc.waited
				s.BytesUp += pc.bytes
				s.MaxWait = max(s.MaxWait, pc.maxWait)
			}
			for i := range lp.down {
				s.MaxWait = max(s.MaxWait, lp.down[i].maxWait)
			}
		}
	}
	return s
}

// Stats are fabric-wide contention counters.
type Stats struct {
	UpGranules uint64   // granules through leaf uplinks
	BytesUp    uint64   // payload bytes through uplinks
	UpWaited   des.Time // total uplink queueing delay
	MaxWait    des.Time // worst single-granule port wait, uplinks and downlinks
}

// Plane is one rail's switch tree. Its port state is deliberately
// unlocked: the cluster assigns whole leaves to DES shards, so a leaf's
// uplink clocks are only ever touched by the engine that owns its nodes
// (uplinks by the source node's engine, downlinks by the destination
// node's engine — the same engine, leaf-aligned sharding puts both ends
// of a leaf's ports on it). That keeps contention deterministic: the
// dispatch order of the touching events is fixed by the engine's total
// order, not by OS scheduling.
type Plane struct {
	cfg  Config
	bw   float64 // port capacity, MB/s
	leaf []leafPorts
}

type leafPorts struct {
	up   []portClock
	down []portClock
}

// portClock is a virtual-clock FIFO port: nextFree is the instant the
// port finishes forwarding everything accepted so far. A granule offered
// at `now` departs at max(now, nextFree) and occupies the port for its
// serialization time — cut-through, so the wait returned to the caller is
// queueing only; an uncontended port at link rate adds nothing, because
// the source bus already paces injection at NetBandwidth.
type portClock struct {
	nextFree des.Time
	granules uint64
	waited   des.Time
	maxWait  des.Time
	bytes    uint64
}

// acquire books the port for one granule and returns the queueing wait.
// The occupancy floor of one tick keeps per-flow departures strictly
// increasing, which is what preserves granule order through the variable
// path delay (DESIGN.md §14).
func (pc *portClock) acquire(bytes int, now des.Time, bw float64) des.Time {
	dep := now
	if pc.nextFree > dep {
		dep = pc.nextFree
	}
	ser := model.TimeForBytes(bytes, bw)
	if ser < 1 {
		ser = 1
	}
	pc.nextFree = dep + ser
	wait := dep - now
	pc.granules++
	pc.waited += wait
	if wait > pc.maxWait {
		pc.maxWait = wait
	}
	pc.bytes += uint64(bytes)
	return wait
}

// Route returns the uplink a flow to dstNode hashes onto. The spine is a
// crossbar, so the path is symmetric: the same index names the uplink at
// the source leaf and the downlink at the destination leaf.
func (p *Plane) Route(dstNode int) int { return dstNode % p.cfg.LeafUp }

// Up books one granule on leaf's uplink `port` at time now and returns
// the queueing delay before it departs. Call from the engine owning the
// source leaf.
func (p *Plane) Up(leaf, port, bytes int, now des.Time) des.Time {
	return p.leaf[leaf].up[port].acquire(bytes, now, p.bw)
}

// Down books one granule on leaf's spine-facing downlink `port` at time
// now and returns the queueing delay before it reaches the node. Call
// from the engine owning the destination leaf.
func (p *Plane) Down(leaf, port, bytes int, now des.Time) des.Time {
	return p.leaf[leaf].down[port].acquire(bytes, now, p.bw)
}
