// Package scenario is the configuration space the test suites cross —
// rank layouts, stack variants, the seeded fault-plan rule and the
// configuration lattice — with every axis value written once, and the
// named sets the suites read. Only tests import it. A cell's name is part
// of the key of the goldens under internal/mpi/testdata, so renaming a
// cell of Exact or Replay is a regeneration.
package scenario

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/switchfab"
)

// Scenario is one named cluster configuration.
type Scenario struct {
	Name   string
	Config cluster.Config
}

// Nodes is the scenario's node count.
func (s Scenario) Nodes() int {
	cpn := max(s.Config.CoresPerNode, 1)
	return (s.Config.NP + cpn - 1) / cpn
}

// With returns s under v, named s.Name/v.Name.
func (s Scenario) With(v Variant) Scenario {
	return Scenario{s.Name + "/" + v.Name, v.On(s.Config)}
}

// Variant is one stack setting, applied over a layout's configuration.
type Variant struct {
	Name  string
	Apply func(*cluster.Config)
}

// On returns cfg with v applied.
func (v Variant) On(cfg cluster.Config) cluster.Config {
	v.Apply(&cfg)
	return cfg
}

// The stack variants. A layout already runs the zero-copy design on one
// rail with eager connections, so ZeroCopy changes nothing.
var (
	ZeroCopy  = Variant{"zerocopy", func(*cluster.Config) {}}
	Piggyback = Variant{"piggyback", func(c *cluster.Config) { c.Transport = cluster.TransportPiggyback }}
	CH3       = Variant{"ch3", func(c *cluster.Config) { c.Transport = cluster.TransportCH3 }}
	Lazy      = Variant{"lazy", func(c *cluster.Config) { c.ConnectMode = cluster.ConnectLazy }}
	// LazySRQ is the scalable stack (Shipman et al., IPDPS 2006):
	// connections dialled on first use, eager traffic through one shared
	// receive queue per node. The SRQ mode runs under zerocopy only, so it
	// sets the transport too.
	LazySRQ = Variant{"lazy-srq", func(c *cluster.Config) {
		c.Transport, c.ConnectMode, c.Chan.UseSRQ = cluster.TransportZeroCopy, cluster.ConnectLazy, true
	}}
	Rails2    = Variant{"rails2", func(c *cluster.Config) { c.RailsPerNode = 2 }}
	SMP4      = Variant{"smp4", func(c *cluster.Config) { c.CoresPerNode = 4 }}
	Faults    = Chaos(2, 100)
	CH3Rails2 = Variant{"ch3-rails2", func(c *cluster.Config) { CH3.Apply(c); Rails2.Apply(c) }}
	CH3Faults = Variant{"ch3-faults", func(c *cluster.Config) { CH3.Apply(c); Faults.Apply(c) }}
	SRQFaults = Variant{"srq-faults", func(c *cluster.Config) { LazySRQ.Apply(c); Faults.Apply(c) }}
)

// FatTree routes every wire through a two-level fat tree of leafDown
// nodes and leafUp uplinks per leaf, named by its label ("fattree-d4-u1").
func FatTree(leafDown, leafUp int) Variant {
	return Variant{switchfab.Config{LeafDown: leafDown, LeafUp: leafUp}.Label(), func(c *cluster.Config) {
		c.Switch = &switchfab.Config{LeafDown: leafDown, LeafUp: leafUp}
	}}
}

// Chaos runs the layout on rails rails under its seeded chaos plan, seed
// np·perRank + rails, drawn by Plan.
func Chaos(rails, perRank int) Variant {
	return Variant{"faults", func(c *cluster.Config) {
		c.RailsPerNode = rails
		c.Fault = Plan(int64(c.NP*perRank+rails), Scenario{Config: *c}.Nodes(), rails)
	}}
}

// Plan draws the seeded chaos schedule of one cell: six events within
// 500 µs over nodes × rails. Rail 0 carries the chunk transport's credit
// counters, whose loss is connection-fatal by design, so a multi-rail
// plan spares it; a one-rail layout has no rail to fail over to, so it
// gets drop bursts only.
func Plan(seed int64, nodes, rails int) *fault.Plan {
	gc := fault.GenConfig{Seed: seed, Nodes: nodes, Rails: rails, Horizon: 500 * des.Microsecond, Events: 6}
	if rails == 1 {
		gc.Kinds, gc.SpareRail = []fault.Kind{fault.DropBurst}, -1
	}
	return fault.Generate(gc)
}

// layout is np ranks, cpn to a node, on the zero-copy design.
func layout(name string, np, cpn int) Scenario {
	return Scenario{name, cluster.Config{NP: np, CoresPerNode: cpn, Transport: cluster.TransportZeroCopy}}
}

// Collectives covers the paper's flat testbed at non-power-of-two rank
// counts plus the SMP layouts the hierarchical algorithms serve: even
// nodes, an uneven last node, a single all-shm node, and mixed shm/IB
// with a non-power-of-two leader count.
var Collectives = []Scenario{
	layout("flat-np3", 3, 1),
	layout("flat-np5", 5, 1),
	layout("flat-np6", 6, 1),
	layout("flat-np7", 7, 1),
	layout("smp-2x2", 4, 2),
	layout("smp-4x2", 8, 2),
	layout("smp-4x4", 16, 4),
	layout("smp-uneven-5ranks", 5, 2), // nodes of 2,2,1
	layout("smp-uneven-7ranks", 7, 4), // nodes of 4,3
	layout("smp-single-node", 4, 4),   // degenerate: all ranks over shm
	layout("smp-3nodes-np6", 6, 2),    // non-power-of-two leader count
}

// FlatPof2 are the flat power-of-two layouts, the only ones on which
// allgather/recursive-doubling runs on the wire. A cluster has at least
// two ranks; size 1 is np=2's Split halves.
var FlatPof2 = []Scenario{
	layout("flat-np2", 2, 1), layout("flat-np4", 4, 1), layout("flat-np8", 8, 1), layout("flat-np16", 16, 1),
}

// fatTrees are flat layouts on the oversubscribed fat tree the tuning
// table's fat-tree cutoffs were measured on.
var fatTrees = []Scenario{
	{"fattree-np6", FatTree(4, 1).On(layout("", 6, 1).Config)},
	{"fattree-np8", FatTree(4, 1).On(layout("", 8, 1).Config)},
}

// Sharded are the layouts with enough nodes for two and four shards to
// partition the cluster.
var Sharded = Layouts("flat-np5", "flat-np6", "smp-4x2", "smp-uneven-7ranks")

// Layouts returns the named layouts, in the order asked.
func Layouts(names ...string) []Scenario {
	out := make([]Scenario, len(names))
	for i, name := range names {
		out[i] = Layout(name)
	}
	return out
}

// Layout returns the named layout; it panics on a name no layout has.
func Layout(name string) Scenario {
	for _, set := range [][]Scenario{Collectives, FlatPof2, fatTrees} {
		for _, s := range set {
			if s.Name == name {
				return s
			}
		}
	}
	panic("scenario: no layout " + name)
}

// Exact is the exactness golden's cells (DESIGN §16): every collective
// layout, layout-major, under the chunk-ring designs whose polls are
// chained, the direct CH3 design, the SRQ mode whose polls are free, two
// buses per node, a wider SMP layout, a contended fabric, recovery under
// a seeded fault plan, and the CH3 stripe mover's striped writes, write
// re-post and SRQ re-dial under faults.
var Exact = func() (out []Scenario) {
	for _, l := range Collectives {
		for _, v := range []Variant{ZeroCopy, Piggyback, CH3, LazySRQ, Rails2, SMP4,
			FatTree(4, 1), Faults, CH3Rails2, CH3Faults, SRQFaults} {
			out = append(out, l.With(v))
		}
	}
	return out
}()

// Replay is the replay golden's cells: every collective layout
// fault-free, then under its seeded chaos plan on two rails (Faults), one
// and four.
var Replay = func() (out []Scenario) {
	for _, l := range Collectives {
		out = append(out, l, l.With(Faults))
		for _, rails := range []int{1, 4} {
			out = append(out, l.With(Variant{fmt.Sprintf("faults-rails%d", rails), Chaos(rails, 100).Apply}))
		}
	}
	return out
}()

// Lattice is every combination of the axes below at np = 4, 960 cells
// named by their settings (DESIGN §19 "The lattice"). Cells share the
// fault plans, which nothing writes.
var Lattice = func() (out []Scenario) {
	faults := []struct {
		name string
		plan *fault.Plan
	}{{"none", nil}, {"empty", &fault.Plan{}}, {"rail1-down", &fault.Plan{Events: []fault.Event{
		{At: 5 * des.Microsecond, Kind: fault.LinkDown, Node: 0, Rail: 1}}}}}
	for tr := cluster.TransportBasic; tr <= cluster.TransportCH3; tr++ {
		for _, mode := range []cluster.ConnectMode{cluster.ConnectEager, cluster.ConnectLazy} {
			for _, srq := range []bool{false, true} {
				for _, rails := range []int{1, 2} {
					for _, cpn := range []int{1, 2} {
						for _, sw := range []*switchfab.Config{nil, {LeafDown: 2, LeafUp: 1}} {
							for _, shards := range []int{1, 2} {
								for _, f := range faults {
									cfg := cluster.Config{NP: 4, Transport: tr, ConnectMode: mode,
										RailsPerNode: rails, CoresPerNode: cpn, Switch: sw,
										Shards: shards, Fault: f.plan}
									cfg.Chan.UseSRQ = srq
									out = append(out, Scenario{fmt.Sprintf(
										"%-9v %-5v srq=%-5v rails=%d cpn=%d %-13s shards=%d fault=%-10s",
										tr, mode, srq, rails, cpn, switchfab.NetLabel(sw), shards, f.name), cfg})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}()
