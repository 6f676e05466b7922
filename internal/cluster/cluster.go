package cluster

import (
	"fmt"
	"sync"

	"repro/internal/ch3"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
	"repro/internal/regcache"
	"repro/internal/shmchan"
	"repro/internal/switchfab"
	"repro/internal/transport"
)

// Cluster is a built simulation. Nodes and HCAs are indexed by node id,
// Ranks (each rank's progress engine) by rank; with CoresPerNode > 1 there
// are fewer nodes than ranks and co-located ranks share their node's
// adapters. HCAs holds each node's rail-0 adapter; Rails holds the full
// rail set per node (Rails[n][0] == HCAs[n]).
type Cluster struct {
	Eng    *des.Engine
	Prm    *model.Params
	Fabric *ib.Fabric
	Nodes  []*model.Node
	HCAs   []*ib.HCA
	Rails  [][]*ib.HCA
	Ranks  []*transport.Engine

	nodeOf  []int32 // node id per rank
	direct  bool    // cluster-wide RDMA-direct collective capability (New)
	cfg     Config
	rails   int               // resolved RailsPerNode (≥ 1)
	chanCfg rdmachan.Config   // Chan with the design resolved from Transport
	sw      *switchfab.Fabric // fat-tree fabric (nil = flat links)

	// resilient: a fault plan, even an empty one, is configured. Recovery
	// machinery is wired at construction, so every pool and endpoint gets it.
	resilient bool

	grp       *des.Group // sharded execution group (nil = serial engine)
	shards    int        // resolved shard count (≥ 1)
	shardOf   []int32    // shard per node (contiguous blocks; nil = serial)
	launchSeq uint64     // Launch generation, salts rank-process lineage keys

	pools       [][]*rdmachan.SRQPool // per-rank, per-rail SRQ pools (Chan.UseSRQ only)
	srqRR       int                   // round-robin cursor for SRQ rail assignment
	pairMu      sync.Mutex            // guards pairStarted (dials race across shards)
	pairStarted map[uint64]bool       // pairs whose establishment has begun

	srqConns  map[uint64][2]*ch3.SRQConn // SRQ pairs eligible for re-dial (resilient only)
	redialing map[uint64]bool            // pairs with a re-dial in flight
	fstats    FaultStats
}

// FaultStats counts injected failures and the recovery work they caused.
type FaultStats struct {
	LinksDowned   uint64 // LinkDown / HCADown events applied
	LinksRestored uint64 // links brought back up (scheduled or explicit)
	DropBursts    uint64 // packet-drop windows opened
	Redials       uint64 // SRQ connections re-established after an outage
	RecoverySum   des.Time
	Recoveries    uint64 // samples in RecoverySum
}

// MeanRecovery returns the mean outage-detection-to-rebind latency, or 0
// when no connection has been re-dialed.
func (s FaultStats) MeanRecovery() des.Time {
	if s.Recoveries == 0 {
		return 0
	}
	return s.RecoverySum / des.Time(s.Recoveries)
}

// FaultStats returns the failure-injection counters accumulated so far.
func (c *Cluster) FaultStats() FaultStats { return c.fstats }

// New builds the cluster. In eager mode all rank-pair connections are
// wired before New returns, running to completion in simulated time (the
// clock then holds the setup cost, which benchmarks exclude by measuring
// intervals); in lazy mode connector stubs are installed and connections
// establish on first use. Establishment failures during construction are
// returned; failures mid-run (lazy mode) surface through the affected
// ranks' progress engines.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prm := cfg.Params
	if prm == nil {
		prm = model.Testbed()
	}
	cpn, rails := max(cfg.CoresPerNode, 1), max(cfg.RailsPerNode, 1)
	c := &Cluster{
		Prm:         prm,
		cfg:         cfg,
		rails:       rails,
		chanCfg:     cfg.chanConfig(),
		resilient:   cfg.Fault != nil,
		pairStarted: make(map[uint64]bool),
	}
	nNodes := (cfg.NP + cpn - 1) / cpn
	if cfg.Switch != nil {
		sw, err := switchfab.New(*cfg.Switch, nNodes, rails, prm.NetBandwidth)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.sw = sw
	}
	shards := min(max(cfg.Shards, 1), nNodes)
	if c.sw != nil && shards > c.sw.Leaves() {
		// A leaf's uplink and downlink clocks must be touched by exactly
		// one engine; shards therefore partition whole leaves.
		shards = c.sw.Leaves()
	}
	if cfg.Fault != nil && len(cfg.Fault.Events) > 0 {
		// Recovery paths (failover eviction, re-dial, retained-packet
		// resend) reach across node boundaries at arbitrary delay; fault
		// runs execute serially so those paths stay exactly the proven
		// single-threaded ones. An armed-but-empty plan exercises the
		// resilient data structures without any cross-shard recovery, so it
		// keeps its shards.
		shards = 1
	}
	c.shards = shards
	if shards > 1 {
		c.grp = des.NewGroup(shards, prm.WireLatency)
		c.Eng = c.grp.Global()
		c.shardOf = make([]int32, nNodes)
		for n := 0; n < nNodes; n++ {
			if c.sw != nil {
				// Leaf-aligned blocks: a leaf's nodes — and so its switch
				// port clocks — all land on one shard.
				c.shardOf[n] = int32(c.sw.LeafOf(n) * shards / c.sw.Leaves())
			} else {
				c.shardOf[n] = int32(n * shards / nNodes)
			}
		}
	} else {
		c.Eng = des.NewEngine()
	}
	c.Fabric = ib.NewFabric(c.Eng, prm)
	if c.resilient {
		c.srqConns = make(map[uint64][2]*ch3.SRQConn)
		c.redialing = make(map[uint64]bool)
	}
	c.Nodes = make([]*model.Node, 0, nNodes)
	c.Rails = make([][]*ib.HCA, 0, nNodes)
	c.HCAs = make([]*ib.HCA, 0, nNodes)
	for n := 0; n < nNodes; n++ {
		node := model.NewNode(n, prm)
		c.Nodes = append(c.Nodes, node)
		set := make([]*ib.HCA, rails)
		for k := 0; k < rails; k++ {
			set[k] = c.Fabric.NewRailHCAOn(c.nodeEng(n), node, k)
			if c.sw != nil {
				set[k].AttachSwitch(c.sw.Plane(k), c.sw.LeafOf(n))
			}
		}
		c.Rails = append(c.Rails, set)
		c.HCAs = append(c.HCAs, set[0])
	}
	c.nodeOf = make([]int32, cfg.NP)
	c.Ranks = make([]*transport.Engine, 0, cfg.NP)
	// RDMA-direct collectives ride the one-sided machinery: they need raw
	// verbs resources (the basic design exposes none), outside the SRQ eager
	// mode (a bare queue pair there), and no armed fault plan (the exposure
	// has no mid-flight recovery; under faults the registry falls back to the
	// two-sided algorithms, which do). Windows post on rail 0 and their
	// completions come back through the router, so any rail count will do.
	c.direct = !cfg.Chan.UseSRQ && cfg.Fault == nil && cfg.Transport != TransportBasic
	for r := 0; r < cfg.NP; r++ {
		c.nodeOf[r] = int32(r / cpn)
		c.Ranks = append(c.Ranks, transport.NewEngine(int32(r), cfg.NP, c.HCAs[c.nodeOf[r]]))
	}

	var setupErr error
	c.Eng.Spawn("setup", func(p *des.Proc) {
		if c.chanCfg.UseSRQ {
			// One pool per rank per rail: an SRQ belongs to one adapter, so
			// multi-rail SRQ mode keeps a (small) pool on each rail and
			// assigns whole connections to rails by policy (DESIGN.md §10).
			c.pools = make([][]*rdmachan.SRQPool, cfg.NP)
			for r := 0; r < cfg.NP; r++ {
				c.pools[r] = make([]*rdmachan.SRQPool, c.rails)
				for k := 0; k < c.rails; k++ {
					pool, err := rdmachan.NewSRQPool(p, c.chanCfg, c.Rails[c.nodeOf[r]][k], c.resilient, c.Ranks[r].Fail)
					if err != nil {
						setupErr = fmt.Errorf("cluster: rank %d rail %d SRQ pool: %w", r, k, err)
						return
					}
					// The rank's transport engine polls each pool once per
					// progress pass, ahead of the connections.
					c.Ranks[r].AddSharedPoll(pool.Poll)
					c.pools[r][k] = pool
				}
			}
		}
		if cfg.ConnectMode == ConnectLazy {
			c.installDialers()
			return
		}
		for i := 0; i < cfg.NP; i++ {
			for j := i + 1; j < cfg.NP; j++ {
				if err := c.wirePair(p, i, j); err != nil {
					setupErr = fmt.Errorf("cluster: connect %d-%d: %w", i, j, err)
					return
				}
			}
		}
	})
	c.Eng.Run()
	if setupErr != nil {
		c.Eng.Shutdown()
		return nil, setupErr
	}
	if cfg.Fault != nil {
		// Event offsets are relative to the end of setup, so a plan means
		// the same thing under eager and lazy wiring. The closures fire
		// during the next Run — the workload the faults are aimed at.
		base := c.Eng.Now()
		for _, ev := range cfg.Fault.Sorted() {
			ev := ev
			c.Eng.Schedule(base+ev.At, func() { c.applyFault(ev) })
		}
	}
	return c, nil
}

// applyFault performs one scheduled failure event against the fabric.
func (c *Cluster) applyFault(ev fault.Event) {
	h := c.Rails[ev.Node][ev.Rail]
	switch ev.Kind {
	case fault.LinkDown:
		h.LinkDown()
		c.fstats.LinksDowned++
		if ev.For > 0 {
			c.Eng.After(ev.For, func() {
				h.LinkUp()
				c.fstats.LinksRestored++
			})
		}
	case fault.LinkUp:
		h.LinkUp()
		c.fstats.LinksRestored++
	case fault.HCADown:
		// Adapter death is a link failure that never heals: the rail
		// stays out of every live set for the rest of the run.
		h.LinkDown()
		c.fstats.LinksDowned++
	case fault.DropBurst:
		h.InjectDropBurst(c.Eng.Now() + ev.For)
		c.fstats.DropBursts++
	}
}

// MustNew is New for harnesses where a construction failure is fatal
// (benchmarks, examples, tests).
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Shards returns the resolved shard count the cluster executes on (1 =
// the serial engine, whether configured or forced by a fault plan).
func (c *Cluster) Shards() int { return c.shards }

// NetLabel names the cluster's network model — "flat" without a switch,
// the fat-tree shape label (switchfab.Config.Label) otherwise. The
// per-communicator tuning table keys on it, and benchmark reports carry
// it so crossovers measured on different fabrics never compare.
func (c *Cluster) NetLabel() string {
	if c.sw == nil {
		return "flat"
	}
	return c.sw.Label()
}

// SwitchStats returns the fabric's contention counters (zero value
// without a switch). Call between runs, not mid-run: the counters are
// owned by the shard engines.
func (c *Cluster) SwitchStats() switchfab.Stats {
	if c.sw == nil {
		return switchfab.Stats{}
	}
	return c.sw.Stats()
}

// nodeEng returns the engine a node's hardware and processes run on: the
// owning shard under sharded execution, the single engine otherwise.
func (c *Cluster) nodeEng(node int) *des.Engine {
	if c.grp == nil {
		return c.Eng
	}
	return c.grp.Shard(int(c.shardOf[node]))
}

// Lineage-key salt domains for processes spawned from host context or from
// engine-dependent contexts, keeping event keys independent of which engine
// the spawn lands on (DESIGN.md §13).
const (
	connSalt = 0x434F_4E4E // "CONN": connection-manager processes
	rankSalt = 0x524E_4B53 // "RNKS": Launch rank processes
)

// pairKey orders a rank pair into one map key.
func pairKey(i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(i)<<32 | uint64(j)
}

// installDialers hands every engine one dial callback; the engine creates
// connector stubs on demand at the first send toward a peer. Lazy setup is
// therefore O(np) — one closure per rank — where the first version
// pre-installed np² per-pair stubs before any rank had spoken. The dial
// callback runs on the process posting the first send; establishment
// itself runs on a spawned connection-manager process so both sides'
// setup costs stay off the application's critical path, exactly like the
// on-demand connection threads of post-paper MPICH2 stacks.
func (c *Cluster) installDialers() {
	for i := 0; i < c.cfg.NP; i++ {
		i := i
		c.Ranks[i].SetDialer(func(p *des.Proc, peer int32) {
			c.requestConnect(p, i, int(peer))
		})
	}
}

// requestConnect routes a dial to where it may run. A same-node dial is
// shard-local and starts inline; a cross-node dial under sharded execution
// may touch the remote shard's pools and the shared rail cursor, so it is
// deposited as a control call and executes serialized at the next window
// barrier. Both paths go through CtlCall so the caller's lineage-key
// consumption is identical in serial and sharded runs.
func (c *Cluster) requestConnect(p *des.Proc, i, j int) {
	p.Engine().CtlCall(c.nodeOf[i] == c.nodeOf[j], func() {
		c.startConnect(i, j)
	})
}

// connEng returns the engine a pair's connection manager runs on: the
// node's shard for co-located pairs, the global engine for inter-node
// pairs (whose establishment touches both ends), the single engine when
// serial.
func (c *Cluster) connEng(i, j int) *des.Engine {
	if c.grp == nil {
		return c.Eng
	}
	if c.nodeOf[i] == c.nodeOf[j] {
		return c.nodeEng(int(c.nodeOf[i]))
	}
	return c.grp.Global()
}

// startConnect begins establishing the pair's connection unless a dial
// from either side already did — the simultaneous-connect race resolves
// to a single establishment whose result both engines share.
func (c *Cluster) startConnect(i, j int) {
	key := pairKey(i, j)
	c.pairMu.Lock()
	started := c.pairStarted[key]
	c.pairStarted[key] = true
	c.pairMu.Unlock()
	if started {
		return
	}
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	c.connEng(i, j).SpawnSeeded(des.Salt(connSalt, key), fmt.Sprintf("connmgr.%d-%d", lo, hi), func(p *des.Proc) {
		if c.nodeOf[i] != c.nodeOf[j] {
			// Address-exchange handshake: QP numbers and buffer keys cross
			// the wire and back before either side can post.
			p.Sleep(2 * c.Prm.WireLatency)
		}
		if err := c.wirePair(p, lo, hi); err != nil {
			c.failPair(i, j, fmt.Errorf("cluster: connect %d-%d: %w", lo, hi, err))
		}
	})
}

// failPair fails both ranks' engines with err and wakes both nodes'
// progress loops to notice.
func (c *Cluster) failPair(i, j int, err error) {
	c.Ranks[i].Fail(err)
	c.Ranks[j].Fail(err)
	c.HCAs[c.nodeOf[i]].NotifyMemWrite()
	c.HCAs[c.nodeOf[j]].NotifyMemWrite()
}

// wirePair builds the connection between ranks i and j — shared memory
// for co-located pairs, the SRQ-backed eager mode when Chan.UseSRQ, the
// configured channel design otherwise — and installs both endpoints,
// flushing any sends queued on connector stubs.
func (c *Cluster) wirePair(p *des.Proc, i, j int) error {
	c.pairMu.Lock()
	c.pairStarted[pairKey(i, j)] = true
	c.pairMu.Unlock()
	if c.nodeOf[i] == c.nodeOf[j] {
		ci, cj := shmchan.NewPair(c.HCAs[c.nodeOf[i]], c.cfg.Shm,
			c.Ranks[i], c.Ranks[j])
		c.Ranks[i].Fulfill(int32(j), ci)
		c.Ranks[j].Fulfill(int32(i), cj)
		return nil
	}
	if c.chanCfg.UseSRQ {
		k, ok := c.awaitSRQRail(p, i, j)
		if !ok {
			return fmt.Errorf("no surviving rail")
		}
		ei, ej, err := ch3.NewSRQPair(c.pools[i][k], c.pools[j][k],
			c.Ranks[i], c.Ranks[j],
			c.Ranks[i].Fail, c.Ranks[j].Fail)
		if err != nil {
			return err
		}
		if c.resilient {
			key := pairKey(i, j)
			c.srqConns[key] = [2]*ch3.SRQConn{ei, ej}
			ei.SetRedial(func() { c.startRedial(i, j) })
			ej.SetRedial(func() { c.startRedial(i, j) })
		}
		c.Ranks[i].Fulfill(int32(j), ei)
		c.Ranks[j].Fulfill(int32(i), ej)
		return nil
	}
	epi, epj, err := rdmachan.NewConnectionRails(p, c.chanCfg,
		c.Rails[c.nodeOf[i]], c.Rails[c.nodeOf[j]], c.resilient)
	if err != nil {
		return err
	}
	c.Ranks[i].Fulfill(int32(j), c.newEndpoint(epi, c.Ranks[i]))
	c.Ranks[j].Fulfill(int32(i), c.newEndpoint(epj, c.Ranks[j]))
	return nil
}

// pickSRQRail assigns a whole SRQ-mode connection to one rail: the SRQ
// eager path is two-sided sends into one adapter's shared queue, so rails
// spread by connection rather than by chunk, steered by the same policy
// switch as the chunk designs (rdmachan.Config.PickRail; weighted balances
// the connections bound to the two ends' pools, round-robin runs over
// establishment order). In resilient mode downed rails are excluded from
// the candidate set, and ok is false when no rail between the pair is up.
func (c *Cluster) pickSRQRail(i, j int) (int, bool) {
	live := make([]int, 0, c.rails)
	for k := 0; k < c.rails; k++ {
		// A rail is down between the pair when either end's adapter is.
		if !c.resilient || !c.Rails[c.nodeOf[i]][k].Down() && !c.Rails[c.nodeOf[j]][k].Down() {
			live = append(live, k)
		}
	}
	if len(live) == 0 {
		return 0, false
	}
	bound := func(k int) int { return c.pools[i][k].Bound() + c.pools[j][k].Bound() }
	return c.chanCfg.PickRail(c.rails, live, bound, &c.srqRR), true
}

// railWaitTries bounds how long a dial or re-dial waits for any rail
// between the pair to come back before declaring the partition permanent.
const railWaitTries = 1000

// awaitSRQRail picks the pair's SRQ rail, and while every rail between them
// is down, waits for a link to heal (LinkDown events carry a restore time)
// rather than failing a dial the fault plan made momentarily impossible —
// for at most railWaitTries polls; ok is false when none came back.
func (c *Cluster) awaitSRQRail(p *des.Proc, i, j int) (k int, ok bool) {
	k, ok = c.pickSRQRail(i, j)
	for tries := 0; !ok && tries < railWaitTries; tries++ {
		p.Sleep(10 * c.Prm.WireLatency)
		k, ok = c.pickSRQRail(i, j)
	}
	return k, ok
}

// startRedial begins re-establishing a broken SRQ connection on a
// surviving rail unless a re-dial for the pair is already in flight —
// both ends' progress loops detect the outage, and the race resolves to a
// single establishment, mirroring startConnect. The replacement queue
// pair is created, connected and bound out of band; each endpoint then
// adopts it through SRQConn.Reconnect once its retained-packet set is
// final, resending from there.
func (c *Cluster) startRedial(i, j int) {
	key := pairKey(i, j)
	if c.redialing[key] {
		return
	}
	c.redialing[key] = true
	start := c.Eng.Now()
	c.Eng.Spawn(fmt.Sprintf("connmgr.redial.%d-%d", i, j), func(p *des.Proc) {
		defer delete(c.redialing, key)
		// Fresh QP numbers and keys cross the wire out of band, as in the
		// original dial.
		p.Sleep(2 * c.Prm.WireLatency)
		k, ok := c.awaitSRQRail(p, i, j)
		err := fmt.Errorf("no surviving rail")
		var qi, qj *ib.QP
		if ok {
			qi, qj = c.pools[i][k].CreateQP(), c.pools[j][k].CreateQP()
			err = ib.Connect(qi, qj)
		}
		if err != nil {
			c.failPair(i, j, fmt.Errorf("cluster: redial %d-%d: %w", i, j, err))
			return
		}
		conns := c.srqConns[key]
		c.pools[i][k].Bind(qi, conns[0])
		c.pools[j][k].Bind(qj, conns[1])
		conns[0].Reconnect(c.pools[i][k], qi)
		conns[1].Reconnect(c.pools[j][k], qj)
		c.fstats.Redials++
		c.fstats.RecoverySum += c.Eng.Now() - start
		c.fstats.Recoveries++
		c.HCAs[c.nodeOf[i]].NotifyMemWrite()
		c.HCAs[c.nodeOf[j]].NotifyMemWrite()
	})
}

// NodeOf returns the node id hosting a rank.
func (c *Cluster) NodeOf(rank int) int { return int(c.nodeOf[rank]) }

// Size returns the number of ranks.
func (c *Cluster) Size() int { return c.cfg.NP }

// SRQPool returns a rank's rail-0 shared receive pool, or nil when the
// cluster does not run the SRQ-backed eager mode.
func (c *Cluster) SRQPool(rank int) *rdmachan.SRQPool {
	if c.pools == nil {
		return nil
	}
	return c.pools[rank][0]
}

func (c *Cluster) newEndpoint(ep rdmachan.Endpoint, eng *transport.Engine) transport.Endpoint {
	if c.cfg.Transport == TransportCH3 {
		return ch3.NewIBConn(ep, eng, 0, eng.Fail)
	}
	return ch3.NewOverChannel(ep, eng, eng.Fail)
}

// MemStats is the connection-scalability accounting (DESIGN.md §9):
// established connections, queue pairs, dedicated eager buffering and
// pinned bytes — per process (RankMemStats) or summed (MemStats).
type MemStats struct {
	Ranks       int
	Connections int // established endpoints (each pair counts once per side)
	transport.Footprint
}

// RankMemStats reports one process's communication memory: its
// established endpoints' footprints plus its SRQ pool when one exists.
// Unestablished stubs contribute nothing — that is the point of lazy mode.
func (c *Cluster) RankMemStats(rank int) MemStats {
	m := MemStats{Ranks: 1}
	c.Ranks[rank].ForEachEndpoint(func(peer int32, ep transport.Endpoint) {
		m.Connections++
		if a, ok := ep.(transport.Accountable); ok {
			m.Add(a.Footprint())
		}
	})
	if c.pools != nil {
		for _, pool := range c.pools[rank] {
			m.Add(pool.Footprint())
		}
	}
	return m
}

// MemStats sums RankMemStats over every rank.
func (c *Cluster) MemStats() MemStats {
	var total MemStats
	for r := 0; r < c.cfg.NP; r++ {
		rm := c.RankMemStats(r)
		total.Ranks += rm.Ranks
		total.Connections += rm.Connections
		total.Add(rm.Footprint)
	}
	return total
}

// RegCacheStats aggregates pin-down cache counters across every
// connection in the cluster — the rdmachan endpoints' per-side caches,
// the shared-memory pairs' shared caches, and the SRQ pools' per-process
// caches, each counted once.
func (c *Cluster) RegCacheStats() regcache.Stats {
	var total regcache.Stats
	seen := make(map[*regcache.Cache]bool)
	addCache := func(rc *regcache.Cache) {
		if rc == nil || seen[rc] {
			return
		}
		seen[rc] = true
		s := rc.Stats()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Evictions += s.Evictions
	}
	for _, eng := range c.Ranks {
		eng.ForEachEndpoint(func(_ int32, ep transport.Endpoint) {
			switch e := ep.(type) {
			case *ch3.Conn:
				if raw, ok := e.Endpoint().(rdmachan.RawAccess); ok {
					for k := 0; k < raw.NRails(); k++ {
						addCache(raw.RailRegCache(k))
					}
				}
			case *ch3.SRQConn:
				addCache(e.Pool().RegCache())
			case *shmchan.Conn:
				addCache(e.RegCache())
			}
		})
	}
	return total
}

// ProgressStats sums the ranks' progress-loop counters: passes, endpoint
// polls and idle-poll questions — host work no simulated clock shows.
func (c *Cluster) ProgressStats() transport.ProgressStats {
	var total transport.ProgressStats
	for _, eng := range c.Ranks {
		s := eng.ProgressStats()
		total.Passes += s.Passes
		total.Polls += s.Polls
		total.PollHits += s.PollHits
		total.IdleAsks += s.IdleAsks
	}
	return total
}

// Launch runs body on every rank as a simulated process and returns when
// all ranks have finished. It can be called repeatedly on one cluster.
func (c *Cluster) Launch(body func(comm *mpi.Comm)) {
	c.launchSeq++
	gen := c.launchSeq
	net := c.NetLabel()
	for i := 0; i < c.cfg.NP; i++ {
		eng := c.Ranks[i]
		// Rank processes run on their node's shard. The start events are
		// seeded with the (generation, rank) identity so the launch
		// schedule is independent of which engine each rank lands on.
		c.nodeEng(int(c.nodeOf[i])).SpawnSeeded(des.Salt(rankSalt, gen, uint64(i)),
			fmt.Sprintf("rank%d", i), func(p *des.Proc) {
				body(mpi.NewWithTuning(p, eng, c.nodeOf, c.direct, net, c.cfg.Tuning))
			})
	}
	c.Eng.Run()
}

// Now returns the simulated clock.
func (c *Cluster) Now() des.Time { return c.Eng.Now() }

// Close tears the simulation down, terminating the hardware service
// processes so the cluster's memory (rings, application buffers, fabric
// state) becomes collectable. Harnesses that build many clusters — figure
// sweeps, the NAS suite — must call it; a class-B NAS cluster pins over a
// gigabyte otherwise.
func (c *Cluster) Close() { c.Eng.Shutdown() }
