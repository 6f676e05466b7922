package bench

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/rdmachan"
	"repro/internal/regcache"
	"repro/internal/shmchan"
)

// Iteration counts; latency curves average over this many round trips.
const latIters = 10

// twoRank is a figure of the paper's two microbenchmarks on two ranks:
// ping-pong latency (lat) or window bandwidth over sizes, one series per
// variant. xLabel, when set, replaces the message-size axis.
type twoRank struct {
	id, title, xLabel string
	lat               bool
	sizes             []int
	notes             []string
	variants          []variant
}

// variant is one measured configuration of a twoRank row. Consecutive
// variants that share a name are one series; x, when set, is the x of the
// variant's one point in place of its message size (a knob swept along
// the x axis). cacheNote, when set, labels a note of the pin-down cache
// totals over the variant's runs. verbsRead measures raw RDMA reads posted
// back to back under cfg.Params (Figure 15's read series) in place of MPI.
type variant struct {
	name      string
	cfg       cluster.Config
	x         int
	cacheNote string
	verbsRead bool
}

// designs is one variant per transport, each named after it.
func designs(ts ...cluster.Transport) []variant {
	vs := make([]variant, len(ts))
	for i, t := range ts {
		vs[i] = variant{name: t.String(), cfg: cluster.Config{Transport: t}}
	}
	return vs
}

// withIRD is the testbed with the HCA's outstanding-RDMA-read limit at n.
func withIRD(n int) *model.Params {
	prm := model.Testbed()
	prm.MaxRDMAReads = n
	return prm
}

// figure measures every variant of the row.
func (r twoRank) figure() Figure {
	f := Figure{ID: r.id, Title: r.title, XLabel: r.xLabel, YLabel: "bandwidth (MB/s)", Notes: slices.Clone(r.notes)}
	if f.XLabel == "" {
		f.XLabel = "message size (bytes)"
	}
	if r.lat {
		f.YLabel = "time (µs)"
	}
	for _, v := range r.variants {
		var rc regcache.Stats
		o := Options{Config: v.cfg, Observe: func(c *cluster.Cluster) {
			s := c.RegCacheStats()
			rc.Hits, rc.Misses, rc.Evictions = rc.Hits+s.Hits, rc.Misses+s.Misses, rc.Evictions+s.Evictions
		}}
		var s Series
		switch {
		case v.verbsRead:
			s = VerbsBandwidth(ib.OpRDMARead, r.sizes, v.cfg.Params)
		case r.lat:
			s = MPILatency(o, r.sizes, latIters)
		default:
			s = MPIBandwidth(o, r.sizes)
		}
		if v.x != 0 {
			s.Points[0].Size = v.x
		}
		if n := len(f.Series); n > 0 && f.Series[n-1].Name == v.name {
			f.Series[n-1].Points = append(f.Series[n-1].Points, s.Points...)
		} else {
			f.Series = append(f.Series, Series{Name: v.name, Points: s.Points})
		}
		if v.cacheNote != "" {
			f.Notes = append(f.Notes, fmt.Sprintf("%s: hits=%d misses=%d evictions=%d",
				v.cacheNote, rc.Hits, rc.Misses, rc.Evictions))
		}
	}
	return f
}

// twoRankRows are the paper's Figures 4–14, the SMP extension's fig3
// pair, the two-rank ablations and the multi-rail sweeps.
var twoRankRows = []twoRank{
	// The paper's Figure 3 is the shared-memory scheme its RDMA designs
	// emulate over the network; fig3 measures that scheme implemented
	// natively (internal/shmchan) against InfiniBand, a repository
	// extension (DESIGN.md §6). For small messages shm wins by the full
	// fabric round trip; for large ones the two-copy path closes on the
	// single memory bus.
	{id: "fig3-lat", title: "Intra-Node (Shared Memory) vs Inter-Node (InfiniBand) MPI Latency",
		lat: true, sizes: sizesPow4(4, 64<<10), variants: []variant{
			{name: "intra-node shm", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, CoresPerNode: 2}},
			{name: "inter-node IB", cfg: cluster.Config{Transport: cluster.TransportZeroCopy}},
		}},
	// Two bus crossings per byte cap intra-node streaming below the
	// fabric's 870 MB/s: §4.4's memory-bus bottleneck as an SMP property.
	{id: "fig3-bw", title: "Intra-Node (Shared Memory) vs Inter-Node (InfiniBand) MPI Bandwidth",
		sizes: sizesPow4(4, 1<<20), variants: []variant{
			{name: "intra-node shm", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, CoresPerNode: 2}},
			{name: "inter-node IB", cfg: cluster.Config{Transport: cluster.TransportZeroCopy}},
		}},
	{id: "fig4", title: "MPI Latency for Basic Design", lat: true,
		sizes: sizesPow4(4, 16<<10), variants: designs(cluster.TransportBasic)},
	{id: "fig5", title: "MPI Bandwidth for Basic Design",
		sizes: sizesPow4(4, 64<<10), variants: designs(cluster.TransportBasic)},
	{id: "fig6", title: "MPI Small-Message Latency with Piggybacking", lat: true,
		sizes: sizesPow4(4, 16<<10), variants: designs(cluster.TransportBasic, cluster.TransportPiggyback)},
	{id: "fig7", title: "MPI Small-Message Bandwidth with Piggybacking",
		sizes: sizesPow4(4, 16<<10), variants: designs(cluster.TransportBasic, cluster.TransportPiggyback)},
	{id: "fig8", title: "MPI Bandwidth with Pipelining",
		sizes: sizesPow4(4, 64<<10), variants: designs(cluster.TransportBasic, cluster.TransportPipeline)},
	// The paper picks 16 KB chunks from this sweep.
	{id: "fig9", title: "MPI Bandwidth with Pipelining (Different Chunk Sizes)",
		sizes: sizesPow4(4<<10, 1<<20), variants: []variant{
			{name: "32K", cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{ChunkSize: 32 << 10}}},
			{name: "16K", cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{ChunkSize: 16 << 10}}},
			{name: "8K", cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{ChunkSize: 8 << 10}}},
			{name: "4K", cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{ChunkSize: 4 << 10}}},
			{name: "2K", cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{ChunkSize: 2 << 10}}},
			{name: "1K", cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{ChunkSize: 1 << 10}}},
		}},
	{id: "fig11", title: "MPI Bandwidth with Zero-Copy and Pipelining",
		sizes: sizesPow4(4, 1<<20), variants: designs(cluster.TransportPipeline, cluster.TransportZeroCopy)},
	{id: "fig13", title: "MPI Latency for CH3 Design and RDMA Channel Interface Design", lat: true,
		sizes: sizesPow4(4, 64<<10), variants: []variant{
			{name: "RDMA Chan ZC", cfg: cluster.Config{Transport: cluster.TransportZeroCopy}},
			{name: "CH3 ZC", cfg: cluster.Config{Transport: cluster.TransportCH3}},
		}},
	// The CH3 design wins for mid-size messages (32 KB–256 KB), tracking
	// the raw write-vs-read gap of Figure 15.
	{id: "fig14", title: "MPI Bandwidth for CH3 Design and RDMA Channel Interface Design",
		sizes: sizesPow4(4, 1<<20), variants: []variant{
			{name: "RDMA Chan ZC", cfg: cluster.Config{Transport: cluster.TransportZeroCopy}},
			{name: "CH3 ZC", cfg: cluster.Config{Transport: cluster.TransportCH3}},
		}},

	// Ablations probe the design choices the paper calls out but does not
	// sweep; DESIGN.md §4 lists each with its motivating section.

	// The delayed tail-update (credit batch) threshold of §4.3.
	{id: "ablation-tail", title: "Delayed tail updates: credit batch sweep (16 KB messages)",
		xLabel: "credit batch (chunks)", sizes: []int{16 << 10}, variants: []variant{
			{name: "pipeline 16K", x: 1, cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{CreditBatch: 1}}},
			{name: "pipeline 16K", x: 2, cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{CreditBatch: 2}}},
			{name: "pipeline 16K", x: 4, cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{CreditBatch: 4}}},
			{name: "pipeline 16K", x: 6, cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{CreditBatch: 6}}},
		}},
	// §5: registration is expensive, and the cache's effectiveness depends
	// on buffer reuse, so the notes give its totals across each sweep.
	{id: "ablation-regcache", title: "Zero-copy with and without the registration cache",
		sizes: sizesPow4(16<<10, 1<<20), variants: []variant{
			{name: "with cache", cacheNote: "regcache with cache", cfg: cluster.Config{Transport: cluster.TransportZeroCopy}},
			{name: "no cache", cacheNote: "regcache no cache", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, Chan: rdmachan.Config{RegCacheBytes: -1}}},
		}},
	// The eager→zero-copy switch point.
	{id: "ablation-zcthreshold", title: "Zero-copy threshold sweep",
		sizes: sizesPow4(4<<10, 256<<10), variants: []variant{
			{name: "thresh 8K", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, Chan: rdmachan.Config{ZCThreshold: 8 << 10}}},
			{name: "thresh 16K", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, Chan: rdmachan.Config{ZCThreshold: 16 << 10}}},
			{name: "thresh 32K", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, Chan: rdmachan.Config{ZCThreshold: 32 << 10}}},
			{name: "thresh 64K", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, Chan: rdmachan.Config{ZCThreshold: 64 << 10}}},
		}},
	// Is Figure 15's mid-size read gap an IRD artifact? Raw reads posted
	// back to back are limited by the outstanding-RDMA-read limit; the
	// zero-copy MPI path keeps at most one read in flight per queue pair,
	// so no limit moves it.
	{id: "ablation-reads", title: "Zero-copy bandwidth vs outstanding RDMA read limit",
		sizes: sizesPow4(16<<10, 1<<20), variants: []variant{
			{name: "IRD 1", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, Params: withIRD(1)}},
			{name: "IRD 2", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, Params: withIRD(2)}},
			{name: "IRD 4", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, Params: withIRD(4)}},
			{name: "verbs read IRD 1", verbsRead: true, cfg: cluster.Config{Params: withIRD(1)}},
			{name: "verbs read IRD 2", verbsRead: true, cfg: cluster.Config{Params: withIRD(2)}},
			{name: "verbs read IRD 4", verbsRead: true, cfg: cluster.Config{Params: withIRD(4)}},
		}},
	// §4.4's flow-control stalls against buffer memory.
	{id: "ablation-ring", title: "Pipeline bandwidth vs shared ring size (1 MB messages)",
		xLabel: "ring size (bytes)", sizes: []int{1 << 20}, variants: []variant{
			{name: "pipeline 1M", x: 32 << 10, cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{RingSize: 32 << 10}}},
			{name: "pipeline 1M", x: 64 << 10, cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{RingSize: 64 << 10}}},
			{name: "pipeline 1M", x: 128 << 10, cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{RingSize: 128 << 10}}},
			{name: "pipeline 1M", x: 256 << 10, cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{RingSize: 256 << 10}}},
			{name: "pipeline 1M", x: 512 << 10, cfg: cluster.Config{Transport: cluster.TransportPipeline, Chan: rdmachan.Config{RingSize: 512 << 10}}},
		}},
	// The shared-memory channel's two-copy segment path against its
	// single-copy rendezvous for large intra-node messages: one bus
	// crossing instead of two, with both user buffers pinned through the
	// registration cache like the InfiniBand rendezvous.
	{id: "ablation-shm-rndv", title: "Intra-node large messages: segment vs single-copy rendezvous",
		sizes: sizesPow4(32<<10, 1<<20), variants: []variant{
			{name: "shm segment", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, CoresPerNode: 2}},
			{name: "shm rendezvous", cacheNote: "rendezvous regcache", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, CoresPerNode: 2,
				Shm: shmchan.Config{RndvThreshold: 32 << 10}}},
		}},
	// At rails=2, the size below which a zero-copy transfer should stay on
	// one rail: striping pays per-rail registration (first touch) and a
	// second read turnaround, and the sweep shows where the overlap wins.
	{id: "ablation-rail-stripe", title: "Striping threshold (rails=2, zero-copy design)",
		sizes: sizesPow4(16<<10, 4<<20), variants: []variant{
			{name: "stripe-all", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: 2, Chan: rdmachan.Config{StripeThreshold: 0}}},
			{name: "stripe>=128K", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: 2, Chan: rdmachan.Config{StripeThreshold: 128 << 10}}},
			{name: "stripe>=512K", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: 2, Chan: rdmachan.Config{StripeThreshold: 512 << 10}}},
			{name: "no-striping", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: 2, Chan: rdmachan.Config{StripeThreshold: -1}}},
		}, notes: []string{"below the threshold a transfer uses rail 0 alone; the registration cache amortizes per-rail pinning after first touch"}},

	// Multi-rail figures (DESIGN.md §10). The paper's bandwidth ceiling is
	// one PCI-X-bound adapter per node (870 MB/s sustained, §6); these
	// measure what striping the zero-copy design over N such adapters
	// buys, where the ceiling moves to the node's shared memory bandwidth.

	// Eager chunks go round-robin over the rails and large messages stripe
	// across all of them; the id names the eager policy, so its figure key
	// differs from its -fig id.
	{id: "rails-bw/round-robin", title: "MPI Bandwidth vs Rails (zero-copy design, striped rendezvous)",
		sizes: sizesPow4(4<<10, 4<<20), variants: []variant{
			{name: "rails=1", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: 1}},
			{name: "rails=2", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: 2}},
			{name: "rails=4", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: 4}},
		}, notes: []string{
			"eager rail policy: round-robin; zero-copy transfers stripe in ChunkSize-aligned blocks",
			"rails share the node MemBandwidth ceiling but each owns its NetBandwidth (DESIGN.md §10)"}},
	// The eager rail policies on mid-size messages, where the eager ring
	// carries the traffic.
	{id: "rails-policy", title: "Eager rail policy (rails=2, zero-copy design)",
		sizes: sizesPow4(1<<10, 16<<10), variants: []variant{
			{name: "round-robin", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: 2, Chan: rdmachan.Config{RailPolicy: rdmachan.RailRoundRobin}}},
			{name: "weighted", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: 2, Chan: rdmachan.Config{RailPolicy: rdmachan.RailWeighted}}},
			{name: "fixed", cfg: cluster.Config{Transport: cluster.TransportZeroCopy, RailsPerNode: 2, Chan: rdmachan.Config{RailPolicy: rdmachan.RailFixed}}},
		}, notes: []string{"fixed pins rail 0: the single-rail baseline inside a 2-rail build"}},
}

// twoRankFigure is the builder of the twoRank row whose figure id is id.
func twoRankFigure(id string) func() Figure {
	i := slices.IndexFunc(twoRankRows, func(r twoRank) bool { return r.id == id })
	if i < 0 {
		panic("bench: no two-rank row " + id)
	}
	return twoRankRows[i].figure
}

// fig15 reproduces Figure 15: raw verbs-level RDMA write vs read
// bandwidth, 4 KB–1 MB.
func fig15() Figure {
	sizes := sizesPow4(4<<10, 1<<20)
	return Figure{
		ID: "fig15", Title: "InfiniBand Bandwidth (verbs level)",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
		Series: []Series{
			VerbsBandwidth(ib.OpRDMAWrite, sizes, nil),
			VerbsBandwidth(ib.OpRDMARead, sizes, nil),
		},
	}
}

// baseline reproduces the §4.2.1 raw numbers: 5.9 µs latency, 870 MB/s
// bandwidth.
func baseline() Figure {
	lat := VerbsLatency(nil)
	bw := verbsBW(ib.OpRDMAWrite, 1<<20, 8, nil)
	return Figure{
		ID: "baseline", Title: "Raw InfiniBand performance (§4.2.1: 5.9 µs, 870 MB/s)",
		XLabel: "metric", YLabel: "value",
		Series: []Series{
			{Name: "latency µs", Points: []Point{{Size: 4, Value: lat}}},
			{Name: "bandwidth MB/s", Points: []Point{{Size: 1 << 20, Value: bw}}},
		},
	}
}

// headline reproduces the paper's headline MPI numbers: 7.6 µs latency and
// 857 MB/s peak bandwidth for the optimized (zero-copy) design.
func headline() Figure {
	lat := MPILatency(Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy}}, []int{4}, latIters)
	bw := MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy}}, []int{1 << 20})
	return Figure{
		ID: "headline", Title: "Headline MPI numbers (paper: 7.6 µs, 857 MB/s)",
		XLabel: "metric", YLabel: "value",
		Series: []Series{
			{Name: "latency µs", Points: lat.Points},
			{Name: "bandwidth MB/s", Points: bw.Points},
		},
	}
}

// figureTable is every figure -fig can name, in -list order, and "-fig
// all" regenerates every one: BENCH_figures.json pins each series. First
// Figures 4–17 at the paper's class and node count, the raw baseline, the
// headline and the SMP extension (fig3-lat, fig3-bw, nas-smp); then the
// design-choice ablations, the connection-management, multi-rail and
// fault-recovery sweeps, and the collective registry sweeps on the flat
// wire and a contended fat tree.
var figureTable = []struct {
	id   string
	make func() Figure
}{
	{"baseline", baseline}, {"headline", headline},
	{"fig3-lat", twoRankFigure("fig3-lat")}, {"fig3-bw", twoRankFigure("fig3-bw")},
	{"fig4", twoRankFigure("fig4")}, {"fig5", twoRankFigure("fig5")},
	{"fig6", twoRankFigure("fig6")}, {"fig7", twoRankFigure("fig7")},
	{"fig8", twoRankFigure("fig8")}, {"fig9", twoRankFigure("fig9")},
	{"fig11", twoRankFigure("fig11")}, {"fig13", twoRankFigure("fig13")},
	{"fig14", twoRankFigure("fig14")}, {"fig15", fig15},
	{"fig16", func() Figure { return nasFigure("fig16", nas.ClassA, 4) }},
	{"fig17", func() Figure { return nasFigure("fig17", nas.ClassB, 8) }},
	{"nas-smp", func() Figure { return nasSMP(nas.ClassA, 8, []int{1, 2, 4, 8}) }},
	{"ablation-tail", twoRankFigure("ablation-tail")},
	{"ablation-regcache", twoRankFigure("ablation-regcache")},
	{"ablation-zcthreshold", twoRankFigure("ablation-zcthreshold")},
	{"ablation-reads", twoRankFigure("ablation-reads")},
	{"ablation-ring", twoRankFigure("ablation-ring")},
	{"ablation-shm-rndv", twoRankFigure("ablation-shm-rndv")},
	{"ablation-coll-alg", ablationCollAlg},
	{"ablation-rail-stripe", twoRankFigure("ablation-rail-stripe")},
	{"footprint-conns", func() Figure { return footprints()[0] }},
	{"footprint-mem", func() Figure { return footprints()[1] }},
	{"ablation-connect-setup", ablationConnectSetup},
	{"rails-bw", twoRankFigure("rails-bw/round-robin")},
	{"rails-policy", twoRankFigure("rails-policy")},
	{"nas-rails", nasRailSweep}, {"fault-recovery", faultRecovery},
	{"coll-allreduce/flat/np=16/cpn=1", collRow("allreduce", nil)},
	{"coll-alltoall/flat/np=16/cpn=1", collRow("alltoall", nil)},
	{"coll-allgather/flat/np=16/cpn=1", collRow("allgather", nil)},
	{"coll-allreduce/fattree-d4-u1/np=16/cpn=1", collRow("allreduce", fatTree)},
	{"coll-alltoall/fattree-d4-u1/np=16/cpn=1", collRow("alltoall", fatTree)},
	{"coll-allgather/fattree-d4-u1/np=16/cpn=1", collRow("allgather", fatTree)},
}

// FigureIDs lists the ids FigureByID knows, in table order.
func FigureIDs() []string {
	ids := make([]string, len(figureTable))
	for i, e := range figureTable {
		ids[i] = e.id
	}
	return ids
}

// AllFigures returns every figure of the table, in table order.
func AllFigures() []Figure {
	figs := make([]Figure, len(figureTable))
	for i, e := range figureTable {
		figs[i] = e.make()
	}
	return figs
}

// FigureByID returns a single figure by its table id.
func FigureByID(id string) (Figure, error) {
	for _, e := range figureTable {
		if e.id == id {
			return e.make(), nil
		}
	}
	return Figure{}, fmt.Errorf("bench: unknown figure %q", id)
}
