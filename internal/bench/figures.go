package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ib"
	"repro/internal/nas"
	"repro/internal/rdmachan"
)

// Iteration counts; latency curves average over this many round trips.
const latIters = 10

// Fig4 reproduces Figure 4: MPI latency for the basic design, 4 B–16 KB.
func Fig4() Figure {
	return Figure{
		ID: "fig4", Title: "MPI Latency for Basic Design",
		XLabel: "message size (bytes)", YLabel: "time (µs)",
		Series: []Series{
			MPILatency(Options{Config: cluster.Config{Transport: cluster.TransportBasic}}, sizesPow4(4, 16<<10), latIters),
		},
	}
}

// Fig5 reproduces Figure 5: MPI bandwidth for the basic design, 4 B–64 KB.
func Fig5() Figure {
	return Figure{
		ID: "fig5", Title: "MPI Bandwidth for Basic Design",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
		Series: []Series{
			MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportBasic}}, sizesPow4(4, 64<<10)),
		},
	}
}

// Fig6 reproduces Figure 6: small-message latency, basic vs piggyback.
func Fig6() Figure {
	sizes := sizesPow4(4, 16<<10)
	return Figure{
		ID: "fig6", Title: "MPI Small-Message Latency with Piggybacking",
		XLabel: "message size (bytes)", YLabel: "time (µs)",
		Series: []Series{
			MPILatency(Options{Config: cluster.Config{Transport: cluster.TransportBasic}}, sizes, latIters),
			MPILatency(Options{Config: cluster.Config{Transport: cluster.TransportPiggyback}}, sizes, latIters),
		},
	}
}

// Fig7 reproduces Figure 7: small-message bandwidth, basic vs piggyback.
func Fig7() Figure {
	sizes := sizesPow4(4, 16<<10)
	return Figure{
		ID: "fig7", Title: "MPI Small-Message Bandwidth with Piggybacking",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
		Series: []Series{
			MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportBasic}}, sizes),
			MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportPiggyback}}, sizes),
		},
	}
}

// Fig8 reproduces Figure 8: bandwidth, basic vs pipeline, 4 B–64 KB.
func Fig8() Figure {
	return Figure{
		ID: "fig8", Title: "MPI Bandwidth with Pipelining",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
		Series: []Series{
			MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportBasic}}, sizesPow4(4, 64<<10)),
			MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportPipeline}}, sizesPow4(4, 64<<10)),
		},
	}
}

// Fig9 reproduces Figure 9: pipeline bandwidth across chunk sizes
// (1 KB–32 KB) for messages 4 KB–1 MB. The paper picks 16 KB from this
// sweep.
func Fig9() Figure {
	f := Figure{
		ID: "fig9", Title: "MPI Bandwidth with Pipelining (Different Chunk Sizes)",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
	}
	for _, chunk := range []int{32 << 10, 16 << 10, 8 << 10, 4 << 10, 2 << 10, 1 << 10} {
		s := MPIBandwidth(Options{Config: cluster.Config{
			Transport: cluster.TransportPipeline,
			Chan:      rdmachan.Config{ChunkSize: chunk},
		}}, sizesPow4(4<<10, 1<<20))
		s.Name = fmtSize(chunk)
		f.Series = append(f.Series, s)
	}
	return f
}

// Fig11 reproduces Figure 11: bandwidth, pipeline vs zero-copy, 4 B–1 MB.
func Fig11() Figure {
	sizes := sizesPow4(4, 1<<20)
	return Figure{
		ID: "fig11", Title: "MPI Bandwidth with Zero-Copy and Pipelining",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
		Series: []Series{
			MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportPipeline}}, sizes),
			MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy}}, sizes),
		},
	}
}

// Fig13 reproduces Figure 13: latency, RDMA-Channel zero-copy vs direct
// CH3 design, 4 B–64 KB.
func Fig13() Figure {
	sizes := sizesPow4(4, 64<<10)
	a := MPILatency(Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy}}, sizes, latIters)
	a.Name = "RDMA Chan ZC"
	b := MPILatency(Options{Config: cluster.Config{Transport: cluster.TransportCH3}}, sizes, latIters)
	b.Name = "CH3 ZC"
	return Figure{
		ID: "fig13", Title: "MPI Latency for CH3 Design and RDMA Channel Interface Design",
		XLabel: "message size (bytes)", YLabel: "time (µs)",
		Series: []Series{a, b},
	}
}

// Fig14 reproduces Figure 14: bandwidth, RDMA-Channel zero-copy vs direct
// CH3 design, 4 B–1 MB. The CH3 design wins for mid-size messages
// (32 KB–256 KB), tracking the raw write-vs-read gap of Figure 15.
func Fig14() Figure {
	sizes := sizesPow4(4, 1<<20)
	a := MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy}}, sizes)
	a.Name = "RDMA Chan ZC"
	b := MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportCH3}}, sizes)
	b.Name = "CH3 ZC"
	return Figure{
		ID: "fig14", Title: "MPI Bandwidth for CH3 Design and RDMA Channel Interface Design",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
		Series: []Series{a, b},
	}
}

// Fig15 reproduces Figure 15: raw verbs-level RDMA write vs read
// bandwidth, 4 KB–1 MB.
func Fig15() Figure {
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

// Baseline reproduces the §4.2.1 raw numbers: 5.9 µs latency, 870 MB/s
// bandwidth.
func Baseline() Figure {
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

// Headline reproduces the paper's headline MPI numbers: 7.6 µs latency and
// 857 MB/s peak bandwidth for the optimized (zero-copy) design.
func Headline() Figure {
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

// figureTable is every figure -fig can name, in -list order. The ones
// marked all are what "-fig all" regenerates and BENCH_paper.json pins:
// Figures 4–17 at the paper's class and node count, the raw baseline, the
// headline and the SMP extension (fig3-lat, fig3-bw, nas-smp).
var figureTable = []struct {
	id   string
	make func() Figure
	all  bool
}{
	{"baseline", Baseline, true}, {"headline", Headline, true},
	{"fig3-lat", Fig3Latency, true}, {"fig3-bw", Fig3Bandwidth, true},
	{"fig4", Fig4, true}, {"fig5", Fig5, true}, {"fig6", Fig6, true}, {"fig7", Fig7, true},
	{"fig8", Fig8, true}, {"fig9", Fig9, true}, {"fig11", Fig11, true}, {"fig13", Fig13, true},
	{"fig14", Fig14, true}, {"fig15", Fig15, true},
	{"fig16", func() Figure { return NASFigure("fig16", nas.ClassA, 4) }, true},
	{"fig17", func() Figure { return NASFigure("fig17", nas.ClassB, 8) }, true},
	{"nas-smp", func() Figure { return NASSMP(nas.ClassA, 8, []int{1, 2, 4, 8}) }, true},
	{"nas-rails", func() Figure { return NASRailSweep(nas.ClassA, 4, DefaultRailCounts(), rdmachan.RailRoundRobin) }, false},
	{"rails-bw", func() Figure { return RailBandwidth(DefaultRailCounts(), rdmachan.RailRoundRobin) }, false},
	{"rails-policy", RailPolicyFigure, false},
	{"ablation-rail-stripe", AblationRailStripe, false},
	{"fault-recovery", func() Figure { return FaultRecovery(DefaultFaultCounts(), 1) }, false},
}

// FigureIDs lists the ids FigureByID knows, in table order.
func FigureIDs() []string {
	ids := make([]string, len(figureTable))
	for i, e := range figureTable {
		ids[i] = e.id
	}
	return ids
}

// AllFigures returns every figure "-fig all" regenerates, in table order.
func AllFigures() []Figure {
	var figs []Figure
	for _, e := range figureTable {
		if e.all {
			figs = append(figs, e.make())
		}
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
