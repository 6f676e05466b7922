package bench

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/nas"
	"repro/internal/rdmachan"
)

// NAS figures: the paper's application-level evaluation (§7, Figures 16
// and 17) and the repository's sweeps of the same kernels over multi-core
// layouts (DESIGN.md §6) and rail counts (DESIGN.md §10). Runtimes are in
// simulated milliseconds, so FormatFigure's one decimal is the paper's
// millisecond resolution.

// runNAS runs one kernel. Every kernel checksums the bytes it received, so
// a run that does not verify is a broken transport, not a data point: it
// fails the figure rather than print a number.
func runNAS(name string, class nas.Class, cfg cluster.Config) nas.Result {
	res := nas.Run(name, class, cfg)
	if !res.Verified {
		panic(fmt.Sprintf("bench: %v on %v, %d cores per node, %d rails", res, cfg.Transport, cfg.CoresPerNode, cfg.RailsPerNode))
	}
	return res
}

// nasRanks is the rank count a kernel runs at in a figure of np ranks: SP
// and BT need a square process grid, so the paper shows them on 4 nodes
// only (§7).
func nasRanks(name string, np int) int {
	if nas.SquareOnly(name) && !isSquare(np) {
		return 4
	}
	return np
}

func isSquare(n int) bool {
	r := int(math.Sqrt(float64(n)))
	return r*r == n
}

// squareNote says which kernels a figure of np ranks runs at 4.
func squareNote(np int) []string {
	if isSquare(np) {
		return nil
	}
	return []string{fmt.Sprintf("bt and sp run at 4 ranks, not %d: they need a square process grid (§7)", np)}
}

// NASFigure reproduces Figure 16 (class A on 4 nodes) or Figure 17 (class B
// on 8 nodes): every kernel over the three designs the paper compares — the
// pipelined RDMA Channel, its zero-copy design (the paper's "RDMA Channel"
// bars) and the direct CH3 zero-copy design. One series per design, one
// point per kernel in nas.Names() order, labelled with the kernel and sized
// with the rank count it ran at.
func NASFigure(id string, class nas.Class, np int) Figure {
	f := Figure{
		ID: id, Title: fmt.Sprintf("NAS Class %c on %d Nodes", class, np),
		XLabel: "benchmark", YLabel: "simulated runtime (ms)",
		Series: []Series{{Name: "Pipelining"}, {Name: "RDMA Chan"}, {Name: "CH3"}},
	}
	designs := []cluster.Transport{cluster.TransportPipeline, cluster.TransportZeroCopy, cluster.TransportCH3}
	for _, name := range nas.Names() {
		ranks := nasRanks(name, np)
		for i, tr := range designs {
			res := runNAS(name, class, cluster.Config{NP: ranks, Transport: tr})
			f.Series[i].Points = append(f.Series[i].Points, Point{Size: ranks, Value: res.Time * 1e3, Label: name})
		}
	}
	pipe, rdma, ch3 := f.Series[0].Points, f.Series[1].Points, f.Series[2].Points
	f.Notes = append(squareNote(np), fmt.Sprintf("geometric mean ratios: pipelining/rdma = %.3f, ch3/rdma = %.3f",
		geoMeanRatio(pipe, rdma), geoMeanRatio(ch3, rdma)))
	return f
}

// geoMeanRatio is the geometric mean of a[i]/b[i].
func geoMeanRatio(a, b []Point) float64 {
	prod := 1.0
	for i := range a {
		prod *= a[i].Value / b[i].Value
	}
	return math.Pow(prod, 1/float64(len(a)))
}

// NASSMP sweeps every kernel over cores-per-node layouts at a fixed rank
// count, the scenario the paper leaves as future work (§9): from one rank
// per node, the paper's testbed, to all ranks on one node. Fewer nodes make
// co-located traffic cheap shared-memory hops but put more ranks on each
// node's memory bus and adapter. The inter-node transport is the zero-copy
// RDMA Channel design. One series per kernel, x = cores per node.
func NASSMP(class nas.Class, np int, ppns []int) Figure {
	f := Figure{
		ID: "nas-smp", Title: fmt.Sprintf("NAS Class %c, %d Ranks, Varying Cores per Node (zero-copy design)", class, np),
		XLabel: "cores per node", YLabel: "simulated runtime (ms)",
		Notes: squareNote(np),
	}
	for _, name := range nas.Names() {
		s := Series{Name: name}
		for _, ppn := range ppns {
			res := runNAS(name, class, cluster.Config{NP: nasRanks(name, np), CoresPerNode: ppn, Transport: cluster.TransportZeroCopy})
			s.Points = append(s.Points, Point{Size: ppn, Value: res.Time * 1e3})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// NASRailSweep runs NAS CG over rail counts — the application-level rail
// sweep (one series per transport is unnecessary: CG's transfers are the
// zero-copy design's bread and butter).
func NASRailSweep(class nas.Class, np int, railCounts []int, policy rdmachan.RailPolicy) Figure {
	f := Figure{
		ID: "nas-rails", Title: fmt.Sprintf("NAS CG class %c np=%d vs rails (zero-copy design)", class, np),
		XLabel: "rails", YLabel: "Mop/s",
	}
	s := Series{Name: "cg/zerocopy"}
	for _, rails := range railCounts {
		cfg := cluster.Config{NP: np, RailsPerNode: rails, Transport: cluster.TransportZeroCopy}
		cfg.Chan.RailPolicy = policy
		s.Points = append(s.Points, Point{Size: rails, Value: runNAS("cg", class, cfg).Mops})
	}
	f.Series = append(f.Series, s)
	return f
}
