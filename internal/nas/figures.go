package nas

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
)

// The three transports Figures 16 and 17 compare (§7): the pipelined
// RDMA Channel design, the zero-copy RDMA Channel design (the paper's
// "RDMA Channel" bars), and the direct CH3 zero-copy design.
var figureTransports = []cluster.Transport{
	cluster.TransportPipeline,
	cluster.TransportZeroCopy,
	cluster.TransportCH3,
}

// Row is one benchmark's results across the compared transports, in
// simulated seconds.
type Row struct {
	Name     string
	Times    map[cluster.Transport]float64
	Mops     map[cluster.Transport]float64
	Verified bool
}

// FigureResult is a reproduced NAS figure.
type FigureResult struct {
	ID    string
	Title string
	Class Class
	NP    int
	Rows  []Row
}

// RunFigure reproduces Figure 16 (class A on 4 nodes) or Figure 17
// (class B on 8 nodes; SP and BT stay on 4 nodes, needing a square count).
func RunFigure(id string, class Class, np int) FigureResult {
	fr := FigureResult{
		ID:    id,
		Title: fmt.Sprintf("NAS Class %c on %d Nodes", class, np),
		Class: class,
		NP:    np,
	}
	for _, name := range Names() {
		rowNP := np
		if SquareOnly(name) && isqrt(np) == 0 {
			rowNP = 4 // §7: SP/BT results shown for 4 nodes only
		}
		row := Row{
			Name:     name,
			Times:    map[cluster.Transport]float64{},
			Mops:     map[cluster.Transport]float64{},
			Verified: true,
		}
		for _, tr := range figureTransports {
			res := Run(name, class, cluster.Config{NP: rowNP, Transport: tr})
			row.Times[tr] = res.Time
			row.Mops[tr] = res.Mops
			if !res.Verified {
				row.Verified = false
			}
		}
		fr.Rows = append(fr.Rows, row)
	}
	return fr
}

// Format renders the figure with per-design runtimes and the ratios the
// paper discusses (pipelining always worst; CH3 within ~1% of the
// RDMA-Channel zero-copy design).
func (fr FigureResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s (simulated runtime, seconds; lower is better)\n", fr.ID, fr.Title)
	fmt.Fprintf(&b, "  %-6s %12s %12s %12s %10s %10s %s\n",
		"bench", "Pipelining", "RDMA Chan", "CH3", "pipe/rdma", "ch3/rdma", "verified")
	var geoPipe, geoCH3 float64 = 1, 1
	for _, r := range fr.Rows {
		pipe := r.Times[cluster.TransportPipeline]
		rdma := r.Times[cluster.TransportZeroCopy]
		ch3 := r.Times[cluster.TransportCH3]
		v := "yes"
		if !r.Verified {
			v = "NO"
		}
		fmt.Fprintf(&b, "  %-6s %12.3f %12.3f %12.3f %10.3f %10.3f %s\n",
			r.Name, pipe, rdma, ch3, pipe/rdma, ch3/rdma, v)
		geoPipe *= pipe / rdma
		geoCH3 *= ch3 / rdma
	}
	n := float64(len(fr.Rows))
	fmt.Fprintf(&b, "  geometric mean ratios: pipelining/rdma = %.3f, ch3/rdma = %.3f\n",
		math.Pow(geoPipe, 1/n), math.Pow(geoCH3, 1/n))
	return b.String()
}
