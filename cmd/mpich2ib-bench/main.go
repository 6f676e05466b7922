// Command mpich2ib-bench regenerates the paper's figures (Figures 4–17),
// the design-choice ablations and the repository's extension sweeps
// (SMP, connection management, multi-rail, fault recovery, collective
// algorithms) over the simulated testbed. Every figure is a row of one
// table (internal/bench figureTable; DESIGN.md §4 indexes it), chosen by
// id.
//
// Usage:
//
//	mpich2ib-bench -list                       # every figure id
//	mpich2ib-bench -fig fig11                  # one figure
//	mpich2ib-bench -fig all                    # every figure (class B fig17 is most of the run)
//
// -out writes one row per printed series (bench.Curve, keyed figure id /
// series name) and -compare gates the printed series against such a file,
// every point exactly; a series of a printed figure, or under -fig all a
// figure, that the file holds and the run did not print fails too. The
// committed baseline and its gate:
//
//	mpich2ib-bench -fig all -compare BENCH_figures.json
//
// (the same command with -out regenerates it and prints a census of what
// moved; -fig <id> -compare BENCH_figures.json gates one figure).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

var (
	fig        = flag.String("fig", "all", "figure id (see -list), or all")
	list       = flag.Bool("list", false, "list the figure ids")
	out        = flag.String("out", "", "write the printed figures as JSON, one row per series (a BENCH_*.json baseline)")
	compare    = flag.String("compare", "", "compare the printed figures against this baseline, every point exactly")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	memprofile = flag.String("memprofile", "", "write a heap profile (post-GC live memory) to this path")
)

func main() {
	flag.Parse()
	if *list {
		for _, id := range bench.FigureIDs() {
			fmt.Println(id)
		}
		return
	}
	stopProf, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var figs []bench.Figure
	if *fig == "all" {
		figs = bench.AllFigures()
	} else {
		f, err := bench.FigureByID(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		figs = []bench.Figure{f}
	}
	for _, f := range figs {
		fmt.Println(bench.FormatFigure(f))
	}
	stopProf()
	rep := bench.Curves(figs...)
	rep.Whole = *fig == "all"
	os.Exit(rep.Finish(*out, false, *compare, 0))
}
