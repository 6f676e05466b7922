// Command nasbench regenerates the paper's application-level evaluation
// (Figures 16 and 17): the NAS Parallel Benchmarks over the three compared
// transports — pipelining, RDMA-Channel zero-copy, and the direct CH3
// zero-copy design.
//
// Usage:
//
//	nasbench -class A -np 4          # Figure 16
//	nasbench -class B -np 8          # Figure 17
//	nasbench -class S -np 4          # smoke-scale sweep
//	nasbench -bench cg -class A -np 4 -transport zerocopy
//	nasbench -bench cg -class A -np 4 -transport pipeline,zerocopy,ch3
//
// Beyond the paper, the SMP mode sweeps multi-core-node layouts
// (DESIGN.md §6): the same ranks packed onto fewer nodes, co-located
// pairs over shared memory, collectives hierarchical:
//
//	nasbench -smp -class A -np 8     # 1, 2, 4 and 8 ranks per node
//	nasbench -bench cg -class A -np 8 -ppn 4 -transport zerocopy
//
// The multi-rail mode (DESIGN.md §10) runs N adapters per node:
//
//	nasbench -rails 1,2,4 -class A -np 4          # NAS CG rail sweep
//	nasbench -bench cg -class A -np 4 -rails 2    # one multi-rail run
//
// Fault injection (DESIGN.md §11) kills one rail on every node mid-run
// and reports the recovery counters alongside the verified result:
//
//	nasbench -bench cg -class S -np 4 -rails 2 -connect lazy -srq \
//	    -fault-rail 1 -fault-at 200
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/nas"
	"repro/internal/rdmachan"
)

func main() {
	class := flag.String("class", "A", "problem class: S, A or B")
	np := flag.Int("np", 4, "number of ranks")
	benchName := flag.String("bench", "", "single benchmark (bt cg ep ft is lu mg sp); empty = full figure")
	transport := flag.String("transport", "", "comma-separated transports (basic, piggyback, pipeline, zerocopy, ch3); empty = the figure's three")
	ppn := flag.Int("ppn", 1, "ranks per node (SMP layout; co-located pairs use shared memory)")
	smp := flag.Bool("smp", false, "sweep ranks-per-node layouts instead of transports")
	connect := flag.String("connect", "eager", "connection management: eager (full mesh at startup) or lazy (on first use)")
	srq := flag.Bool("srq", false, "SRQ-backed eager mode: shared per-process receive pool instead of per-connection rings")
	rails := flag.String("rails", "", "HCAs (rails) per node: a single count for -bench runs (e.g. -rails 2), or a comma list for the NAS CG rail sweep (e.g. -rails 1,2,4)")
	railPolicy := flag.String("rail-policy", "round-robin", "eager rail policy: round-robin, weighted or fixed")
	faultRail := flag.Int("fault-rail", -1, "kill this rail on every node mid-run (permanent HCA failure; needs -bench and -rails ≥ 2; rail 0 carries chunk-mode flow control, so target it only with -srq)")
	faultAt := flag.Float64("fault-at", 100, "µs after startup at which the -fault-rail failure strikes")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-GC live memory) to this path")
	flag.Parse()

	stopProf, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nasbench:", err)
		os.Exit(1)
	}
	defer stopProf()

	cl, err := nas.ParseClass(*class)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nasbench: -class:", err)
		os.Exit(2)
	}
	var mode cluster.ConnectMode
	switch *connect {
	case "eager":
		mode = cluster.ConnectEager
	case "lazy":
		mode = cluster.ConnectLazy
	default:
		fmt.Fprintln(os.Stderr, "nasbench: -connect must be eager or lazy")
		os.Exit(1)
	}
	pol, err := rdmachan.ParseRailPolicy(*railPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nasbench:", err)
		os.Exit(1)
	}
	railCount := 1
	if *rails != "" {
		counts, err := bench.ParseRails(*rails)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nasbench:", err)
			os.Exit(1)
		}
		if len(counts) > 1 {
			// The NAS CG rail sweep (DESIGN.md §10): one CG run per rail
			// count on the zero-copy design, eager wiring, one rank per
			// node. Reject flags the sweep would silently drop.
			if *benchName != "" && *benchName != "cg" {
				fmt.Fprintln(os.Stderr, "nasbench: the rail sweep runs CG; drop -bench or use -bench cg")
				os.Exit(1)
			}
			if mode != cluster.ConnectEager || *srq || *ppn != 1 || *transport != "" {
				fmt.Fprintln(os.Stderr, "nasbench: the rail sweep runs the zero-copy design, eager wiring, one rank per node; drop -connect/-srq/-ppn/-transport or use a single -rails count with -bench cg")
				os.Exit(1)
			}
			if *np < 2 || *np&(*np-1) != 0 {
				fmt.Fprintf(os.Stderr, "nasbench: -np must be a power of two ≥ 2, got %d\n", *np)
				os.Exit(1)
			}
			fmt.Print(bench.FormatFigure(bench.NASRailSweep(cl, *np, counts, pol)))
			return
		}
		railCount = counts[0]
	}

	if *faultRail >= 0 {
		if *benchName == "" || *smp {
			fmt.Fprintln(os.Stderr, "nasbench: -fault-rail runs a single benchmark; use -bench (and drop -smp)")
			os.Exit(1)
		}
		if railCount < 2 || *faultRail >= railCount {
			fmt.Fprintf(os.Stderr, "nasbench: -fault-rail %d needs a surviving rail; use -rails ≥ 2 with -fault-rail < rails\n", *faultRail)
			os.Exit(1)
		}
	}

	// The NPB decompositions constrain the rank count: SP and BT need a
	// square process grid, everything else a power of two; other counts
	// would panic deep in a kernel.
	if nas.SquareOnly(*benchName) {
		if !isSquare(*np) {
			fmt.Fprintf(os.Stderr, "nasbench: %s needs a square rank count, got %d\n", *benchName, *np)
			os.Exit(1)
		}
	} else if *np < 2 || *np&(*np-1) != 0 {
		fmt.Fprintf(os.Stderr, "nasbench: -np must be a power of two ≥ 2, got %d\n", *np)
		os.Exit(1)
	}

	if *smp {
		if *transport != "" {
			fmt.Fprintln(os.Stderr, "nasbench: -smp sweeps layouts on the zero-copy transport; drop -transport")
			os.Exit(1)
		}
		if mode != cluster.ConnectEager || *srq {
			fmt.Fprintln(os.Stderr, "nasbench: -smp runs eager wiring; drop -connect/-srq or use -bench")
			os.Exit(1)
		}
		var ppns []int
		for p := 1; p <= *np; p *= 2 {
			ppns = append(ppns, p)
		}
		fmt.Print(bench.FormatFigure(bench.NASSMP(cl, *np, ppns)))
		return
	}

	if *benchName == "" {
		if *ppn != 1 {
			fmt.Fprintln(os.Stderr, "nasbench: the full figure runs one rank per node; use -smp for layout sweeps or -bench with -ppn")
			os.Exit(1)
		}
		if mode != cluster.ConnectEager || *srq {
			fmt.Fprintln(os.Stderr, "nasbench: the full figure runs eager wiring; use -bench with -connect/-srq")
			os.Exit(1)
		}
		if railCount != 1 {
			fmt.Fprintln(os.Stderr, "nasbench: the full figure runs single-rail; use -bench with -rails, or -rails 1,2,4 for the CG sweep")
			os.Exit(1)
		}
		id := "fig16"
		if cl == nas.ClassB {
			id = "fig17"
		}
		fmt.Print(bench.FormatFigure(bench.NASFigure(id, cl, *np)))
		return
	}

	trs := map[string]cluster.Transport{
		"basic":     cluster.TransportBasic,
		"piggyback": cluster.TransportPiggyback,
		"pipeline":  cluster.TransportPipeline,
		"zerocopy":  cluster.TransportZeroCopy,
		"ch3":       cluster.TransportCH3,
	}
	if *srq && *transport == "" {
		// The SRQ mode replaces the channel design (zerocopy label).
		*transport = "zerocopy"
	}
	list := []cluster.Transport{cluster.TransportPipeline, cluster.TransportZeroCopy, cluster.TransportCH3}
	if *transport != "" {
		list = nil
		for _, name := range strings.Split(*transport, ",") {
			tr, ok := trs[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "nasbench: unknown transport %q\n", name)
				os.Exit(1)
			}
			list = append(list, tr)
		}
	}
	var plan *fault.Plan
	if *faultRail >= 0 {
		plan = &fault.Plan{}
		for n, cpn := 0, max(*ppn, 1); n < (*np+cpn-1)/cpn; n++ {
			plan.Events = append(plan.Events, fault.Event{
				At:   des.Time(*faultAt * float64(des.Microsecond)),
				Kind: fault.HCADown, Node: n, Rail: *faultRail,
			})
		}
	}
	// Every configuration is validated before the first one runs: a setting
	// the cluster cannot build as asked is named, not run as something else.
	var cfgs []cluster.Config
	for _, tr := range list {
		cfg := cluster.Config{NP: *np, CoresPerNode: *ppn, RailsPerNode: railCount,
			Transport: tr, ConnectMode: mode, Fault: plan}
		cfg.Chan.UseSRQ = *srq
		cfg.Chan.RailPolicy = pol
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "nasbench:", err)
			os.Exit(2)
		}
		cfgs = append(cfgs, cfg)
	}
	for _, cfg := range cfgs {
		if plan == nil {
			fmt.Printf("%-22s %s\n", cfg.Transport, nas.Run(*benchName, cl, cfg))
			continue
		}
		c := cluster.MustNew(cfg)
		res := nas.RunOn(c, *benchName, cl)
		fs := c.FaultStats()
		c.Close()
		fmt.Printf("%-22s %s  [%d rails downed, %d re-dials, mean recovery %v]\n",
			cfg.Transport, res, fs.LinksDowned, fs.Redials, fs.MeanRecovery())
	}
}

// isSquare reports whether n is a perfect square ≥ 1 (SP/BT grids).
func isSquare(n int) bool {
	for i := 1; i*i <= n; i++ {
		if i*i == n {
			return true
		}
	}
	return false
}
