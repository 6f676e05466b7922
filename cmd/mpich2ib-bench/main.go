// Command mpich2ib-bench regenerates the paper's microbenchmark figures
// (Figures 4–15), the design-choice ablations, and transport-matrix sweeps
// over the simulated testbed.
//
// Usage:
//
//	mpich2ib-bench -fig all                    # every microbenchmark figure
//	mpich2ib-bench -fig fig11                  # one figure
//	mpich2ib-bench -fig ablations              # the ablation suite
//	mpich2ib-bench -list                       # available figure ids
//	mpich2ib-bench -transport shm,ib           # latency+bandwidth matrix
//	mpich2ib-bench -transport shm,ib -sizes 4K,64K
//	mpich2ib-bench -coll bcast,reduce -np 16 -ppn 4     # algorithm sweep
//	mpich2ib-bench -coll bcast -coll-alg bcast=binomial # one algorithm
//	mpich2ib-bench -coll allreduce -net fattree-d4-u1   # contended fat tree
//	mpich2ib-bench -coll allreduce,alltoall,allgather -np 16 -ppn 1 -coll-out BENCH_coll.json      # baseline
//	mpich2ib-bench -coll allreduce,alltoall,allgather -np 16 -ppn 1 -coll-compare BENCH_coll.json  # CI gate
//	mpich2ib-bench -connect eager,lazy                  # footprint vs np
//	mpich2ib-bench -connect lazy -nps 8,64,512          # chosen job sizes
//	mpich2ib-bench -rails 1,2,4                         # bandwidth vs rails
//	mpich2ib-bench -rails 1,2 -rail-policy weighted     # chosen eager policy
//	mpich2ib-bench -rails 1,2,4 -rails-out BENCH_rails.json      # baseline
//	mpich2ib-bench -rails 1,2,4 -rails-compare BENCH_rails.json  # CI gate
//	mpich2ib-bench -faults 0,2,4,8                      # resilience sweep
//	mpich2ib-bench -faults 4 -fault-seed 7              # one seeded schedule
//
// The -transport flag sweeps any subset of the unified stack's transports
// (basic, piggyback, pipeline, zerocopy/ib, ch3, shm, shm-rndv) on the
// same latency and bandwidth microbenchmarks, one series per transport —
// every transport sits behind the same progress engine, so the figures
// are directly comparable.
//
// The -coll flag sweeps the collective algorithm registry
// (internal/mpi/algorithms.go): every registered algorithm of the listed
// collectives on one np × ppn layout, one series per algorithm. -coll-alg
// restricts a collective to one forced algorithm (the same override
// cluster.Config.Tuning threads into any run).
//
// The -connect flag sweeps connection management (DESIGN.md §9): memory
// footprint and connection count versus job size for eager (the paper's
// full mesh) against lazy on-demand establishment over the SRQ-backed
// eager mode, under nearest-neighbor, ring and all-to-all traffic, plus
// the connection-setup latency ablation.
//
// The -rails flag sweeps multi-rail striping (DESIGN.md §10): the
// zero-copy design's bandwidth with N adapters per node, the eager
// rail-policy comparison, and the striping-threshold ablation.
//
// The -faults flag sweeps the fault-injection subsystem (DESIGN.md §11):
// seeded schedules of link outages and drop bursts (internal/fault)
// against fixed traffic on the resilient lazy-SRQ two-rail stack, one
// point per failure count, reporting completed traffic and mean
// connection-recovery latency.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
)

func main() {
	fig := flag.String("fig", "all", "figure id (fig4..fig15, fig3-lat, fig3-bw, baseline, headline, all, ablations)")
	list := flag.Bool("list", false, "list available figures")
	transport := flag.String("transport", "", "comma-separated transport matrix sweep (e.g. shm,ib); overrides -fig")
	sizes := flag.String("sizes", "4,1K,4K,64K,256K,1M", "message sizes for -transport and -coll sweeps (K/M suffixes)")
	coll := flag.String("coll", "", "collective algorithm sweep: comma list of "+strings.Join(mpi.Collectives(), ", ")+"; overrides -fig")
	collAlg := flag.String("coll-alg", "", "force collective algorithms for -coll sweeps, e.g. bcast=hier-leader,allgather=ring (have "+strings.Join(mpi.Algorithms(), ", ")+")")
	np := flag.Int("np", 16, "ranks for -coll sweeps")
	ppn := flag.Int("ppn", 4, "ranks per node for -coll sweeps")
	iters := flag.Int("iters", 10, "measured calls per point for -coll sweeps")
	net := flag.String("net", "flat", "network model for -coll sweeps: flat, or fattree-dD-uU (D nodes per leaf, U uplinks)")
	collOut := flag.String("coll-out", "", "with -coll: measure flat AND the contended fat tree and write the records as JSON (the BENCH_coll.json baseline)")
	collCompare := flag.String("coll-compare", "", "with -coll: measure both nets and compare against this baseline — simulated times exactly, wall clock within -coll-tolerance")
	collTolerance := flag.Float64("coll-tolerance", 1.0, "allowed wall-clock regression for -coll-compare (walls are sub-second, so generous)")
	connect := flag.String("connect", "", "connection-management sweep (comma list of eager, lazy): footprint-vs-np figures + setup-latency ablation; overrides -fig")
	nps := flag.String("nps", "", "rank counts for -connect sweeps, e.g. 8,16,32 (default 8..512)")
	rails := flag.String("rails", "", "multi-rail sweep (comma list of rail counts, e.g. 1,2,4): bandwidth-vs-rails figure + rail-policy comparison + striping-threshold ablation; overrides -fig")
	railPolicy := flag.String("rail-policy", "round-robin", "eager rail policy for -rails sweeps: round-robin, weighted or fixed")
	railsOut := flag.String("rails-out", "", "with -rails: write the bandwidth records as JSON (the BENCH_rails.json baseline)")
	railsCompare := flag.String("rails-compare", "", "with -rails: compare against this baseline — simulated bandwidth exactly, wall clock within -rails-tolerance")
	railsTolerance := flag.Float64("rails-tolerance", 0.5, "allowed wall-clock regression for -rails-compare (walls are seconds-scale, so generous)")
	faults := flag.String("faults", "", "resilience sweep (comma list of per-run failure counts, e.g. 0,2,4,8): completed traffic + recovery latency vs failure rate on the lazy SRQ rails=2 stack; overrides -fig")
	faultSeed := flag.Int64("fault-seed", 1, "schedule seed base for -faults sweeps (same seed, same schedule, same run)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-GC live memory) to this path")
	flag.Parse()

	stopProf, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		fmt.Println("baseline headline fig3-lat fig3-bw fig4 fig5 fig6 fig7 fig8 fig9 fig11 fig13 fig14 fig15 rails-bw rails-policy ablation-rail-stripe fault-recovery ablations all")
		fmt.Println("collective algorithms:", strings.Join(mpi.Algorithms(), " "))
		fmt.Println("rail policies: round-robin weighted fixed")
		return
	}

	if *faults != "" {
		counts, err := bench.ParseFaultCounts(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatFigure(bench.FaultRecovery(counts, *faultSeed)))
		return
	}

	if *rails != "" {
		counts, err := bench.ParseRails(*rails)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pol, err := rdmachan.ParseRailPolicy(*railPolicy)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rep := bench.MeasureRails(counts, pol)
		fmt.Println(bench.FormatFigure(bench.RailsFigure(rep)))
		fmt.Println(bench.FormatFigure(bench.RailPolicyFigure()))
		fmt.Println(bench.FormatFigure(bench.AblationRailStripe()))
		if code := rep.Finish(*railsOut, false, *railsCompare, *railsTolerance); code != 0 {
			os.Exit(code)
		}
		return
	}

	if *connect != "" {
		variants, err := bench.ParseConnectModes(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		npList := bench.DefaultFootprintNPs()
		if *nps != "" {
			if npList, err = bench.ParseNPs(*nps); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		for _, f := range bench.FootprintFigures(variants, npList) {
			fmt.Println(bench.FormatFigure(f))
		}
		fmt.Println(bench.FormatFigure(bench.AblationConnectSetup(variants)))
		return
	}

	if *coll != "" {
		tun, err := mpi.ParseTuning(*collAlg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sz, err := bench.ParseSizes(*sizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		known := map[string]bool{}
		for _, c := range mpi.Collectives() {
			known[c] = true
		}
		var names []string
		for _, name := range strings.Split(*coll, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !known[name] {
				fmt.Fprintf(os.Stderr, "mpich2ib-bench: unknown collective %q (have %s)\n",
					name, strings.Join(mpi.Collectives(), ", "))
				os.Exit(1)
			}
			names = append(names, name)
		}

		// Baseline modes measure flat AND the canonical contended fat tree,
		// so one record set pins both sides of the topology crossovers.
		if *collOut != "" || *collCompare != "" {
			rep, err := bench.MeasureColl(names, *np, *ppn, sz, *iters)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			for _, f := range bench.CollFigures(rep) {
				fmt.Println(bench.FormatFigure(f))
			}
			if code := rep.Finish(*collOut, false, *collCompare, *collTolerance); code != 0 {
				os.Exit(code)
			}
			return
		}

		sw, err := bench.ParseNet(*net)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, name := range names {
			f, err := bench.CollAlgSweepNet(name, *np, *ppn, sw, sz, *iters, tun)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(bench.FormatFigure(f))
		}
		return
	}

	if *transport != "" {
		specs, err := bench.ParseTransports(*transport)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sz, err := bench.ParseSizes(*sizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, f := range bench.TransportMatrix(specs, sz) {
			fmt.Println(bench.FormatFigure(f))
		}
		return
	}

	switch *fig {
	case "all":
		for _, f := range bench.MicroFigures() {
			fmt.Println(bench.FormatFigure(f))
		}
	case "ablations":
		for _, f := range bench.Ablations() {
			fmt.Println(bench.FormatFigure(f))
		}
	default:
		f, err := bench.FigureByID(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatFigure(f))
	}
}
