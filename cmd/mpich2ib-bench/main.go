// Command mpich2ib-bench regenerates the paper's figures (Figures 4–17),
// the design-choice ablations, and transport-matrix sweeps over the
// simulated testbed.
//
// Usage:
//
//	mpich2ib-bench -fig all                    # every figure (class B fig17 is most of the run)
//	mpich2ib-bench -fig fig11                  # one figure
//	mpich2ib-bench -fig ablations              # the ablation suite
//	mpich2ib-bench -list                       # available figure ids
//	mpich2ib-bench -transport shm,ib           # latency+bandwidth matrix
//	mpich2ib-bench -transport shm,ib -sizes 4K,64K
//	mpich2ib-bench -coll bcast,reduce -np 16 -ppn 4     # algorithm sweep
//	mpich2ib-bench -coll bcast -coll-alg bcast=binomial # one algorithm
//	mpich2ib-bench -coll allreduce -net flat,fattree-d4-u1  # flat and contended fat tree
//	mpich2ib-bench -connect eager,lazy                  # footprint vs np
//	mpich2ib-bench -connect lazy -nps 8,64,512          # chosen job sizes
//	mpich2ib-bench -rails 1,2,4                         # bandwidth vs rails
//	mpich2ib-bench -rails 1,2 -rail-policy weighted     # chosen eager policy
//	mpich2ib-bench -faults 0,2,4,8                      # resilience sweep
//	mpich2ib-bench -faults 4 -fault-seed 7              # one seeded schedule
//
// Every mode prints its figures and can keep them as a baseline: -out
// writes one row per printed series (bench.Curve, keyed figure id / series
// name) and -compare gates the printed series against such a file, every
// point exactly. The committed baselines and their gates:
//
//	mpich2ib-bench -fig all -compare BENCH_paper.json
//	mpich2ib-bench -rails 1,2,4 -compare BENCH_rails.json
//	mpich2ib-bench -coll allreduce,alltoall,allgather -np 16 -ppn 1 -iters 5 \
//	    -sizes 256,1K,4K,16K,64K -net flat,fattree-d4-u1 -compare BENCH_coll.json
//
// (the same commands with -out regenerate them).
//
// The -transport flag sweeps any subset of the unified stack's transports
// (basic, piggyback, pipeline, zerocopy/ib, ch3, shm, shm-rndv) on the
// same latency and bandwidth microbenchmarks, one series per transport —
// every transport sits behind the same progress engine, so the figures
// are directly comparable.
//
// The -coll flag sweeps the collective algorithm registry
// (internal/mpi/algorithms.go): every registered algorithm of the listed
// collectives on one np × ppn layout and each listed net, one series per
// algorithm. -coll-alg restricts a collective to one forced algorithm (the
// same override cluster.Config.Tuning threads into any run).
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

var (
	fig        = flag.String("fig", "all", "figure id (see -list), all, or ablations")
	list       = flag.Bool("list", false, "list available figures")
	transport  = flag.String("transport", "", "comma-separated transport matrix sweep (e.g. shm,ib); overrides -fig")
	sizes      = flag.String("sizes", "4,1K,4K,64K,256K,1M", "message sizes for -transport and -coll sweeps (K/M suffixes)")
	coll       = flag.String("coll", "", "collective algorithm sweep: comma list of "+strings.Join(mpi.Collectives(), ", ")+"; overrides -fig")
	collAlg    = flag.String("coll-alg", "", "force collective algorithms for -coll sweeps, e.g. bcast=hier-leader,allgather=ring (have "+strings.Join(mpi.Algorithms(), ", ")+")")
	np         = flag.Int("np", 16, "ranks for -coll sweeps")
	ppn        = flag.Int("ppn", 4, "ranks per node for -coll sweeps")
	iters      = flag.Int("iters", 10, "measured calls per point for -coll sweeps")
	net        = flag.String("net", "flat", "network models for -coll sweeps, a comma list of flat and fattree-dD-uU (D nodes per leaf, U uplinks)")
	connect    = flag.String("connect", "", "connection-management sweep (comma list of eager, lazy): footprint-vs-np figures + setup-latency ablation; overrides -fig")
	nps        = flag.String("nps", "", "rank counts for -connect sweeps, e.g. 8,16,32 (default 8..512)")
	rails      = flag.String("rails", "", "multi-rail sweep (comma list of rail counts, e.g. 1,2,4): bandwidth-vs-rails figure + rail-policy comparison + striping-threshold ablation; overrides -fig")
	railPolicy = flag.String("rail-policy", "round-robin", "eager rail policy for -rails sweeps: round-robin, weighted or fixed")
	faults     = flag.String("faults", "", "resilience sweep (comma list of per-run failure counts, e.g. 0,2,4,8): completed traffic + recovery latency vs failure rate on the lazy SRQ rails=2 stack; overrides -fig")
	faultSeed  = flag.Int64("fault-seed", 1, "schedule seed base for -faults sweeps (same seed, same schedule, same run)")
	out        = flag.String("out", "", "write the printed figures as JSON, one row per series (a BENCH_*.json baseline)")
	compare    = flag.String("compare", "", "compare the printed figures against this baseline, every point exactly")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	memprofile = flag.String("memprofile", "", "write a heap profile (post-GC live memory) to this path")
)

func main() {
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(bench.FigureIDs(), " "), "ablations all")
		fmt.Println("collective algorithms:", strings.Join(mpi.Algorithms(), " "))
		fmt.Println("rail policies: round-robin weighted fixed")
		return
	}
	stopProf, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	figs, err := figures()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, f := range figs {
		fmt.Println(bench.FormatFigure(f))
	}
	stopProf()
	os.Exit(bench.Curves(figs...).Finish(*out, false, *compare, 0))
}

// figures runs the mode the flags select and returns what it measured.
func figures() ([]bench.Figure, error) {
	switch {
	case *faults != "":
		counts, err := bench.ParseFaultCounts(*faults)
		if err != nil {
			return nil, err
		}
		return []bench.Figure{bench.FaultRecovery(counts, *faultSeed)}, nil

	case *rails != "":
		counts, err := bench.ParseRails(*rails)
		if err != nil {
			return nil, err
		}
		pol, err := rdmachan.ParseRailPolicy(*railPolicy)
		if err != nil {
			return nil, err
		}
		return []bench.Figure{bench.RailBandwidth(counts, pol), bench.RailPolicyFigure(), bench.AblationRailStripe()}, nil

	case *connect != "":
		variants, err := bench.ParseConnectModes(*connect)
		if err != nil {
			return nil, err
		}
		npList := bench.DefaultFootprintNPs()
		if *nps != "" {
			if npList, err = bench.ParseNPs(*nps); err != nil {
				return nil, err
			}
		}
		return append(bench.FootprintFigures(variants, npList), bench.AblationConnectSetup(variants)), nil

	case *coll != "":
		tun, err := mpi.ParseTuning(*collAlg)
		if err != nil {
			return nil, err
		}
		sz, err := bench.ParseSizes(*sizes)
		if err != nil {
			return nil, err
		}
		nets, err := bench.ParseNets(*net)
		if err != nil {
			return nil, err
		}
		var figs []bench.Figure
		for _, sw := range nets {
			for _, name := range strings.Split(*coll, ",") {
				if name = strings.TrimSpace(name); name == "" {
					continue
				}
				f, err := bench.CollAlgSweep(name, *np, *ppn, sw, sz, *iters, tun)
				if err != nil {
					return nil, err
				}
				figs = append(figs, f)
			}
		}
		return figs, nil

	case *transport != "":
		specs, err := bench.ParseTransports(*transport)
		if err != nil {
			return nil, err
		}
		sz, err := bench.ParseSizes(*sizes)
		if err != nil {
			return nil, err
		}
		return bench.TransportMatrix(specs, sz), nil

	case *fig == "all":
		return bench.AllFigures(), nil
	case *fig == "ablations":
		return bench.Ablations(), nil
	}
	f, err := bench.FigureByID(*fig)
	return []bench.Figure{f}, err
}
