// Command mpibench is the repository's benchmark: seven workloads over the
// simulated MPICH2-over-InfiniBand stack, measured on two clocks — the
// simulated time of the modelled 2004 testbed and the host time the
// simulator costs — with a layer ladder that reproduces the paper's
// 5.9 µs verbs → 7.6 µs MPI decomposition. See README.md.
//
// The driver's protocol (one workload per invocation):
//
//	mpibench --workload NAME --seed N --seconds S --trace 0|1
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1.
//
// For people:
//
//	mpibench -suite -out a.json          # every workload, both passes, one process
//	mpibench -compare a.json b.json      # A/A or A/B comparison under each metric's bound
//	mpibench -quick -workload smp_shm    # 1 rep, iterations ÷ 10; never recorded
//	mpibench -print-spec                 # BENCHMARK.json from the tables in spec.go
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// hardDeadline is how long one invocation of the driver's protocol may
// take before the watchdog ends it; the contract allows 180 s.
const hardDeadline = 170 * time.Second

// phase is what the watchdog reports as the place the run was stuck in.
var phase atomic.Value

func setPhase(format string, args ...any) { phase.Store(fmt.Sprintf(format, args...)) }

// watchdog ends the process with exit code 3 once d has passed without a
// Reset: a hung simulation must not outlive its time slot. The runtime's
// timer is all it needs; the benchmark starts no goroutine it does not
// wait for.
func watchdog(d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "mpibench: watchdog: still in %q after %v, giving up\n", phase.Load(), d)
		os.Exit(3)
	})
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds   = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass")
		root      = flag.String("root", ".", "repository root (for BENCH_engine.json and benchmark/out)")
		quick     = flag.Bool("quick", false, "1 rep, iterations ÷ 10; for iterating on the benchmark, never recorded")
		suite     = flag.Bool("suite", false, "run every workload, both passes, in this one process")
		out       = flag.String("out", "", "with -suite: write the results as JSON to this path")
		compare   = flag.Bool("compare", false, "compare two -suite result files: mpibench -compare a.json b.json")
		printSpec = flag.Bool("print-spec", false, "print BENCHMARK.json as the tables in spec.go define it")
		list      = flag.Bool("list", false, "list workloads and metrics")
	)
	flag.Parse()

	setPhase("start")

	switch {
	case *printSpec:
		os.Stdout.Write(marshalSpec())
		return 0
	case *list:
		printList()
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: mpibench -compare a.json b.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case *suite:
		return runSuite(watchdog(hardDeadline), env{root: *root, quick: *quick}, *seed, *seconds, *out)
	}

	if *name == "" {
		fmt.Fprintln(os.Stderr, "mpibench: -workload is required (or -suite, -compare, -print-spec, -list)")
		return 2
	}
	watchdog(hardDeadline)
	res, err := runWorkload(env{root: *root, quick: *quick}, *name, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpibench:", err)
		return 2
	}
	res.print(os.Stderr)
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpibench:", err)
		return 2
	}
	fmt.Println(string(line))
	return 0
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-18s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics:")
	for _, m := range endToEnd {
		fmt.Printf("  %-40s %-9s better=%-6s bound=%g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Println("per-layer metrics:")
	for _, m := range perLayer {
		fmt.Printf("  %-40s %-9s better=%s\n", m.Name, m.Unit, m.Better)
	}
}
