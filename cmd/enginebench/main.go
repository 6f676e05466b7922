// Command enginebench measures the DES kernel's speed under real MPI load
// and maintains the committed BENCH_engine.json baseline (DESIGN.md §12).
// Each row runs a NAS kernel on the scalable stack (zero-copy transport,
// lazy connections, SRQ) and records the simulated results exactly —
// event count, schedule fingerprint, simulated time, verification — next
// to the harness wall-clock rates (events/sec, wall-clock-per-simulated-
// second).
//
// Usage:
//
//	enginebench -np 64,256,1024 -repeat 3 -out BENCH_engine.json   # cheap rows
//	enginebench -np 4096 -out BENCH_engine.json -merge     # one row, the rest kept
//	enginebench -np 256 -compare BENCH_engine.json         # CI regression gate
//	enginebench -np 1024 -repeat 3                         # fastest of 3 walls
//	enginebench -np 1024 -shards 4                         # sharded engine (§13)
//	enginebench -np 1024 -shards 1,4 -out BENCH_engine.json -merge # both rows
//	enginebench -np 1024 -cpuprofile cpu.prof              # profile the run
//
// In comparison mode the simulated metrics and the harness's own counts
// (events by kind, back-to-back sleeps, progress) must match the baseline
// exactly — a mismatch means the simulation changed, which is never a mere
// performance regression — the live heap per rank must stay within 2 % of
// it, and wall-clock-per-simulated-second may not regress beyond
// -tolerance. A measured row missing from the baseline also fails: new
// np/shards combinations are admitted deliberately with -out -merge, never
// silently; an -out over a file prints a census of what moved. Exits
// non-zero on any violation.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/debug"

	"repro/internal/bench"
	"repro/internal/des"
	"repro/internal/nas"
)

// gcPercent is the GC percent of every measurement, the committed walls'
// setting: a wide cluster's heap is mostly live, so the default collector
// cadence mostly re-marks it.
const gcPercent = 300

func main() {
	os.Exit(run())
}

func run() int {
	nps := flag.String("np", "1024", "comma-separated rank counts to measure")
	benchName := flag.String("bench", "cg", "NAS kernel to drive the engine with")
	class := flag.String("class", "S", "problem class: S, A or B")
	shardsFlag := flag.String("shards", "1", "comma-separated shard counts; >1 runs the sharded engine (DESIGN.md §13)")
	repeat := flag.Int("repeat", 1, "runs per row; the fastest wall clock is recorded")
	out := flag.String("out", "", "write the report as JSON to this path")
	merge := flag.Bool("merge", false, "with -out: update rows in an existing report instead of replacing the file (regenerate one np without re-running the rest)")
	compare := flag.String("compare", "", "compare against this baseline report instead of just printing")
	tolerance := flag.Float64("tolerance", 0.15, "allowed wall-clock-per-simulated-second regression for -compare")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path")
	flag.Parse()

	debug.SetGCPercent(gcPercent)

	stop, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stop()

	cl, err := nas.ParseClass(*class)
	if err != nil {
		fmt.Fprintln(os.Stderr, "enginebench: -class:", err)
		return 2
	}

	shardCounts, err := bench.ParseInts(*shardsFlag, "shard count", 1, math.MaxInt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "enginebench: -shards:", err)
		return 2
	}
	npList, err := bench.ParseNPs(*nps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "enginebench: -np:", err)
		return 2
	}

	rep := bench.NewReport[bench.EngineRun]()
	for _, np := range npList {
		for _, shards := range shardCounts {
			r := bench.MeasureEngine(*benchName, cl, np, *repeat, shards)
			rep.Runs = append(rep.Runs, r)
			fmt.Printf("%s.%s np=%d shards=%d: events=%d fp=%s sim=%.6fs wall=%.2fs setup=%.2fs ev/s=%.0f wall/simsec=%.1f verified=%v\n",
				r.Bench, r.Class, r.NP, r.Shards, r.Events, r.Fingerprint,
				r.SimSeconds, r.WallSeconds, r.SetupSeconds, r.EventsPerSec, r.WallPerSimSec, r.Verified)
			k := r.ByKind
			fmt.Printf("  by kind: self-wake=%d switch=%d task-step=%d func=%d stale=%d (cut-off chain wakes, not counted: %d); live heap %d B/rank\n",
				k.SelfWake, k.Switch, k.TaskStep, k.Func, k.Stale, k.CutOff, r.HeapPerRank)
			fmt.Printf("  switch by site:")
			for s := des.Site(0); s < des.NumSites; s++ {
				fmt.Printf(" %s=%d", s, r.SwitchBySite[s.String()])
			}
			fmt.Printf("; back-to-back sleeps=%d\n", r.BackToBack)
			fmt.Printf("  progress: passes=%d endpoint-polls=%d (%d moved something) idle-asks=%d wakes=%d (%d empty)",
				r.Progress.Passes, r.Progress.Polls, r.Progress.PollHits, r.Progress.IdleAsks,
				r.Progress.Wakes, r.Progress.EmptyWakes)
			if w := r.Windows; r.Shards > 1 {
				fmt.Printf("; windows=%d fused=%d workers=%d parks=%d", w.Windows, w.Fused, w.Workers, w.Parks)
			}
			fmt.Println()
		}
	}
	return rep.Finish(*out, *merge, *compare, *tolerance)
}
