// Machine-readable engine-performance records (DESIGN.md §12): the rows of
// BENCH_engine.json. Every speed claim about the simulation kernel is a row
// here — simulated metrics that must reproduce exactly (event count,
// schedule fingerprint, simulated time, verification) next to harness
// wall-clock figures (events/sec, wall-clock-per-simulated-second) that the
// regression gate (report.go) compares within a tolerance.
package bench

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/nas"
	"repro/internal/rdmachan"
	"repro/internal/transport"
)

// EngineRun is one measured engine execution: a NAS kernel at one rank
// count and shard count. Queue is a legacy row key, not the structure: it
// is always "calendar", the name of a pending-event queue the engine no
// longer has (it holds one event heap), and stays because readers of the
// committed file select rows by it. Events, Fingerprint, SimSeconds and
// Verified are simulated results — deterministic, compared exactly, as are
// the harness's own deterministic counts, ByKind and Progress.
// WallSeconds and the two derived rates are harness measurements —
// machine-dependent, compared within a tolerance. With Repeats > 1 the
// wall figures are the fastest of the repeats (the least-noise estimator);
// the simulated figures are checked identical across every repeat first.
type EngineRun struct {
	Bench  string `json:"bench"`
	Class  string `json:"class"`
	NP     int    `json:"np"`
	Queue  string `json:"queue"`
	Shards int    `json:"shards,omitempty"` // 0/absent = serial (pre-shard rows)

	Events      uint64  `json:"events"`
	Fingerprint string  `json:"fingerprint"`
	SimSeconds  float64 `json:"simulated_sec"`
	Verified    bool    `json:"verified"`

	WallSeconds   float64 `json:"wall_sec"`
	SetupSeconds  float64 `json:"setup_sec,omitempty"` // cluster construction wall, outside WallSeconds
	EventsPerSec  float64 `json:"events_per_sec"`
	WallPerSimSec float64 `json:"wall_per_simulated_sec"`
	Repeats       int     `json:"repeats"`

	// Compared exactly: Events by what each dispatch cost the harness, the
	// sleeps that began right after a sleep with nothing scheduled between
	// (des.Engine.BackToBackSleeps: charges a fold could still merge), and
	// the progress loops' own work. Compared within heapTolerance: the heap
	// still live when the kernel returns (after a GC, cluster not yet
	// closed) per rank. Reported, not compared: the switches by the site
	// the resumed process paused at.
	ByKind       *des.EventCounts         `json:"events_by_kind,omitempty"`
	SwitchBySite map[string]uint64        `json:"switch_by_site,omitempty"`
	BackToBack   uint64                   `json:"back_to_back_sleeps,omitempty"`
	HeapPerRank  uint64                   `json:"heap_live_bytes_per_rank,omitempty"`
	Progress     *transport.ProgressStats `json:"progress,omitempty"`

	// Printed, never recorded: a sharded run's window machinery, the first
	// repeat's. Parks depend on the host.
	Windows des.WindowStats `json:"-"`
}

// key identifies a run for baseline matching. Serial rows written before
// the sharded engine carry no shards field; they alias shards=1.
func (r EngineRun) key() string {
	s := r.Shards
	if s < 1 {
		s = 1
	}
	return fmt.Sprintf("%s.%s/np=%d/%s/shards=%d", r.Bench, r.Class, r.NP, r.Queue, s)
}

// scope is the row itself: the CI smokes measure part of the matrix.
func (r EngineRun) scope() string { return r.key() }

func (EngineRun) schema() string { return "mpich2ib/engine-bench/v1" }

// heapTolerance is how far a row's live heap per rank may sit from the
// baseline's, relative to it. Ten runs of each rank count spread by 0.63 %
// (np=64), 0.13 % (np=256) and 0.03 % (np=1024); a +5 % heap fails.
const heapTolerance = 0.02

func (r EngineRun) diff(b EngineRun) []Delta {
	var ds []Delta
	host := false
	add := func(name string, cur, base any) {
		if cur != base {
			ds = append(ds, Delta{name, fmt.Sprintf("%-8s %v, baseline %v", name, cur, base), host})
		}
	}
	add("events", r.Events, b.Events)
	add("fp", r.Fingerprint, b.Fingerprint)
	add("sim", r.SimSeconds, b.SimSeconds)
	add("verified", r.Verified, b.Verified)
	host = true // the harness's own counts from here on
	diffFields(add, "events_by_kind", r.ByKind, b.ByKind)
	add("back_to_back_sleeps", r.BackToBack, b.BackToBack)
	diffFields(add, "progress", r.Progress, b.Progress)
	if cur, base := float64(r.HeapPerRank), float64(b.HeapPerRank); math.Abs(cur-base) > heapTolerance*base {
		ds = append(ds, Delta{"heap", fmt.Sprintf("%-8s %d B/rank, baseline %d (±%.0f %%)",
			"heap", r.HeapPerRank, b.HeapPerRank, 100*heapTolerance), true})
	}
	return ds
}

// diffFields compares two pointers to structs of counters field by field
// through add, naming each field group.json_key; a nil pointer reads as all
// zeros.
func diffFields[T any](add func(name string, cur, base any), group string, cur, base *T) {
	var zero T
	if cur == nil {
		cur = &zero
	}
	if base == nil {
		base = &zero
	}
	c, b := reflect.ValueOf(cur).Elem(), reflect.ValueOf(base).Elem()
	for i := 0; i < c.NumField(); i++ {
		key, _, _ := strings.Cut(c.Type().Field(i).Tag.Get("json"), ",")
		add(group+"."+key, c.Field(i).Interface(), b.Field(i).Interface())
	}
}

func (r EngineRun) wall() (float64, string) {
	return r.WallPerSimSec, "wall-clock per simulated second"
}

// MeasureEngine runs one NAS kernel at np ranks on the scalable
// configuration under study (zero-copy transport, lazy connections, SRQ),
// repeats times, and returns the measured row. shards > 1 is the sharded
// execution mode (DESIGN.md §13); the simulated metrics are
// shard-count-invariant by construction — the determinism suites prove
// fingerprint equality against serial — so a sharded row diverging from a
// serial baseline row's simulated results is a bug, not a measurement. It
// panics if the simulated results or the compared counts differ between
// repeats: that is a determinism bug, and recording either value would be
// wrong.
func MeasureEngine(benchName string, class nas.Class, np, repeats, shards int) EngineRun {
	repeats, shards = max(repeats, 1), max(shards, 1)
	run := measureEngineOnce(benchName, class, np, shards)
	for i := 1; i < repeats; i++ {
		r := measureEngineOnce(benchName, class, np, shards)
		if ds := Deltas(r.diff(run)); len(ds) > 0 {
			panic(fmt.Sprintf("bench: %s repeat %d diverged from repeat 0:%v", run.key(), i, ds))
		}
		run.WallSeconds, run.SetupSeconds = min(run.WallSeconds, r.WallSeconds), min(run.SetupSeconds, r.SetupSeconds)
	}
	run.Repeats = repeats
	if run.WallSeconds > 0 {
		run.EventsPerSec = float64(run.Events) / run.WallSeconds
	}
	if run.SimSeconds > 0 {
		run.WallPerSimSec = run.WallSeconds / run.SimSeconds
	}
	return run
}

// measureEngineOnce executes one run. The wall clock covers the benchmark
// execution only (the engine's dispatch loop under load); the event count
// is the delta across it, so cluster construction cost does not dilute the
// events/sec figure. Construction is timed separately into SetupSeconds —
// the other scalability axis (the satellite on cluster-construction cost).
func measureEngineOnce(benchName string, class nas.Class, np, shards int) EngineRun {
	run := EngineRun{Bench: benchName, Class: string(class), NP: np, Queue: "calendar", Shards: shards}
	setupStart := time.Now()
	c := cluster.MustNew(cluster.Config{
		NP:          np,
		Transport:   cluster.TransportZeroCopy,
		ConnectMode: cluster.ConnectLazy,
		Chan:        rdmachan.Config{UseSRQ: true},
		Shards:      shards,
	})
	run.SetupSeconds = time.Since(setupStart).Seconds()
	defer c.Close()
	c.Eng.EnableTrace()
	ev0, sites0, win0, sim0 := c.Eng.EventCounts(), c.Eng.SwitchesBySite(), c.Eng.WindowStats(), c.Now()
	b2b0 := c.Eng.BackToBackSleeps()
	start := time.Now()
	res := nas.RunOn(c, benchName, class)
	run.WallSeconds = time.Since(start).Seconds()
	kinds, prog := c.Eng.EventCounts().Sub(ev0), c.ProgressStats()
	run.ByKind, run.Progress, run.Events, run.Windows = &kinds, &prog, kinds.Total(), c.Eng.WindowStats().Sub(win0)
	run.BackToBack = c.Eng.BackToBackSleeps() - b2b0
	run.SwitchBySite = make(map[string]uint64)
	for s, n := range c.Eng.SwitchesBySite() {
		run.SwitchBySite[des.Site(s).String()] = n - sites0[s]
	}
	run.SimSeconds = (c.Now() - sim0).Seconds()
	run.Fingerprint = fmt.Sprintf("%016x", c.Eng.TraceFingerprint())
	run.Verified = res.Verified
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	run.HeapPerRank = ms.HeapAlloc / uint64(np)
	return run
}

// ParseInts resolves a comma-separated list of integers in lo..hi; what
// names an entry in the errors.
func ParseInts(list, what string, lo, hi int) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n < lo || n > hi {
			return nil, fmt.Errorf("bench: bad %s %q", what, tok)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: empty %s list", what)
	}
	return out, nil
}

// ParseNPs resolves a comma-separated rank-count list ("8,16,32").
func ParseNPs(list string) ([]int, error) {
	return ParseInts(list, "rank count", 2, math.MaxInt)
}
