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

	// Compared exactly: Events by what each dispatch cost the harness, and
	// the progress loops' own work. Reported, not compared: the switches by
	// the site the resumed process paused at, and the heap still live when
	// the kernel returns (after a GC, cluster not yet closed) per rank.
	ByKind       *des.EventCounts         `json:"events_by_kind,omitempty"`
	SwitchBySite map[string]uint64        `json:"switch_by_site,omitempty"`
	HeapPerRank  uint64                   `json:"heap_live_bytes_per_rank,omitempty"`
	Progress     *transport.ProgressStats `json:"progress,omitempty"`
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

func (EngineRun) schema() string { return "mpich2ib/engine-bench/v1" }

func (r EngineRun) diff(b EngineRun) []string {
	var lines []string
	add := func(name string, cur, base any) {
		if cur != base {
			lines = append(lines, fmt.Sprintf("%-8s %v, baseline %v", name, cur, base))
		}
	}
	add("events", r.Events, b.Events)
	add("fp", r.Fingerprint, b.Fingerprint)
	add("sim", r.SimSeconds, b.SimSeconds)
	add("verified", r.Verified, b.Verified)
	diffFields(add, "events_by_kind", r.ByKind, b.ByKind)
	diffFields(add, "progress", r.Progress, b.Progress)
	return lines
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
	if repeats < 1 {
		repeats = 1
	}
	if shards < 1 {
		shards = 1
	}
	run := EngineRun{
		Bench: benchName, Class: string(class), NP: np,
		Queue: "calendar", Shards: shards, Repeats: repeats,
	}
	for i := 0; i < repeats; i++ {
		kinds, sites, prog, heap, fp, sim, wall, setup, verified := measureEngineOnce(benchName, class, np, shards)
		events := kinds.Total()
		if i == 0 {
			run.ByKind, run.Progress, run.HeapPerRank = &kinds, &prog, heap
			run.SwitchBySite = make(map[string]uint64, len(sites))
			for s, n := range sites {
				run.SwitchBySite[des.Site(s).String()] = n
			}
			run.Events, run.Fingerprint, run.SimSeconds, run.Verified = events, fp, sim, verified
			run.WallSeconds, run.SetupSeconds = wall, setup
			continue
		}
		if events != run.Events || fp != run.Fingerprint || sim != run.SimSeconds || verified != run.Verified ||
			kinds != *run.ByKind || prog != *run.Progress {
			panic(fmt.Sprintf("bench: %s repeat %d diverged from repeat 0: events %d vs %d, fp %s vs %s, by kind %+v vs %+v, progress %+v vs %+v",
				run.key(), i, events, run.Events, fp, run.Fingerprint, kinds, *run.ByKind, prog, *run.Progress))
		}
		if wall < run.WallSeconds {
			run.WallSeconds = wall
		}
		if setup < run.SetupSeconds {
			run.SetupSeconds = setup
		}
	}
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
// events/sec figure. Construction is timed separately into setupSec — the
// other scalability axis (the satellite on cluster-construction cost).
func measureEngineOnce(benchName string, class nas.Class, np, shards int) (
	events des.EventCounts, sites des.SiteCounts, prog transport.ProgressStats, heapPerRank uint64,
	fp string, simSec, wallSec, setupSec float64, verified bool) {
	setupStart := time.Now()
	c := cluster.MustNew(cluster.Config{
		NP:          np,
		Transport:   cluster.TransportZeroCopy,
		ConnectMode: cluster.ConnectLazy,
		Chan:        rdmachan.Config{UseSRQ: true},
		Shards:      shards,
	})
	setupSec = time.Since(setupStart).Seconds()
	defer c.Close()
	c.Eng.EnableTrace()
	ev0, sites0, sim0 := c.Eng.EventCounts(), c.Eng.SwitchesBySite(), c.Now()
	start := time.Now()
	res := nas.RunOn(c, benchName, class)
	wallSec = time.Since(start).Seconds()
	events, prog = c.Eng.EventCounts().Sub(ev0), c.ProgressStats()
	sites = c.Eng.SwitchesBySite()
	for s := range sites {
		sites[s] -= sites0[s]
	}
	simSec = (c.Now() - sim0).Seconds()
	fp = fmt.Sprintf("%016x", c.Eng.TraceFingerprint())
	verified = res.Verified
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapPerRank = ms.HeapAlloc / uint64(np)
	return
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
