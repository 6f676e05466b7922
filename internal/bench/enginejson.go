// Machine-readable engine-performance records (DESIGN.md §12): the
// BENCH_engine.json emitter and its CI comparison mode. Every speed claim
// about the simulation kernel is a row here — simulated metrics that must
// reproduce exactly (event count, schedule fingerprint, simulated time,
// verification) next to harness wall-clock figures (events/sec,
// wall-clock-per-simulated-second) that a regression gate compares within
// a tolerance.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/nas"
	"repro/internal/rdmachan"
	"repro/internal/transport"
)

// EngineSchema identifies the BENCH_engine.json format.
const EngineSchema = "mpich2ib/engine-bench/v1"

// EngineRun is one measured engine execution: a NAS kernel at one rank
// count under one pending-event queue. Events, Fingerprint, SimSeconds and
// Verified are simulated results — deterministic, compared exactly.
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

	// Reported, not compared: Events by what each dispatch cost the harness,
	// the heap still live when the kernel returns (after a GC, cluster not
	// yet closed) per rank, and the progress loops' own work.
	ByKind      *des.EventCounts         `json:"events_by_kind,omitempty"`
	HeapPerRank uint64                   `json:"heap_live_bytes_per_rank,omitempty"`
	Progress    *transport.ProgressStats `json:"progress,omitempty"`
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

// EngineReport is the BENCH_engine.json document.
type EngineReport struct {
	Schema string      `json:"schema"`
	Go     string      `json:"go"`
	Runs   []EngineRun `json:"runs"`
}

// NewEngineReport starts an empty report stamped with the toolchain.
func NewEngineReport() *EngineReport {
	return &EngineReport{Schema: EngineSchema, Go: runtime.Version()}
}

// MeasureEngine runs one NAS kernel at np ranks on the scalable
// configuration under study (zero-copy transport, lazy connections, SRQ)
// with the given pending-event queue, repeats times, and returns the
// measured row. It panics if the simulated results differ between repeats:
// that is a determinism bug, and recording either value would be wrong.
func MeasureEngine(benchName string, class nas.Class, np, repeats int, kind des.QueueKind) EngineRun {
	return MeasureEngineSharded(benchName, class, np, repeats, kind, 1)
}

// MeasureEngineSharded is MeasureEngine on the sharded execution mode
// (DESIGN.md §13). shards=1 is the serial engine. The simulated metrics
// are shard-count-invariant by construction — the determinism suites prove
// fingerprint equality against serial — so a sharded row diverging from a
// serial baseline row's simulated results is a bug, not a measurement.
func MeasureEngineSharded(benchName string, class nas.Class, np, repeats int, kind des.QueueKind, shards int) EngineRun {
	if repeats < 1 {
		repeats = 1
	}
	if shards < 1 {
		shards = 1
	}
	run := EngineRun{
		Bench: benchName, Class: string(class), NP: np,
		Queue: kind.String(), Shards: shards, Repeats: repeats,
	}
	for i := 0; i < repeats; i++ {
		kinds, prog, heap, fp, sim, wall, setup, verified := measureEngineOnce(benchName, class, np, kind, shards)
		events := kinds.Total()
		if i == 0 {
			run.ByKind, run.Progress, run.HeapPerRank = &kinds, &prog, heap
			run.Events, run.Fingerprint, run.SimSeconds, run.Verified = events, fp, sim, verified
			run.WallSeconds, run.SetupSeconds = wall, setup
			continue
		}
		if events != run.Events || fp != run.Fingerprint || sim != run.SimSeconds || verified != run.Verified {
			panic(fmt.Sprintf("bench: %s repeat %d diverged from repeat 0: events %d vs %d, fp %s vs %s",
				run.key(), i, events, run.Events, fp, run.Fingerprint))
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
func measureEngineOnce(benchName string, class nas.Class, np int, kind des.QueueKind, shards int) (
	events des.EventCounts, prog transport.ProgressStats, heapPerRank uint64, fp string, simSec, wallSec, setupSec float64, verified bool) {
	setupStart := time.Now()
	c := cluster.MustNew(cluster.Config{
		NP:          np,
		Transport:   cluster.TransportZeroCopy,
		ConnectMode: cluster.ConnectLazy,
		Chan:        rdmachan.Config{UseSRQ: true},
		EngineQueue: kind,
		Shards:      shards,
	})
	setupSec = time.Since(setupStart).Seconds()
	defer c.Close()
	c.Eng.EnableTrace()
	ev0, sim0 := c.Eng.EventCounts(), c.Now()
	start := time.Now()
	res := nas.RunOn(c, benchName, class)
	wallSec = time.Since(start).Seconds()
	events, prog = c.Eng.EventCounts().Sub(ev0), c.ProgressStats()
	simSec = (c.Now() - sim0).Seconds()
	fp = fmt.Sprintf("%016x", c.Eng.TraceFingerprint())
	verified = res.Verified
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapPerRank = ms.HeapAlloc / uint64(np)
	return
}

// WriteEngineReport writes the report as indented JSON, newline-terminated
// so the committed baseline diffs cleanly.
func WriteEngineReport(path string, rep *EngineReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadEngineReport loads a report and checks its schema tag.
func ReadEngineReport(path string) (*EngineReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &EngineReport{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != EngineSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, EngineSchema)
	}
	return rep, nil
}

// MergeEngineReports overlays update onto base: rows sharing a key are
// replaced by update's measurement, new keys append in measurement order,
// and base rows the update did not re-measure survive. This is how the
// committed baseline is regenerated piecemeal — the np=4096 row takes
// ~17 minutes, so re-measuring the cheap rows must not force re-measuring
// it (and vice versa).
func MergeEngineReports(base, update *EngineReport) *EngineReport {
	merged := &EngineReport{Schema: EngineSchema, Go: update.Go}
	replaced := make(map[string]EngineRun, len(update.Runs))
	for _, r := range update.Runs {
		replaced[r.key()] = r
	}
	for _, r := range base.Runs {
		if u, ok := replaced[r.key()]; ok {
			r = u
			delete(replaced, r.key())
		}
		merged.Runs = append(merged.Runs, r)
	}
	for _, r := range update.Runs {
		if _, stillNew := replaced[r.key()]; stillNew {
			merged.Runs = append(merged.Runs, r)
		}
	}
	return merged
}

// CompareEngineReports checks current against a committed baseline: for
// every baseline row that current also measured, the simulated metrics
// must match exactly (a mismatch means the simulation changed, which is
// never a mere performance regression), and wall-clock-per-simulated-
// second may not regress by more than tol (0.15 = 15%). Getting faster is
// not an error. Baseline rows current did not measure are skipped — the
// CI smoke compares a subset of the committed matrix — but every measured
// row MUST exist in the baseline: a new np/queue/shards combination that
// nothing has vetted is a gate failure, reported with the full measured
// row so the maintainer can regenerate the baseline deliberately. Returns
// one error per violated row.
func CompareEngineReports(baseline, current *EngineReport, tol float64) []error {
	base := make(map[string]EngineRun, len(baseline.Runs))
	for _, r := range baseline.Runs {
		base[r.key()] = r
	}
	var errs []error
	matched := 0
	for _, cur := range current.Runs {
		b, ok := base[cur.key()]
		if !ok {
			errs = append(errs, fmt.Errorf(
				"%s: row missing from baseline — measured events=%d fp=%s sim=%gs verified=%v; "+
					"regenerate the baseline with `enginebench -out -merge` to admit it",
				cur.key(), cur.Events, cur.Fingerprint, cur.SimSeconds, cur.Verified))
			continue
		}
		matched++
		if cur.Events != b.Events || cur.Fingerprint != b.Fingerprint ||
			cur.SimSeconds != b.SimSeconds || cur.Verified != b.Verified {
			errs = append(errs, fmt.Errorf(
				"%s: simulated results diverge from baseline:\n"+
					"  events   %d, baseline %d\n"+
					"  fp       %s, baseline %s\n"+
					"  sim      %gs, baseline %gs\n"+
					"  verified %v, baseline %v",
				cur.key(), cur.Events, b.Events, cur.Fingerprint, b.Fingerprint,
				cur.SimSeconds, b.SimSeconds, cur.Verified, b.Verified))
		}
		if b.WallPerSimSec > 0 && cur.WallPerSimSec > b.WallPerSimSec*(1+tol) {
			errs = append(errs, fmt.Errorf(
				"%s: wall-clock per simulated second regressed %.1f%% (%.1f vs baseline %.1f, tolerance %.0f%%)",
				cur.key(), 100*(cur.WallPerSimSec/b.WallPerSimSec-1),
				cur.WallPerSimSec, b.WallPerSimSec, 100*tol))
		}
	}
	if matched == 0 && len(current.Runs) > 0 {
		errs = append(errs, fmt.Errorf("no current run matches any baseline row"))
	}
	return errs
}
