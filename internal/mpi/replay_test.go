package mpi_test

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/scenario"
)

// replayTrace is everything two runs of the same seeded chaos schedule
// must agree on, bit for bit: the final simulated clock, the engine's
// event-stream fingerprint, the dispatched-event count, and a checksum of
// every rank's payload.
type replayTrace struct {
	finalTime des.Time
	fp        uint64
	events    uint64
	payload   uint64
	faults    cluster.FaultStats
}

// replayRun executes one seeded chaos run of cfg, with engine tracing on:
// a patterned ring shift large enough to drive the rendezvous/striping
// path, followed by an allreduce, under cfg.Fault (nil runs fault-free).
func replayRun(t *testing.T, cfg cluster.Config) replayTrace {
	t.Helper()
	c := cluster.MustNew(cfg)
	defer c.Close()
	c.Eng.EnableTrace()

	const size = 64 << 10 // past the zero-copy threshold: chunks and stripes
	sums := make([]uint64, cfg.NP)
	c.Launch(func(comm *mpi.Comm) {
		np, me := comm.Size(), comm.Rank()
		sbuf, sb := comm.Alloc(size)
		rbuf, rb := comm.Alloc(size)
		for i := range sb {
			sb[i] = byte(me + i*13)
		}
		for iter := 0; iter < 3; iter++ {
			comm.Sendrecv2(sbuf, (me+1)%np, rbuf, (me+np-1)%np, 42)
			copy(sb, rb)
		}
		acc, ab := comm.Alloc(8)
		out, ob := comm.Alloc(8)
		mpi.PutInt64(ab, 0, int64(fnv64(rb)&0x7FFFFFFF))
		comm.Allreduce(acc, out, mpi.Int64, mpi.Max)
		sums[me] = fnv64(rb) ^ uint64(mpi.GetInt64(ob, 0))
	})

	tr := replayTrace{finalTime: c.Now(), fp: c.Eng.TraceFingerprint(),
		events: c.Eng.EventsExecuted(), faults: c.FaultStats()}
	for _, s := range sums {
		tr.payload = tr.payload*1099511628211 ^ s
	}
	return tr
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestReplayDistinctSeedsDiverge guards the witness itself: if two
// different chaos schedules produce identical event fingerprints, the
// fingerprint is not actually observing the fault machinery.
func TestReplayDistinctSeedsDiverge(t *testing.T) {
	cfg := scenario.Layout("flat-np4").Config
	cfg.RailsPerNode = 2
	run := func(seed int64) replayTrace {
		cfg.Fault = scenario.Plan(seed, 4, 2)
		return replayRun(t, cfg)
	}
	a, b := run(1), run(2)
	if a.fp == b.fp && a.finalTime == b.finalTime {
		t.Fatal("different fault schedules left identical traces")
	}
}

// TestReplayMatrixBitIdentical runs each collective layout's two-rail chaos
// cell, the golden's */faults row, twice in one process: the golden pins it
// across commits, this within one, so a divergence shows without -update.
func TestReplayMatrixBitIdentical(t *testing.T) {
	for _, tp := range scenario.Collectives {
		t.Run(tp.Name+"/rails=2", func(t *testing.T) {
			cfg := scenario.Faults.On(tp.Config)
			if a, b := replayRun(t, cfg), replayRun(t, cfg); a != b {
				t.Fatalf("replay diverged:\nrun1 %+v\nrun2 %+v", a, b)
			}
		})
	}
}

// TestReplayGolden pins the replay traces of every collective layout,
// fault-free and under its seeded chaos plan on one, two and four rails,
// across commits, so a nondeterministic run fails it. Fingerprints and
// event counts depend on whether sleeps are elided (DESIGN.md §16), so each
// build checks and rewrites (-update -v) its own rows.
func TestReplayGolden(t *testing.T) {
	build := "plain"
	if sleepsElided() {
		build = "elided"
	}
	var rows []string
	for _, s := range scenario.Replay {
		t.Run(s.Name, func(t *testing.T) {
			tr := replayRun(t, s.Config)
			if tr.payload == 0 {
				t.Fatal("payload checksum degenerate — workload did not run")
			}
			rows = append(rows, fmt.Sprintf("%s %s: fp=%016x events=%d time=%d payload=%016x",
				build, s.Name, tr.fp, tr.events, int64(tr.finalTime), tr.payload))
		})
	}
	base := golden{"testdata/replay_golden.txt", build + " "}.check(t, rows)
	if *updateGolden {
		return
	}
	// The committed builds must agree on every simulated value, and elision
	// must elide: never more events, and fewer wherever a cell spans nodes
	// (one node has no ring to elide). A missing row reads as empty values.
	cells := map[string]map[string]string{}
	for _, r := range base {
		cells[goldenKey(r)] = goldenFields(r)
	}
	for _, s := range scenario.Replay {
		e, p := cells["elided "+s.Name], cells["plain "+s.Name]
		ee, _ := strconv.Atoi(e["events"])
		pe, _ := strconv.Atoi(p["events"])
		if e["time"] != p["time"] || e["payload"] != p["payload"] || ee > pe || ee == pe && s.Nodes() > 1 {
			t.Errorf("%s: the builds disagree or elision elides nothing: elided %v, plain %v", s.Name, e, p)
		}
	}
}
