package mpi_test

import (
	"fmt"
	"os"
	"strings"
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
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// TestReplayMatrixBitIdentical is the deterministic-replay suite: for
// every collective topology and rail count, the same fault seed and
// schedule must reproduce the run exactly — identical final simulated
// time, identical DES event fingerprint, identical payload checksums.
func TestReplayMatrixBitIdentical(t *testing.T) {
	for _, tp := range scenario.Collectives {
		tp := tp
		for _, rails := range []int{1, 2, 4} {
			rails := rails
			t.Run(fmt.Sprintf("%s/rails=%d", tp.Name, rails), func(t *testing.T) {
				chaos := scenario.Chaos(rails, 100)
				a, b := replayRun(t, chaos.On(tp.Config)), replayRun(t, chaos.On(tp.Config))
				if a != b {
					t.Fatalf("replay diverged:\nrun1 %+v\nrun2 %+v", a, b)
				}
				if a.payload == 0 {
					t.Fatal("payload checksum degenerate — workload did not run")
				}
			})
		}
	}
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

const replayGoldenPath = "testdata/replay_golden.txt"

// TestReplayGolden pins the replay traces across commits, which
// TestReplayMatrixBitIdentical (a build against itself) cannot: every
// collective topology, fault-free on one rail and under its seeded chaos
// plan on two, against testdata/replay_golden.txt. A change that claims
// "every fingerprint identical" leaves the file alone and passes here.
// Fingerprints and event counts depend on whether sleeps are elided
// (DESIGN.md §16), so the file holds an "elided" and a "plain" row per
// cell; each build checks its own, and go test [-tags desplain] -run
// TestReplayGolden ./internal/mpi/ -update rewrites only its own.
func TestReplayGolden(t *testing.T) {
	build := "plain"
	if sleepsElided() {
		build = "elided"
	}
	raw, err := os.ReadFile(replayGoldenPath)
	if err != nil && !*updateGolden {
		t.Fatal(err)
	}
	want := map[string]string{} // this build's rows by cell
	var other []string          // the other build's rows, kept by -update
	for _, l := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if cell, ok := strings.CutPrefix(l, build+" "); ok {
			cell, _, _ = strings.Cut(cell, ": ")
			want[cell] = l
		} else if l != "" {
			other = append(other, l)
		}
	}
	var lines []string
	for _, s := range scenario.Replay {
		t.Run(s.Name, func(t *testing.T) {
			tr := replayRun(t, s.Config)
			if tr.payload == 0 {
				t.Fatal("payload checksum degenerate — workload did not run")
			}
			line := fmt.Sprintf("%s %s: fp=%016x events=%d time=%d payload=%016x",
				build, s.Name, tr.fp, tr.events, int64(tr.finalTime), tr.payload)
			lines = append(lines, line)
			if !*updateGolden && line != want[s.Name] {
				t.Errorf("replay drifted from the committed golden:\n got %s\nwant %s", line, want[s.Name])
			}
		})
	}
	if *updateGolden {
		all := append(lines, other...) // elided rows first
		if build == "plain" {
			all = append(other, lines...)
		}
		if err := os.WriteFile(replayGoldenPath, []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(want) != len(lines) {
		t.Errorf("golden has %d %s cells, this run %d", len(want), build, len(lines))
	}
}
