package mpi_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/mpi"
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

// replayPlan draws the chaos schedule for one matrix cell. Rail 0 carries
// the chunk transport's credit counters, whose loss is connection-fatal by
// design, and a single-rail topology has no surviving rail to fail over
// to — so single-rail cells get drop bursts only, and multi-rail cells
// spare rail 0.
func replayPlan(seed int64, nodes, rails int) *fault.Plan {
	gc := fault.GenConfig{
		Seed: seed, Nodes: nodes, Rails: rails,
		Horizon: 500 * des.Microsecond, Events: 6,
		SpareRail: 0,
	}
	if rails == 1 {
		gc.Kinds = []fault.Kind{fault.DropBurst}
		gc.SpareRail = -1
	}
	return fault.Generate(gc)
}

// replayRun executes one seeded chaos run: a patterned ring shift large
// enough to drive the rendezvous/striping path, followed by an allreduce,
// under the generated fault schedule, with engine tracing on. A nil plan
// runs fault-free.
func replayRun(t *testing.T, tp topology, rails int, plan *fault.Plan, mods ...func(*cluster.Config)) replayTrace {
	t.Helper()
	cfg := cluster.Config{
		NP:           tp.np,
		CoresPerNode: tp.cpn,
		Transport:    cluster.TransportZeroCopy,
		RailsPerNode: rails,
		Fault:        plan,
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	c := cluster.MustNew(cfg)
	defer c.Close()
	c.Eng.EnableTrace()

	const size = 64 << 10 // past the zero-copy threshold: chunks and stripes
	sums := make([]uint64, tp.np)
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
	for _, tp := range collectiveTopologies {
		tp := tp
		for _, rails := range []int{1, 2, 4} {
			rails := rails
			t.Run(fmt.Sprintf("%s/rails=%d", tp.name, rails), func(t *testing.T) {
				nodes := (tp.np + tp.cpn - 1) / tp.cpn
				seed := int64(tp.np*100 + rails)
				a := replayRun(t, tp, rails, replayPlan(seed, nodes, rails))
				b := replayRun(t, tp, rails, replayPlan(seed, nodes, rails))
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
	tp := topology{"flat-np4", 4, 1}
	a := replayRun(t, tp, 2, replayPlan(1, 4, 2))
	b := replayRun(t, tp, 2, replayPlan(2, 4, 2))
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
	cell := func(name string, tp topology, rails int, plan *fault.Plan) {
		t.Run(name, func(t *testing.T) {
			tr := replayRun(t, tp, rails, plan)
			if tr.payload == 0 {
				t.Fatal("payload checksum degenerate — workload did not run")
			}
			line := fmt.Sprintf("%s %s: fp=%016x events=%d time=%d payload=%016x",
				build, name, tr.fp, tr.events, int64(tr.finalTime), tr.payload)
			lines = append(lines, line)
			if !*updateGolden && line != want[name] {
				t.Errorf("replay drifted from the committed golden:\n got %s\nwant %s", line, want[name])
			}
		})
	}
	for _, tp := range collectiveTopologies {
		cell(tp.name, tp, 1, nil)
		const rails = 2
		nodes := (tp.np + tp.cpn - 1) / tp.cpn
		cell(tp.name+"/faults", tp, rails, replayPlan(int64(tp.np*100+rails), nodes, rails))
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
