package main

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// goroutinesSettle waits for the goroutine count to come back to base:
// goroutines the engine released exit on their own schedule.
func goroutinesSettle(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

func TestShardedClusterLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	c, err := cluster.New(cluster.Config{NP: 8, Transport: cluster.TransportZeroCopy, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Launch(func(comm *mpi.Comm) { comm.Barrier() })
	if during := runtime.NumGoroutine(); during <= base {
		t.Errorf("a live cluster holds %d goroutines, baseline %d: the test sees nothing", during, base)
	}
	c.Close()
	if n := goroutinesSettle(base); n > base {
		t.Errorf("%d goroutines after Close, %d before New", n, base)
	}
}

// A quick run of both passes, on the sharded workload, must pass its own
// checks, report every metric and leave nothing running. The benchmark
// starts no child process at all, so there is none to leave behind.
func TestQuickRunIsCleanAndComplete(t *testing.T) {
	base := runtime.NumGoroutine()
	e := env{root: t.TempDir(), quick: true}
	for _, traced := range []bool{false, true} {
		res, err := runWorkload(e, "cg_np256_shards2", 1, 1, traced)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%v: %d of %d checks failed", traced, res.Failed, res.Attempted)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics reported, spec has %d", traced, len(res.Metrics), len(defs))
		}
		for _, m := range defs {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("traced=%v: %s not reported", traced, m.Name)
			}
		}
	}
	if n := goroutinesSettle(base); n > base {
		t.Errorf("%d goroutines after the runs, %d before", n, base)
	}
}
