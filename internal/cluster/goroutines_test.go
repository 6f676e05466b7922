package cluster_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// TestFabricCarriesNoGoroutines: the verbs engines are stackless tasks
// (DESIGN.md §17), so an eager-wired np-rank cluster runs on np coroutines —
// the ranks — where it used to carry two per adapter and one per queue pair
// (np + 2·np + np·(np−1) at one rank per node). After the Launch the ranks
// are gone too, and Close has nothing left to unwind.
func TestFabricCarriesNoGoroutines(t *testing.T) {
	const np, slack = 32, 4
	base := runtime.NumGoroutine()
	c := cluster.MustNew(cluster.Config{NP: np, Transport: cluster.TransportZeroCopy})
	if qps := c.MemStats().Connections; qps < np*(np-1) {
		t.Fatalf("%d connection endpoints wired, want the full mesh", qps)
	}
	during := 0
	c.Launch(func(comm *mpi.Comm) {
		comm.Barrier()
		if comm.Rank() == 0 {
			during = runtime.NumGoroutine() - base
		}
		comm.Barrier()
	})
	if during < np/2 || during > np+slack { // the lower bound: the test sees the ranks at all
		t.Errorf("%d goroutines above the baseline inside a Launch of %d ranks", during, np)
	}
	if after := runtime.NumGoroutine() - base; after > slack {
		t.Errorf("%d goroutines above the baseline after the Launch", after)
	}
	c.Close()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > base {
		t.Errorf("%d goroutines after Close, %d before New", n, base)
	}
}
