//go:build !invariants

package mpi_test

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/scenario"
)

// Not built with -tags invariants, whose checks allocate and keep a snapshot
// of every payload the ownership check covers: both by design.

// TestEagerPathAllocatesNothing: after one warm-up lap, a steady-state eager
// round trip on the zero-copy stack allocates nothing on the host — the
// requests come from the engine's free list, every completion callback was
// bound when its request or unexpected entry was made, and CH3 trims its own
// receive descriptors (DESIGN.md §12 "Live heap"). A closure, a request or a
// descriptor slice per message shows here as one or more allocations per
// round trip. The CI bench-regression job runs it beside the verbs data-path
// microbench.
func TestEagerPathAllocatesNothing(t *testing.T) {
	const laps = 200
	for _, size := range []int{4, 1 << 10, 16 << 10} {
		var before, after runtime.MemStats
		launch(t, scenario.Layout("flat-np2"), func(comm *mpi.Comm) {
			buf, _ := comm.Alloc(size)
			roundTrips(comm, buf, laps)
			if comm.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			roundTrips(comm, buf, laps)
			if comm.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
		})
		// Whole allocations per round trip: a stray runtime allocation
		// during the lap does not count, one per message does.
		if per := (after.Mallocs - before.Mallocs) / laps; per != 0 {
			t.Errorf("%d B: %d allocations (%d B) per round trip, want 0", size, per,
				(after.TotalAlloc-before.TotalAlloc)/laps)
		}
	}
}
