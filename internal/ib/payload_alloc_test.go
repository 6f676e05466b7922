//go:build !invariants

package ib

import (
	"runtime"
	"testing"
)

// Not built with -tags invariants, which keeps a snapshot of every large
// payload by design.

// TestLargeTransferAllocatesNothing: a 1 MB RDMA read and a 1 MB RDMA write
// each move their payload, 64 granules in each direction, without a single
// steady-state allocation — no message-sized staging copy (DESIGN.md §15),
// no closure per granule (§17). The CI microbench step holds
// BenchmarkRDMA{Read,Write}1MB to the same 0 allocs/op.
func TestLargeTransferAllocatesNothing(t *testing.T) {
	for _, op := range []Opcode{OpRDMAWrite, OpRDMARead} {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			const ops = 16
			var before, after runtime.MemStats
			verbsLoop(t, op, func(run func(int)) {
				runtime.ReadMemStats(&before)
				run(ops)
				runtime.ReadMemStats(&after)
			})
			if per := (after.Mallocs - before.Mallocs) / ops; per != 0 {
				t.Errorf("%d allocations (%d B) per 1 MB %s, want 0", per,
					(after.TotalAlloc-before.TotalAlloc)/ops, op)
			}
		})
	}
}
