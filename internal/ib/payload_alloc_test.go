//go:build !ibverify

package ib

import (
	"runtime"
	"testing"
)

// Not built with -tags ibverify, which keeps a snapshot of every large
// payload by design.

// maxBytesPer1MB is the steady-state allocation ceiling per 1 MB operation,
// shared with the CI microbench step: two orders of magnitude below the
// message-sized staging slice the snapshot data path allocated.
const maxBytesPer1MB = 4096

// TestLargeTransferAllocatesNoStaging: a 1 MB RDMA read and a 1 MB RDMA
// write each move their payload without a message-sized allocation.
func TestLargeTransferAllocatesNoStaging(t *testing.T) {
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
			if per := (after.TotalAlloc - before.TotalAlloc) / ops; per >= maxBytesPer1MB {
				t.Errorf("%d B allocated per 1 MB %s, want < %d", per, op, maxBytesPer1MB)
			}
		})
	}
}
