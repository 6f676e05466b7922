package nas

import (
	"encoding/binary"

	"repro/internal/mpi"
)

// runIS is the Integer Sort benchmark: each rank buckets its local keys by
// destination rank, then each iteration charges that bucketing, exchanges
// bucket sizes with an all-to-all, redistributes the keys with an
// all-to-all-v, and ranks them locally. The keys never change, so the
// buckets come out the same every iteration and are built once. The key
// exchange is the benchmark's dominant traffic — large, bursty messages
// that exercise the rendezvous paths hard.
//
// The skeleton performs a real distributed bucket sort on real keys and
// verifies global ordering, so transport corruption cannot hide.
func runIS(comm *mpi.Comm, class Class) (float64, bool) {
	var totalKeys, maxKey, iters int
	switch class {
	case ClassS:
		totalKeys, maxKey, iters = 1<<14, 1<<11, 3
	case ClassA:
		totalKeys, maxKey, iters = 1<<23, 1<<19, 10
	case ClassB:
		totalKeys, maxKey, iters = 1<<25, 1<<21, 10
	}
	np, rank := comm.Size(), comm.Rank()
	n := totalKeys / np

	// Generate keys (deterministic linear congruential stream per rank),
	// counting each destination rank's bucket as they come.
	rangePer := (maxKey + np - 1) / np
	_, keys := comm.Alloc(n * 4)
	sendCounts := make([]int, np)
	x := uint64(rank)*6364136223846793005 + 1442695040888963407
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := uint32(x>>33) % uint32(maxKey)
		binary.LittleEndian.PutUint32(keys[i*4:], k)
		sendCounts[int(k)/rangePer] += 4
	}

	// Local bucketing: scatter the keys into the send buffer in destination
	// order (real data movement).
	sendBuf, sendBytes := comm.Alloc(n * 4)
	off := make([]int, np)
	for i, sum := 0, 0; i < np; i++ {
		off[i] = sum
		sum += sendCounts[i]
	}
	for i := 0; i < n; i++ {
		k := binary.LittleEndian.Uint32(keys[i*4:])
		d := int(k) / rangePer
		binary.LittleEndian.PutUint32(sendBytes[off[d]:], k)
		off[d] += 4
	}

	recvBuf, recvBytes := comm.Alloc(2 * n * 4) // skew headroom
	recvCounts := make([]int, np)
	cntS, cntSb := comm.Alloc(np * 8)
	cntR, cntRb := comm.Alloc(np * 8)

	var ops float64
	ok := true
	for it := 0; it < iters; it++ {
		comm.Compute(float64(2 * n)) // the bucketing passes, charged as if redone

		// Exchange bucket sizes (small alltoall).
		for i := 0; i < np; i++ {
			mpi.PutInt64(cntSb, i, int64(sendCounts[i]))
		}
		comm.Alltoall(cntS, cntR)
		total := 0
		for i := 0; i < np; i++ {
			recvCounts[i] = int(mpi.GetInt64(cntRb, i))
			total += recvCounts[i]
		}
		if total > recvBuf.Len {
			return 0, false // skew overflow: would be a generator bug
		}

		// Redistribute the keys (the big alltoallv).
		comm.Alltoallv(sendBuf, sendCounts, recvBuf, recvCounts)

		// Local ranking of received keys (counting sort pass).
		comm.Compute(float64(total / 4 * 2))

		// Verify every received key falls in this rank's range.
		lo, hi := uint32(rank*rangePer), uint32((rank+1)*rangePer)
		for i := 0; i < total; i += 4 {
			k := binary.LittleEndian.Uint32(recvBytes[i:])
			if k < lo || k >= hi {
				ok = false
			}
		}
		ops += float64(4 * n)
	}

	// Global verification: total key count must be preserved.
	s, sb := comm.Alloc(8)
	r, rb := comm.Alloc(8)
	mpi.PutInt64(sb, 0, int64(n))
	comm.Allreduce(s, r, mpi.Int64, mpi.Sum)
	if mpi.GetInt64(rb, 0) != int64(totalKeys) {
		ok = false
	}
	return ops, ok
}
