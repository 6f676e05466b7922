package main

import (
	"encoding/binary"
	"math/rand"
)

// Inputs are everything a workload feeds the program, all derived from the
// seed: the payload bytes, the order the micro workloads visit message sizes
// in, and the size of the closing payload probe. The program never sees the
// seed. The collective workloads visit their sizes in a fixed order: theirs
// changes simulated time by up to 0.8 %, which would be the whole of
// sim_time_s's bound spent on the seed.
type inputs struct {
	seed int64

	// Micro workloads: the (size, count) units in visiting order.
	units []unit

	// probeLen is the length of the ring exchange that closes every rep on
	// every workload: a seeded payload each rank sends to its right
	// neighbour and checks from its left one. It is what makes the NAS
	// workloads, whose kernels take no seed, carry seeded bytes too.
	probeLen int
}

// unit is one stretch of identical messages: count round trips (ping-pong)
// or count windows (stream) of one size.
type unit struct {
	size  int
	count int
}

// The probe is kept small against every workload's own traffic and buffers:
// its seeded length must show in sim_time_s and heap_live_bytes_per_rank
// only far below their bounds.
const (
	probeMin = 256
	probeMax = 1 << 10
)

// payload fills b with the bytes stream (seed, a, b) names. Two calls with
// the same triple give the same bytes, so a receiver regenerates what its
// sender must have sent without sharing memory with it.
func payload(dst []byte, seed int64, a, b int) {
	s := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(a)<<32 ^ uint64(b)
	for len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, splitmix(&s))
		dst = dst[8:]
	}
	for v := splitmix(&s); len(dst) > 0; dst, v = dst[1:], v>>8 {
		dst[0] = byte(v)
	}
}

func splitmix(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// makeInputs derives a workload's inputs. sizes × perSize is split into
// blocks so the visiting order interleaves sizes instead of sweeping them.
func makeInputs(seed int64, sizes []int, perSize, blocks int) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{seed: seed}
	for _, s := range sizes {
		for b := 0; b < blocks; b++ {
			n := perSize / blocks
			if b < perSize%blocks {
				n++
			}
			if n > 0 {
				in.units = append(in.units, unit{s, n})
			}
		}
	}
	rng.Shuffle(len(in.units), func(i, j int) { in.units[i], in.units[j] = in.units[j], in.units[i] })
	in.probeLen = (probeMin + rng.Intn(probeMax-probeMin+1)) &^ 7
	return in
}
