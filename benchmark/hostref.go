package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host reference: a fixed piece of work that belongs to the benchmark,
// not to the program, timed before and after every timed region of the
// untraced pass. The two end-to-end host times, wall_s and setup_s, are
// reported relative to it:
//
//	reported = measured × refNominalS ÷ mean(reference before, reference after)
//
// that is, the host time the region would have cost had the reference run at
// its nominal speed throughout.
//
// Why: the benchmark is given two virtual cores of a shared host. For
// seconds at a time, and for episodes of ten minutes and more, everything on
// it — every workload, every micro-driver, this reference — runs 30–60 %
// slower, with no steal time accounted and nothing else running in the VM
// (a neighbour on the sibling hardware thread). Inside an episode reps agree
// to a few percent, so no statistic of one run can see it, and a run inside
// one set beside a run outside reads as a 40 % regression. The reference
// slows with the program, so the quotient does not: over a 40-minute log of
// all seven workloads on a restless host, the median of four reps moved from
// group to group by 14–25 % (interquartile distance ÷ median) measured
// raw, and by 4–9 % measured against the reference (README.md has the
// table).
//
// What it is made of follows what the simulator spends its time on:
// dependent loads over a working set beyond the caches (event queue, rank
// state, rings), integer arithmetic, bulk copies, goroutine hand-offs, and
// small allocations with map inserts; about a fifth each. Leaving any one of
// the five out made no workload steadier in that log, and none is tuned to a
// workload.
type hostRef struct {
	mem  []byte    // one mapping: the ring, then the copy target
	ring []uint32  // a single cycle through every slot, in scattered order
	all  []float64 // every sample so far, in seconds; the last is the latest
}

const (
	refRingBytes = 16 << 20 // several times a core's share of the last-level cache
	refLoads     = 500_000
	refALU       = 20_000_000
	refCopies    = 32 // × 16 MB
	refHandoffs  = 100_000
	refAllocs    = 300_000

	// refNominalS is one sample's duration on the development VM when its
	// host is quiet. It only fixes the scale: with it, the reported seconds
	// are that machine's quiet seconds.
	refNominalS = 0.150
)

// newHostRef maps the reference's memory outside the Go heap: 32 MB inside
// it would move the collector's next-cycle target from a few megabytes to
// tens of them on the two-rank workloads and change how often they collect.
func newHostRef() (*hostRef, error) {
	mem, err := syscall.Mmap(-1, 0, 2*refRingBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host reference: mmap: %w", err)
	}
	ring := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refRingBytes/4)
	for i := range ring {
		ring[i] = uint32(i)
	}
	// Sattolo's shuffle leaves one cycle, so the chase cannot fall into a
	// loop short enough to fit a cache. The constant seed is the
	// benchmark's own; no input of the program depends on it.
	s := uint64(0x5EED)
	for i := len(ring) - 1; i > 0; i-- {
		j := int(splitmix(&s) % uint64(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	h := &hostRef{mem: mem, ring: ring}
	h.sample() // touches every page
	h.next()
	return h, nil
}

func (h *hostRef) close() error {
	h.ring = nil
	return syscall.Munmap(h.mem)
}

// scale samples the reference once more and returns the factor that turns a
// host time measured since the previous sample into reported seconds.
func (h *hostRef) scale() float64 {
	before, after := h.next()
	return refNominalS / ((before + after) / 2)
}

// next takes a sample and returns the previous one with it.
func (h *hostRef) next() (prev, cur float64) {
	if n := len(h.all); n > 0 {
		prev = h.all[n-1]
	}
	cur = h.sample()
	h.all = append(h.all, cur)
	return prev, cur
}

type refNode struct {
	key  uint64
	next *refNode
	pad  [6]uint64
}

// refSink keeps the compiler from dropping the reference's arithmetic.
var refSink uint64

// sample runs the reference once, on one P whatever the workload runs on,
// and returns its wall time in seconds.
func (h *hostRef) sample() float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t := time.Now()

	at := uint32(0)
	for i := 0; i < refLoads; i++ {
		at = h.ring[at]
	}

	s, acc := uint64(1), uint64(at)
	for i := 0; i < refALU; i++ {
		acc += splitmix(&s)
	}

	for i := 0; i < refCopies; i++ {
		copy(h.mem[refRingBytes:], h.mem[:refRingBytes])
	}

	ping, pong, done := make(chan uint64), make(chan uint64), make(chan struct{})
	go func() {
		defer close(done)
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < refHandoffs; i++ {
		ping <- acc
		acc = <-pong
	}
	close(ping)
	<-done

	index := make(map[uint64]*refNode)
	var head *refNode
	for i := 0; i < refAllocs; i++ {
		k := splitmix(&s) & 0xffff
		n := &refNode{key: k, next: head}
		if i%8 == 0 {
			head = n
		}
		index[k] = n
	}

	refSink += acc + uint64(len(index))
	return time.Since(t).Seconds()
}
