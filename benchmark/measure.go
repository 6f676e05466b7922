package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/mpi"
)

// checks counts the correctness checks of a run. Every failure is named on
// stderr; the totals are the run's `attempted` and `failed`.
type checks struct {
	mu        sync.Mutex // rank bodies of a sharded cluster check concurrently
	attempted int
	failed    int
}

func (k *checks) ok(cond bool, format string, args ...any) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.attempted++
	if !cond {
		k.failed++
		fmt.Fprintf(os.Stderr, "CHECK FAILED: "+format+"\n", args...)
	}
	return cond
}

// stageRun is what one stage of a rep (one fresh cluster) gets to work
// with. Its launch method is the only way a stage reaches Cluster.Launch,
// so the host time of the Launch calls — and nothing else a stage does,
// such as building expected values — lands in wall_s.
type stageRun struct {
	c    *cluster.Cluster
	in   *inputs
	ck   *checks
	rec  *spanRec
	span int // the enclosing rep's span
	wall time.Duration

	// What the stage knows about the program's own results, for the
	// committed-baseline checks: the NAS kernel's events, fingerprint and
	// simulated seconds, read right after it returns.
	nas nasPoint
}

type nasPoint struct {
	events uint64
	fp     uint64
	simS   float64
}

// launch runs body on every rank and charges the Launch call to wall_s.
func (s *stageRun) launch(name string, body func(comm *mpi.Comm)) {
	s.timed(name, func() { s.c.Launch(body) })
}

// timed charges fn — a call that is nothing but a Cluster.Launch, such as
// nas.RunOn — to wall_s.
func (s *stageRun) timed(name string, fn func()) {
	id := s.rec.begin(s.span, "Launch "+name)
	t := time.Now()
	fn()
	s.wall += time.Since(t)
	s.rec.end(id)
}

// repResult is everything one rep measured on both clocks, summed (or, for
// ratios and heap, maxed) over the rep's clusters.
type repResult struct {
	// Host clock, as measured.
	newS, launchS, closeS float64
	// Host clock against the host reference (see hostref.go): each stage's
	// New and Launch walls scaled by the reference samples around the stage.
	newRefS, launchRefS float64
	cpuS                float64
	heapPerRank         float64
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPauseS            float64

	// Simulated clock and exact counts.
	simS                float64
	events              uint64
	fp                  uint64 // the clusters' schedule fingerprints, folded
	nas                 nasPoint
	mem                 cluster.MemStats
	regHits, regMisses  uint64
	upGranules          uint64
	upWaitedUs          float64
	maxWaitUs           float64
	busBusy, memctlBusy float64
	bytesInj, mrsReg    uint64
}

// runRep executes one rep of a workload: for every stage a fresh cluster is
// built, traced, driven, probed, measured and closed. With a host reference,
// every stage is followed by a reference sample (the one before it closed
// the previous stage), whose garbage the next stage's leading collection
// takes away.
func runRep(w *workload, in *inputs, ck *checks, rec *spanRec, parent int, label string, ref *hostRef) repResult {
	var r repResult
	runtime.GOMAXPROCS(w.procs)
	repSpan := rec.begin(parent, label)
	defer rec.end(repSpan)
	for _, st := range w.stages {
		// Collect the previous cluster before sizing this one.
		runtime.GC()
		var idle, before, after, live runtime.MemStats
		runtime.ReadMemStats(&idle)

		id := rec.begin(repSpan, "cluster.New "+st.name)
		t := time.Now()
		c, err := cluster.New(st.cfg)
		newS := time.Since(t).Seconds()
		r.newS += newS
		rec.end(id)
		if !ck.ok(err == nil, "%s/%s: cluster.New: %v", w.def.Name, st.name, err) {
			continue
		}
		c.Eng.EnableTrace()

		ev0, sim0 := c.Eng.EventsExecuted(), c.Now()
		bus0, ctl0, hca0 := busySnapshot(c)
		cpu0 := cpuSeconds()
		runtime.ReadMemStats(&before)

		s := &stageRun{c: c, in: in, ck: ck, rec: rec, span: repSpan}
		st.run(s)
		probe(s)

		runtime.ReadMemStats(&after)
		r.cpuS += cpuSeconds() - cpu0
		r.launchS += s.wall.Seconds()
		span := c.Now() - sim0
		r.simS += span.Seconds()
		r.events += c.Eng.EventsExecuted() - ev0
		r.fp = r.fp*1099511628211 ^ c.Eng.TraceFingerprint()
		r.nas = s.nas
		r.allocBytes += after.TotalAlloc - before.TotalAlloc
		r.mallocs += after.Mallocs - before.Mallocs
		r.gcCycles += after.NumGC - before.NumGC
		r.gcPauseS += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9

		bus1, ctl1, hca1 := busySnapshot(c)
		for n := range bus1 {
			if span > 0 {
				r.busBusy = max(r.busBusy, float64(bus1[n]-bus0[n])/float64(span))
				r.memctlBusy = max(r.memctlBusy, float64(ctl1[n]-ctl0[n])/float64(span))
			}
			r.bytesInj += hca1[n].BytesInjected - hca0[n].BytesInjected
			r.mrsReg += hca1[n].MRsRegistered - hca0[n].MRsRegistered
		}
		ms := c.MemStats()
		r.mem.Ranks += ms.Ranks
		r.mem.Connections += ms.Connections
		r.mem.QPs += ms.QPs
		r.mem.EagerBytes += ms.EagerBytes
		r.mem.PinnedBytes += ms.PinnedBytes
		rc := c.RegCacheStats()
		r.regHits += rc.Hits
		r.regMisses += rc.Misses
		sw := c.SwitchStats()
		r.upGranules += sw.UpGranules
		r.upWaitedUs += sw.UpWaited.Micros()
		r.maxWaitUs = max(r.maxWaitUs, sw.MaxWait.Micros())

		// Live heap the cluster holds, with the cluster still reachable.
		runtime.GC()
		runtime.ReadMemStats(&live)
		r.heapPerRank = max(r.heapPerRank, (float64(live.HeapAlloc)-float64(idle.HeapAlloc))/float64(c.Size()))

		id = rec.begin(repSpan, "cluster.Close "+st.name)
		t = time.Now()
		c.Close()
		r.closeS += time.Since(t).Seconds()
		rec.end(id)

		if ref != nil {
			scale := ref.scale()
			r.newRefS += newS * scale
			r.launchRefS += s.wall.Seconds() * scale
		}
	}
	return r
}

// busySnapshot reads every node's rail-0 bus and memory-controller busy
// time and adapter counters. Call it between Launches only.
func busySnapshot(c *cluster.Cluster) (bus, ctl []des.Time, hca []hcaCounters) {
	for n, h := range c.HCAs {
		bus = append(bus, h.Bus().BusyTime())
		ctl = append(ctl, c.Nodes[n].MemCtlBusyTime())
		st := h.Stats()
		hca = append(hca, hcaCounters{st.BytesInjected, st.MRsRegistered})
	}
	return
}

type hcaCounters struct{ BytesInjected, MRsRegistered uint64 }

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// setupOnly builds and closes the workload's clusters once without running
// anything, returning the summed cluster.New wall: one more setup_s sample.
func setupOnly(w *workload) (float64, error) {
	var total float64
	runtime.GOMAXPROCS(w.procs)
	for _, st := range w.stages {
		t := time.Now()
		c, err := cluster.New(st.cfg)
		total += time.Since(t).Seconds()
		if err != nil {
			return 0, err
		}
		c.Close()
	}
	return total, nil
}
