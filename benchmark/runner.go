package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// env is where a run finds the repository and how much it shrinks.
type env struct {
	root  string
	quick bool
}

// setup_s is sampled from set-up-only cycles (build every cluster of a rep,
// close it) after the reps: setupBatches batches, each of cycles until
// setupBatch has passed (at least setupMinCycles), one sample per batch —
// the mean cluster.New wall of its cycles, against the host reference
// samples around the batch. A two-rank cluster builds in 65 µs, and the
// first builds after a collection cost several times that while the heap
// grows back, so a batch must be long against them: batches of 3 ms read
// 65 µs in one process and 125 µs in the next, batches of 100 ms and more
// 63–68 µs.
// A 32-rank mesh allocates half a gigabyte, and a single build either meets
// a collection or does not; the forced collection before each batch starts
// every batch from the same heap.
const (
	setupBatches   = 5
	setupBatch     = 200 * time.Millisecond
	setupMinCycles = 4

	// setupShare of --seconds is left to the set-up samples; the reps get
	// the rest, so that a run ends about when --seconds have passed.
	setupShare = 0.15
)

// result is one workload's pass: its checks and its metrics by name.
type result struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Traced    bool            `json:"traced"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`
}

// set records a metric's samples under the unit spec.go gives it.
func (r *result) set(name string, samples ...float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if m.Name == name {
				r.Metrics[name] = newStat(m.Unit, samples)
				return
			}
		}
	}
	panic("mpibench: metric " + name + " is not in spec.go")
}

// driverLine is the object the driver's protocol wants as the last line.
func (r *result) driverLine() map[string]any {
	metrics := map[string]any{}
	for name, s := range r.Metrics {
		metrics[name] = map[string]any{"value": s.Median, "unit": s.Unit}
	}
	return map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

// print lists every metric by name with its unit, median, min, max and n.
func (r *result) print(w io.Writer) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d (%s pass): %d checks, %d failed\n", r.Workload, r.Seed, pass, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Metrics[n]
		fmt.Fprintf(w, "  %-40s %-9s median=%-14.9g min=%-14.9g max=%-14.9g n=%d\n", n, s.Unit, s.Median, s.Min, s.Max, s.N)
	}
}

// runWorkload runs one pass of one workload for about seconds.
func runWorkload(e env, name string, seed int64, seconds float64, traced bool) (*result, error) {
	w, err := buildWorkload(name, e.quick)
	if err != nil {
		return nil, err
	}
	in := w.inputs(seed)
	ck := &checks{}
	for _, err := range checkSpec() {
		ck.ok(false, "%v", err)
	}
	res := &result{Workload: name, Seed: seed, Traced: traced, Metrics: map[string]stat{}}
	if traced {
		err = tracedPass(e, w, &in, ck, seconds, res)
	} else {
		err = untracedPass(e, w, &in, ck, seconds, res)
	}
	res.Attempted, res.Failed = ck.attempted, ck.failed
	return res, err
}

// repLoop runs reps until about budget has passed (at least atLeast; exactly
// one in quick mode) and checks that every rep repeats rep 0's simulated
// results bit for bit.
func repLoop(e env, w *workload, in *inputs, ck *checks, rec *spanRec, parent int, budget time.Duration, atLeast int, ref *hostRef) []repResult {
	var reps []repResult
	start := time.Now()
	for {
		setPhase("%s rep %d", w.def.Name, len(reps))
		t := time.Now()
		r := runRep(w, in, ck, rec, parent, fmt.Sprintf("rep %d", len(reps)), ref)
		last := time.Since(t)
		reps = append(reps, r)
		if r0 := reps[0]; len(reps) > 1 {
			ck.ok(r.simS == r0.simS && r.events == r0.events && r.fp == r0.fp,
				"%s: rep %d diverged from rep 0: sim %.9f vs %.9f s, events %d vs %d, fingerprint %016x vs %016x",
				w.def.Name, len(reps)-1, r.simS, r0.simS, r.events, r0.events, r.fp, r0.fp)
		}
		if e.quick || len(reps) >= atLeast && time.Since(start)+last/2 >= budget {
			return reps
		}
	}
}

func untracedPass(e env, w *workload, in *inputs, ck *checks, seconds float64, res *result) (err error) {
	ref, err := newHostRef()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ref.close(); err == nil {
			err = cerr
		}
	}()
	// Two reps at least: rep-to-rep equality of the simulated results is a
	// check. Only nas_a_np8 on a slow host needs the rule; its run is then
	// a few seconds longer than --seconds.
	reps := repLoop(e, w, in, ck, nil, 0, time.Duration((1-setupShare)*seconds*float64(time.Second)), 2, ref)
	var wall, sim, heap []float64
	for _, r := range reps {
		wall = append(wall, r.launchRefS)
		sim = append(sim, r.simS)
		heap = append(heap, r.heapPerRank)
	}
	setup := []float64{reps[0].newRefS} // quick mode has no time for more
	if !e.quick {
		setPhase("%s set-up samples", w.def.Name)
		if setup, err = setupSamples(w, ref); err != nil {
			return err
		}
	}
	checkBaseline(e, w, reps[0], ck)
	hs := newStat("s", ref.all)
	fmt.Fprintf(os.Stderr, "host reference: median=%.4f min=%.4f max=%.4f n=%d (nominal %.4f s)\n", hs.Median, hs.Min, hs.Max, hs.N, refNominalS)
	res.set("setup_s", setup...)
	res.set("wall_s", wall...)
	res.set("sim_time_s", sim...)
	res.set("heap_live_bytes_per_rank", heap...)
	return nil
}

// setupSamples times set-up-only cycles in batches; see setupBatches. The
// reference sample before the first batch is the one that closed the last
// rep.
func setupSamples(w *workload, ref *hostRef) ([]float64, error) {
	samples := make([]float64, 0, setupBatches)
	for len(samples) < setupBatches {
		runtime.GC()
		total, cycles := 0.0, 0
		for start := time.Now(); cycles < setupMinCycles || time.Since(start) < setupBatch; cycles++ {
			s, err := setupOnly(w)
			if err != nil {
				return nil, err
			}
			total += s
		}
		samples = append(samples, total/float64(cycles)*ref.scale())
	}
	return samples, nil
}

// tracedPass gives the per-layer numbers: reps under the CPU profiler and
// the span recorder for about half the budget, bracketed by one untraced
// rep on either side as the overhead baseline (the first rep of a process
// runs on a cold heap, so one side alone would flatter the tracing), then
// the layer ladder.
func tracedPass(e env, w *workload, in *inputs, ck *checks, seconds float64, res *result) (err error) {
	// The per-layer host rows are as measured; host.ref_slowdown says how
	// slow the host was while they were: the reference before the reps,
	// after them and after the ladder, over its nominal duration.
	ref, err := newHostRef()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ref.close(); err == nil {
			err = cerr
		}
	}()
	slowdown := []float64{ref.all[0] / refNominalS}

	rec := newSpanRec(fmt.Sprintf("%s-seed%d", w.def.Name, in.seed))
	wspan := rec.begin(0, "workload "+w.def.Name)

	setPhase("%s untraced baseline rep", w.def.Name)
	base := runRep(w, in, ck, nil, 0, "", nil)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	reps := repLoop(e, w, in, ck, rec, wspan, time.Duration(seconds/2*float64(time.Second)), 1, nil)
	pprof.StopCPUProfile()
	setPhase("%s untraced closing rep", w.def.Name)
	untracedWall := (base.launchS + runRep(w, in, ck, nil, 0, "", nil).launchS) / 2
	ck.ok(reps[0].simS == base.simS && reps[0].fp == base.fp,
		"%s: traced rep diverged from the untraced one", w.def.Name)
	checkBaseline(e, w, reps[0], ck)

	slowdown = append(slowdown, ref.sample()/refNominalS)

	speedup := 0.0
	if w.serialTwin != "" {
		setPhase("serial twin of %s", w.def.Name)
		serial, err := buildWorkload(w.serialTwin, e.quick)
		if err != nil {
			return err
		}
		twin := runRep(serial, in, ck, rec, wspan, "serial twin", nil)
		// The kernel's region must match event for event. The closing probe
		// must match in simulated time only: a second Launch dispatches one
		// event more on the sharded engine than on the serial one (where
		// the first Run stops decides which Run dispatches it).
		ck.ok(twin.nas == base.nas && twin.simS == base.simS,
			"%s differs from its serial twin: sim %.9f vs %.9f s, kernel events %d vs %d, kernel fingerprint %016x vs %016x",
			w.def.Name, base.simS, twin.simS, base.nas.events, twin.nas.events, base.nas.fp, twin.nas.fp)
		speedup = twin.launchS / base.launchS
	}

	counterMetrics(res, w, in, reps, speedup)
	var tracedWall []float64
	for _, r := range reps {
		tracedWall = append(tracedWall, r.launchS)
	}
	res.set("trace.overhead_ratio", median(tracedWall)/untracedWall)

	shares, perr := cpuShares(prof.Bytes())
	if perr != nil {
		ck.ok(false, "cpu profile: %v", perr)
	}
	total := 0.0
	for _, layer := range profileLayers {
		res.set(layer+".cpu_share", shares[layer])
		total += shares[layer]
	}
	ck.ok(total > 0.98 && total < 1.02, "cpu_share rows sum to %.4f, want 1 ± 0.02", total)

	setPhase("%s ladder", w.def.Name)
	id := rec.begin(wspan, "ladder")
	ladder(res, ck, rec, id, e.quick)
	rec.end(id)
	res.set("host.ref_slowdown", append(slowdown, ref.sample()/refNominalS)...)

	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			ck.ok(false, "%s was not measured", m.Name)
			res.set(m.Name, 0)
		}
	}

	// Written once, at the end: the spans for a timeline viewer and the raw
	// profile for `go tool pprof`.
	rec.end(wspan)
	outDir := filepath.Join(e.root, "benchmark", "out")
	werr := rec.write(filepath.Join(outDir, "trace.json"))
	if werr == nil {
		werr = os.WriteFile(filepath.Join(outDir, "cpu.pprof"), prof.Bytes(), 0o644)
	}
	ck.ok(werr == nil, "writing the trace: %v", werr)
	return nil
}

// counterMetrics turns the traced reps' counters into per-layer metrics.
// Exact counters take rep 0 (the reps are checked equal); host numbers
// keep every rep as a sample.
func counterMetrics(res *result, w *workload, in *inputs, reps []repResult, speedup float64) {
	r0 := reps[0]
	ranks := float64(r0.mem.Ranks)
	res.set("des.events", float64(r0.events))
	res.set("des.events_per_sim_us", float64(r0.events)/(r0.simS*1e6))
	perMsg := 0.0
	if w.msgs != nil {
		perMsg = float64(r0.events) / float64(w.msgs(in))
	}
	res.set("des.events_per_msg", perMsg)
	res.set("des.shard_speedup", speedup)
	res.set("cluster.connections", float64(r0.mem.Connections))
	res.set("cluster.qps_per_rank", float64(r0.mem.QPs)/ranks)
	res.set("cluster.eager_bytes_per_rank", float64(r0.mem.EagerBytes)/ranks)
	res.set("cluster.pinned_bytes_per_rank", float64(r0.mem.PinnedBytes)/ranks)
	res.set("regcache.hits", float64(r0.regHits))
	res.set("regcache.misses", float64(r0.regMisses))
	ratio := 0.0
	if n := r0.regHits + r0.regMisses; n > 0 {
		ratio = float64(r0.regHits) / float64(n)
	}
	res.set("regcache.hit_ratio", ratio)
	res.set("switchfab.up_granules", float64(r0.upGranules))
	res.set("switchfab.up_waited_us", r0.upWaitedUs)
	res.set("switchfab.max_wait_us", r0.maxWaitUs)
	res.set("model.bus_busy_ratio", r0.busBusy)
	res.set("model.memctl_busy_ratio", r0.memctlBusy)
	res.set("ib.bytes_injected", float64(r0.bytesInj))
	res.set("ib.mrs_registered", float64(r0.mrsReg))

	host := map[string][]float64{}
	for _, r := range reps {
		ev := float64(r.events)
		host["des.host_ns_per_event"] = append(host["des.host_ns_per_event"], r.launchS*1e9/ev)
		host["des.cpu_s"] = append(host["des.cpu_s"], r.cpuS)
		host["cluster.new_s"] = append(host["cluster.new_s"], r.newS)
		host["cluster.launch_s"] = append(host["cluster.launch_s"], r.launchS)
		host["cluster.close_s"] = append(host["cluster.close_s"], r.closeS)
		host["goruntime.alloc_bytes_per_event"] = append(host["goruntime.alloc_bytes_per_event"], float64(r.allocBytes)/ev)
		host["goruntime.mallocs_per_event"] = append(host["goruntime.mallocs_per_event"], float64(r.mallocs)/ev)
		host["goruntime.gc_cycles"] = append(host["goruntime.gc_cycles"], float64(r.gcCycles))
		host["goruntime.gc_pause_s"] = append(host["goruntime.gc_pause_s"], r.gcPauseS)
	}
	for name, samples := range host {
		res.set(name, samples...)
	}
}
