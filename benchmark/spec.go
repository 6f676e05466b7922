package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// The benchmark's contract, in code: the workloads, the end-to-end metrics
// with their regression bounds, and the per-layer metrics. BENCHMARK.json at
// the repository root is this table serialised (`mpibench -print-spec`); a
// unit test keeps the two equal.

// Clock names which of the two clocks a metric reads. Simulated values are
// what the modelled 2004 testbed would take and repeat bit-exactly for a
// given seed; host values are what the simulator costs on this machine and
// are noisy. Counts are exact like simulated values.
type clock int

const (
	clockHost clock = iota
	clockSim
	clockCount
)

// exact reports whether two runs of one commit with one seed must agree to
// the last digit on a metric of this clock.
func (c clock) exact() bool { return c != clockHost }

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed relative worsening
	Clock  clock
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 14

// setupFloorS is the absolute floor under setup_s's relative bound in the
// A/A comparator: set-up of the small clusters takes a few milliseconds, and
// a quarter of that is below the host's timer-plus-allocator jitter.
const setupFloorS = 0.05

var workloads = []workloadDef{
	{"pingpong_small", "np=2 ping-pong at 4 B to 16 KB: the per-message software path (mpi, adi3, matching, ch3 packet, eager ring, WQE) does all the work, byte moving none"},
	{"stream_large", "np=2 window test, 16 in flight at 64 KB to 4 MB: rendezvous, pin-down cache, RDMA-read pipeline, bus model and host memmove; matching nearly idle"},
	{"nas_a_np8", "NAS class A cg, mg, ft, is, lu on 8 nodes: the application mix a user of the reproduction quotes; ft/is are copy-bound, lu a small-message wavefront"},
	{"cg_np256", "NAS CG class S at np=256, lazy connect, SRQ, serial engine: calendar queue, goroutine baton passing, SRQ pool; the BENCH_engine.json np=256 row"},
	{"cg_np256_shards2", "the same run on the sharded engine (2 shards): group windows, mailboxes and the locks armed only when sharded; simulated results must equal cg_np256"},
	{"coll_fattree", "np=32 eager mesh on a 4:1 fat tree, allreduce and alltoall at 256 B to 64 KB: collective algorithms and uplink queueing; largest set-up and heap per rank"},
	{"smp_shm", "np=32 as 8 nodes x 4 cores, the same collectives plus a 4 KB neighbour ring: shared-memory rings and hierarchical collectives; node-wide memory-event wakeups"},
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, clockHost},
	{"wall_s", "s", "lower", 0.25, clockHost},
	{"sim_time_s", "sim_s", "lower", 0.01, clockSim},
	{"heap_live_bytes_per_rank", "B", "lower", 0.05, clockHost},
}

// Per-layer metrics: the prefix is the module the number belongs to. A
// metric that does not apply to a workload (switchfab counters on the flat
// wire, des.events_per_msg where the benchmark does not issue the sends)
// reads 0 there.
var perLayer = []metricDef{
	// Counters read from outside after the timed region.
	{"des.events", "count", "lower", 0, clockCount},
	{"des.events_per_sim_us", "1/sim_us", "lower", 0, clockCount},
	{"des.events_per_msg", "count", "lower", 0, clockCount},
	{"des.host_ns_per_event", "ns", "lower", 0, clockHost},
	{"des.cpu_s", "s", "lower", 0, clockHost},
	{"des.shard_speedup", "ratio", "higher", 0, clockHost},
	{"cluster.new_s", "s", "lower", 0, clockHost},
	{"cluster.launch_s", "s", "lower", 0, clockHost},
	{"cluster.close_s", "s", "lower", 0, clockHost},
	{"cluster.connections", "count", "lower", 0, clockCount},
	{"cluster.qps_per_rank", "count", "lower", 0, clockCount},
	{"cluster.eager_bytes_per_rank", "B", "lower", 0, clockCount},
	{"cluster.pinned_bytes_per_rank", "B", "lower", 0, clockCount},
	{"goruntime.alloc_bytes_per_event", "B", "lower", 0, clockHost},
	{"goruntime.mallocs_per_event", "count", "lower", 0, clockHost},
	{"goruntime.gc_cycles", "count", "lower", 0, clockHost},
	{"goruntime.gc_pause_s", "s", "lower", 0, clockHost},
	{"regcache.hits", "count", "higher", 0, clockCount},
	{"regcache.misses", "count", "lower", 0, clockCount},
	{"regcache.hit_ratio", "ratio", "higher", 0, clockCount},
	{"switchfab.up_granules", "count", "lower", 0, clockCount},
	{"switchfab.up_waited_us", "sim_us", "lower", 0, clockSim},
	{"switchfab.max_wait_us", "sim_us", "lower", 0, clockSim},
	{"model.bus_busy_ratio", "ratio", "lower", 0, clockSim},
	{"model.memctl_busy_ratio", "ratio", "lower", 0, clockSim},
	{"ib.bytes_injected", "B", "lower", 0, clockCount},
	{"ib.mrs_registered", "count", "lower", 0, clockCount},

	// CPU-profile attribution of the traced reps: share of flat samples
	// whose leaf function lives in the package.
	{"des.cpu_share", "ratio", "lower", 0, clockHost},
	{"model.cpu_share", "ratio", "lower", 0, clockHost},
	{"switchfab.cpu_share", "ratio", "lower", 0, clockHost},
	{"ib.cpu_share", "ratio", "lower", 0, clockHost},
	{"regcache.cpu_share", "ratio", "lower", 0, clockHost},
	{"rdmachan.cpu_share", "ratio", "lower", 0, clockHost},
	{"shmchan.cpu_share", "ratio", "lower", 0, clockHost},
	{"ch3.cpu_share", "ratio", "lower", 0, clockHost},
	{"transport.cpu_share", "ratio", "lower", 0, clockHost},
	{"adi3.cpu_share", "ratio", "lower", 0, clockHost},
	{"mpi.cpu_share", "ratio", "lower", 0, clockHost},
	{"nas.cpu_share", "ratio", "lower", 0, clockHost},
	{"cluster.cpu_share", "ratio", "lower", 0, clockHost},
	{"goruntime.cpu_share", "ratio", "lower", 0, clockHost},

	// The layer ladder: one 4 B ping-pong driven at each level's public API.
	{"ib.sim_lat_4B_us", "sim_us", "lower", 0, clockSim},
	{"rdmachan.sim_lat_4B_us.basic", "sim_us", "lower", 0, clockSim},
	{"rdmachan.sim_lat_4B_us.piggyback", "sim_us", "lower", 0, clockSim},
	{"rdmachan.sim_lat_4B_us.pipeline", "sim_us", "lower", 0, clockSim},
	{"rdmachan.sim_lat_4B_us.zerocopy", "sim_us", "lower", 0, clockSim},
	{"mpi.sim_lat_4B_us.basic", "sim_us", "lower", 0, clockSim},
	{"mpi.sim_lat_4B_us.piggyback", "sim_us", "lower", 0, clockSim},
	{"mpi.sim_lat_4B_us.pipeline", "sim_us", "lower", 0, clockSim},
	{"mpi.sim_lat_4B_us.zerocopy", "sim_us", "lower", 0, clockSim},
	{"mpi.sim_lat_4B_us.ch3", "sim_us", "lower", 0, clockSim},
	{"shmchan.sim_lat_4B_us", "sim_us", "lower", 0, clockSim},
	{"rdmachan.sim_overhead_4B_us", "sim_us", "lower", 0, clockSim},
	{"mpi.sim_overhead_4B_us", "sim_us", "lower", 0, clockSim},
	{"switchfab.sim_hop_penalty_4B_us", "sim_us", "lower", 0, clockSim},
	{"cluster.sim_first_msg_us.lazy", "sim_us", "lower", 0, clockSim},
	{"ib.host_ns_per_msg_4B", "ns", "lower", 0, clockHost},
	{"rdmachan.host_ns_per_msg_4B", "ns", "lower", 0, clockHost},
	{"mpi.host_ns_per_msg_4B", "ns", "lower", 0, clockHost},
	{"des.dispatch_ns_per_event", "ns", "lower", 0, clockHost},
	{"des.handoff_ns", "ns", "lower", 0, clockHost},
	{"model.bus_transfer_ns", "ns", "lower", 0, clockHost},
	{"paper.err_lat_verbs", "ratio", "lower", 0, clockSim},
	{"paper.err_lat_mpi", "ratio", "lower", 0, clockSim},

	// The ladder's 1 MB window test, same levels.
	{"ib.sim_bw_write_1MB_mbps", "sim_MB/s", "higher", 0, clockSim},
	{"ib.sim_bw_read_1MB_mbps", "sim_MB/s", "higher", 0, clockSim},
	{"rdmachan.sim_bw_1MB_mbps.basic", "sim_MB/s", "higher", 0, clockSim},
	{"rdmachan.sim_bw_1MB_mbps.piggyback", "sim_MB/s", "higher", 0, clockSim},
	{"rdmachan.sim_bw_1MB_mbps.pipeline", "sim_MB/s", "higher", 0, clockSim},
	{"rdmachan.sim_bw_1MB_mbps.zerocopy", "sim_MB/s", "higher", 0, clockSim},
	{"mpi.sim_bw_1MB_mbps.basic", "sim_MB/s", "higher", 0, clockSim},
	{"mpi.sim_bw_1MB_mbps.piggyback", "sim_MB/s", "higher", 0, clockSim},
	{"mpi.sim_bw_1MB_mbps.pipeline", "sim_MB/s", "higher", 0, clockSim},
	{"mpi.sim_bw_1MB_mbps.zerocopy", "sim_MB/s", "higher", 0, clockSim},
	{"mpi.sim_bw_1MB_mbps.ch3", "sim_MB/s", "higher", 0, clockSim},
	{"mpi.sim_bw_1MB_mbps.zerocopy-rails2", "sim_MB/s", "higher", 0, clockSim},
	{"shmchan.sim_bw_1MB_mbps", "sim_MB/s", "higher", 0, clockSim},
	{"mpi.sim_overlap_ratio_1MB", "ratio", "higher", 0, clockSim},
	{"ib.host_ns_per_mb", "ns", "lower", 0, clockHost},
	{"rdmachan.host_ns_per_mb", "ns", "lower", 0, clockHost},
	{"mpi.host_ns_per_mb", "ns", "lower", 0, clockHost},
	{"regcache.hit_ns", "ns", "lower", 0, clockHost},
	{"regcache.miss_ns", "ns", "lower", 0, clockHost},
	{"switchfab.port_ns_per_granule", "ns", "lower", 0, clockHost},
	{"paper.err_bw_verbs", "ratio", "lower", 0, clockSim},
	{"paper.err_bw_mpi", "ratio", "lower", 0, clockSim},

	{"trace.overhead_ratio", "ratio", "lower", 0, clockHost},

	// How slow the host was during the traced pass: the host reference's
	// duration over its nominal one (hostref.go). Every host row above is as
	// measured, so this is the row to read them against.
	{"host.ref_slowdown", "ratio", "lower", 0, clockHost},
}

// The contract's limits on BENCHMARK.json.
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxBound     = 0.25
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkSpec validates the tables against the contract's limits. It runs at
// the start of every invocation; each violation counts as a failed check.
func checkSpec() []error {
	var errs []error
	if n := len(workloads); n < 2 || n > maxWorkloads {
		errs = append(errs, fmt.Errorf("spec: %d workloads, want 2..%d", n, maxWorkloads))
	}
	if n := len(endToEnd); n < 1 || n > maxEndToEnd {
		errs = append(errs, fmt.Errorf("spec: %d end-to-end metrics, want 1..%d", n, maxEndToEnd))
	}
	if n := len(perLayer); n < 1 || n > maxPerLayer {
		errs = append(errs, fmt.Errorf("spec: %d per-layer metrics, want 1..%d", n, maxPerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			errs = append(errs, fmt.Errorf("spec: bad name %q", n))
		}
		if seen[n] {
			errs = append(errs, fmt.Errorf("spec: name %q used twice", n))
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 {
			errs = append(errs, fmt.Errorf("spec: why of %q is %d characters, max 200", w.Name, len(w.Why)))
		}
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			errs = append(errs, fmt.Errorf("spec: bad unit %q on %q", m.Unit, m.Name))
		}
		if m.Better != "lower" && m.Better != "higher" {
			errs = append(errs, fmt.Errorf("spec: bad direction %q on %q", m.Better, m.Name))
		}
		if m.Bound < 0 || m.Bound > maxBound {
			errs = append(errs, fmt.Errorf("spec: bound %g on %q outside [0, %g]", m.Bound, m.Name, maxBound))
		}
	}
	return errs
}

// BENCHMARK.json, key for key.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eJSON     `json:"end_to_end"`
	PerLayer   []layerJSON   `json:"per_layer"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func specJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, e2eJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	return b
}

func marshalSpec() []byte {
	out, err := json.MarshalIndent(specJSON(), "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(out, '\n')
}
