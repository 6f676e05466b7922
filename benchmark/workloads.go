package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/rdmachan"
	"repro/internal/switchfab"
)

// workload is one set of inputs the benchmark runs. Every rep builds fresh
// clusters, one per stage; all loops are closed loops driven from this one
// process.
type workload struct {
	def    workloadDef
	stages []stage
	// procs is the GOMAXPROCS the workload runs under: 1 on the serial
	// engine, one per shard on the sharded one. The serial engine runs one
	// goroutine at a time, and with a second P every baton pass between
	// rank goroutines may become a wake-up of another OS thread — on the two
	// shared virtual cores the benchmark is given that costs 15–70 % of
	// wall_s (measured on every serial workload) and most of its
	// steadiness, and measures the hypervisor's scheduler, not the program.
	procs  int
	inputs func(seed int64) inputs
	// msgs is the number of MPI messages one rep's bodies send, where the
	// benchmark issues the sends itself and so knows (nil = not known).
	msgs func(in *inputs) int
	// engineRow: the kernel's events, fingerprint and simulated seconds must
	// equal the committed BENCH_engine.json cg.S np=256 serial row.
	engineRow bool
	// serialTwin names the workload that is this one on the serial engine;
	// the traced pass runs one rep of it and holds the two equal.
	serialTwin string
}

type stage struct {
	name string
	cfg  cluster.Config
	run  func(s *stageRun)
}

const streamWindow = 16 // messages in flight in the window test

// collSizes are the collective workloads' per-rank block sizes, in the
// order they are visited.
var collSizes = []int{256, 4 << 10, 64 << 10}

// buildWorkload returns the named workload. quick divides iteration counts
// by ten and shrinks the NAS problems; its numbers are for iterating on the
// benchmark itself and are never recorded.
func buildWorkload(name string, quick bool) (*workload, error) {
	div := 1
	if quick {
		div = 10
	}
	var def workloadDef
	for _, d := range workloads {
		if d.Name == name {
			def = d
		}
	}
	zerocopy2 := cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy}
	noUnits := func(seed int64) inputs { return makeInputs(seed, nil, 0, 1) }
	collIters := max(4/div, 1)

	switch name {
	case "pingpong_small":
		sizes := []int{4, 64, 1 << 10, 4 << 10, 16 << 10}
		return &workload{
			def:    def,
			procs:  1,
			stages: []stage{{"pingpong", zerocopy2, pingpong}},
			inputs: func(seed int64) inputs { return makeInputs(seed, sizes, 20000/div, 10) },
			msgs: func(in *inputs) int {
				n := 0
				for _, u := range in.units {
					n += 2 * u.count
				}
				return n
			},
		}, nil
	case "stream_large":
		sizes := []int{64 << 10, 256 << 10, 1 << 20, 4 << 20}
		return &workload{
			def:    def,
			procs:  1,
			stages: []stage{{"stream", zerocopy2, stream}},
			inputs: func(seed int64) inputs { return makeInputs(seed, sizes, max(60/div, 1), 6) },
			msgs: func(in *inputs) int {
				n := 0
				for _, u := range in.units {
					n += (streamWindow + 1) * u.count
				}
				return n
			},
		}, nil
	case "nas_a_np8":
		class := nas.ClassA
		if quick {
			class = nas.ClassS
		}
		w := &workload{def: def, procs: 1, inputs: noUnits}
		for _, k := range []string{"cg", "mg", "ft", "is", "lu"} {
			w.stages = append(w.stages, stage{k,
				cluster.Config{NP: 8, Transport: cluster.TransportZeroCopy}, nasKernel(k, class)})
		}
		return w, nil
	case "cg_np256", "cg_np256_shards2":
		cfg := cluster.Config{
			NP:          256,
			Transport:   cluster.TransportZeroCopy,
			ConnectMode: cluster.ConnectLazy,
			Chan:        rdmachan.Config{UseSRQ: true},
			Shards:      1,
		}
		if quick {
			cfg.NP = 64
		}
		w := &workload{def: def, procs: 1, inputs: noUnits, engineRow: !quick}
		if name == "cg_np256_shards2" {
			cfg.Shards, w.procs = 2, 2
			w.serialTwin = "cg_np256"
		}
		w.stages = []stage{{"cg", cfg, nasKernel("cg", nas.ClassS)}}
		return w, nil
	case "coll_fattree":
		cfg := cluster.Config{NP: 32, Transport: cluster.TransportZeroCopy,
			Switch: &switchfab.Config{LeafDown: 4, LeafUp: 1}}
		return &workload{
			def:    def,
			procs:  1,
			stages: []stage{{"collectives", cfg, func(s *stageRun) { collectives(s, collIters, 0) }}},
			inputs: noUnits,
		}, nil
	case "smp_shm":
		cfg := cluster.Config{NP: 32, Transport: cluster.TransportZeroCopy, CoresPerNode: 4}
		return &workload{
			def:    def,
			procs:  1,
			stages: []stage{{"collectives+ring", cfg, func(s *stageRun) { collectives(s, collIters, max(64/div, 1)) }}},
			inputs: noUnits,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Payload stream ids (the `a` of payload(seed, a, b)); b is the rank, the
// size, or rank*np+peer as each body says.
const (
	streamPing = iota + 1
	streamWin
	streamAllreduce
	streamAlltoall
	streamRing
	streamProbe
)

// pingpong is the np=2 round-trip body. Rank 1 echoes what it received, so
// rank 0 checks at the end of each unit that the bytes made both trips.
func pingpong(s *stageRun) {
	in := s.in
	s.launch("pingpong", func(comm *mpi.Comm) {
		const maxLen = 16 << 10
		sbuf, sb := comm.Alloc(maxLen)
		rbuf, rb := comm.Alloc(maxLen)
		if comm.Rank() == 1 {
			for _, u := range in.units {
				r := mpi.Slice(rbuf, 0, u.size)
				for i := 0; i < u.count; i++ {
					comm.Recv(r, 0, 0)
					comm.Send(r, 0, 0)
				}
			}
			return
		}
		for ui, u := range in.units {
			payload(sb[:u.size], in.seed, streamPing, u.size)
			binary.LittleEndian.PutUint32(sb, uint32(ui)) // a stale echo must not pass
			out, back := mpi.Slice(sbuf, 0, u.size), mpi.Slice(rbuf, 0, u.size)
			start := comm.Proc().Now()
			for i := 0; i < u.count; i++ {
				comm.Send(out, 1, 0)
				comm.Recv(back, 1, 0)
			}
			s.rec.simSpan(s.span, fmt.Sprintf("pingpong %d B x%d", u.size, u.count), start, comm.Proc().Now())
			s.ck.ok(bytes.Equal(sb[:u.size], rb[:u.size]), "pingpong: unit %d (%d B) echo differs", ui, u.size)
		}
	})
}

// stream is the paper's window test: streamWindow sends in flight, then an
// acknowledgement, per window. The receiver regenerates the payload from
// the seed and compares every window's landed bytes.
func stream(s *stageRun) {
	in := s.in
	s.launch("stream", func(comm *mpi.Comm) {
		const maxLen = 4 << 20
		buf, b := comm.Alloc(maxLen)
		ack, _ := comm.Alloc(4)
		reqs := make([]*mpi.Request, streamWindow)
		want := make([]byte, maxLen)
		seq := uint64(0)
		for ui, u := range in.units {
			msg := mpi.Slice(buf, 0, u.size)
			start := comm.Proc().Now()
			if comm.Rank() == 0 {
				payload(b[:u.size], in.seed, streamWin, u.size)
			} else {
				payload(want[:u.size], in.seed, streamWin, u.size)
			}
			for k := 0; k < u.count; k++ {
				seq++
				if comm.Rank() == 0 {
					binary.LittleEndian.PutUint64(b, seq)
					for i := range reqs {
						reqs[i] = comm.Isend(msg, 1, 1)
					}
					comm.WaitAll(reqs...)
					comm.Recv(ack, 1, 2)
					continue
				}
				for i := range reqs {
					reqs[i] = comm.Irecv(msg, 0, 1)
				}
				comm.WaitAll(reqs...)
				binary.LittleEndian.PutUint64(want, seq)
				s.ck.ok(bytes.Equal(b[:u.size], want[:u.size]), "stream: unit %d window %d (%d B) differs", ui, k, u.size)
				comm.Send(ack, 0, 2)
			}
			if comm.Rank() == 0 {
				s.rec.simSpan(s.span, fmt.Sprintf("stream %d B x%d windows", u.size, u.count), start, comm.Proc().Now())
			}
		}
	})
}

// nasKernel runs one NAS skeleton and records the kernel's own simulated
// results for the committed-baseline check.
func nasKernel(name string, class nas.Class) func(s *stageRun) {
	return func(s *stageRun) {
		ev0, sim0 := s.c.Eng.EventsExecuted(), s.c.Now()
		var res nas.Result
		s.timed("nas."+name, func() { res = nas.RunOn(s.c, name, class) })
		s.nas = nasPoint{
			events: s.c.Eng.EventsExecuted() - ev0,
			fp:     s.c.Eng.TraceFingerprint(),
			simS:   (s.c.Now() - sim0).Seconds(),
		}
		s.ck.ok(res.Verified, "nas %s.%c np=%d not verified", name, class, s.c.Size())
	}
}

// collectives is the body of the two collective workloads: for every block
// size, iters rounds of Allreduce(Float64, Sum) then Alltoall, and after
// the sizes ringIters rounds of a 4 KB nearest-neighbour Sendrecv ring.
// Allreduce inputs are small integers so the sum is exact in any order.
func collectives(s *stageRun, iters, ringIters int) {
	in, np := s.in, s.c.Size()
	sums := make(map[int][]float64) // expected allreduce result per size
	for _, n := range collSizes {
		sum, tmp := make([]float64, n/8), make([]byte, n)
		for r := 0; r < np; r++ {
			payload(tmp, in.seed, streamAllreduce, r)
			for i := range sum {
				sum[i] += smallInt(tmp, i)
			}
		}
		sums[n] = sum
	}
	s.launch("collectives", func(comm *mpi.Comm) {
		rank := comm.Rank()
		for _, n := range collSizes {
			start := comm.Proc().Now()
			sbuf, sb := comm.Alloc(n)
			rbuf, rb := comm.Alloc(n)
			payload(sb, in.seed, streamAllreduce, rank)
			for i := 0; i < n/8; i++ {
				mpi.PutFloat64(sb, i, smallInt(sb, i))
			}
			for it := 0; it < iters; it++ {
				mpi.PutFloat64(sb, 0, float64(it+1)) // a stale result must not pass
				comm.Allreduce(sbuf, rbuf, mpi.Float64, mpi.Sum)
				good := mpi.GetFloat64(rb, 0) == float64(np*(it+1))
				for i := 1; i < n/8 && good; i++ {
					good = mpi.GetFloat64(rb, i) == sums[n][i]
				}
				s.ck.ok(good, "allreduce %d B iter %d: rank %d result differs", n, it, rank)
			}

			abuf, ab := comm.Alloc(n * np)
			bbuf, bb := comm.Alloc(n * np)
			for j := 0; j < np; j++ {
				payload(ab[j*n:(j+1)*n], in.seed, streamAlltoall, rank*np+j)
			}
			want := make([]byte, n)
			for it := 0; it < iters; it++ {
				for j := 0; j < np; j++ {
					binary.LittleEndian.PutUint32(ab[j*n:], uint32(it))
				}
				comm.Alltoall(abuf, bbuf)
				good := true
				for i := 0; i < np && good; i++ {
					blk := bb[i*n : (i+1)*n]
					good = binary.LittleEndian.Uint32(blk) == uint32(it)
					if good && it == iters-1 {
						payload(want, in.seed, streamAlltoall, i*np+rank)
						good = bytes.Equal(blk[4:], want[4:])
					}
				}
				s.ck.ok(good, "alltoall %d B iter %d: rank %d blocks differ", n, it, rank)
			}
			if rank == 0 {
				s.rec.simSpan(s.span, fmt.Sprintf("allreduce+alltoall %d B x%d", n, iters), start, comm.Proc().Now())
			}
		}
		if ringIters == 0 {
			return
		}
		const n = 4 << 10
		start := comm.Proc().Now()
		right, left := (rank+1)%np, (rank-1+np)%np
		sbuf, sb := comm.Alloc(n)
		rbuf, rb := comm.Alloc(n)
		want := make([]byte, n)
		payload(sb, in.seed, streamRing, rank)
		payload(want, in.seed, streamRing, left)
		good := true
		for it := 0; it < ringIters; it++ {
			binary.LittleEndian.PutUint32(sb, uint32(it))
			binary.LittleEndian.PutUint32(want, uint32(it))
			comm.Sendrecv(sbuf, right, 3, rbuf, left, 3)
			good = good && bytes.Equal(rb, want)
		}
		s.ck.ok(good, "ring: rank %d received wrong bytes", rank)
		if rank == 0 {
			s.rec.simSpan(s.span, fmt.Sprintf("ring 4 KB x%d", ringIters), start, comm.Proc().Now())
		}
	})
}

// smallInt reads element i of b as an integer below 2^20, as a float64.
func smallInt(b []byte, i int) float64 {
	return float64(binary.LittleEndian.Uint64(b[8*i:]) & (1<<20 - 1))
}

// probe closes every stage: each rank sends a seeded payload of the seeded
// length to its right neighbour and checks the one from its left.
func probe(s *stageRun) {
	in, np := s.in, s.c.Size()
	s.launch("probe", func(comm *mpi.Comm) {
		rank := comm.Rank()
		right, left := (rank+1)%np, (rank-1+np)%np
		sbuf, sb := comm.Alloc(in.probeLen)
		rbuf, rb := comm.Alloc(in.probeLen)
		want := make([]byte, in.probeLen)
		payload(sb, in.seed, streamProbe, rank)
		payload(want, in.seed, streamProbe, left)
		comm.Sendrecv(sbuf, right, 4, rbuf, left, 4)
		s.ck.ok(bytes.Equal(rb, want), "probe: rank %d received wrong bytes from %d", rank, left)
	})
}
