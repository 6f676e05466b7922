package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
	"repro/internal/regcache"
	"repro/internal/switchfab"
)

// The layer ladder drives the same two tests — a 4 B ping-pong and a 1 MB
// window test — at each level's public API, bottom up: ib (verbs), rdmachan
// (the RDMA Channel's put/get pipes), mpi (a two-rank cluster per
// transport), plus shared memory, the fat tree's hop penalty, the lazy
// connect cost, the compute/communication overlap, and a handful of
// micro-drivers that time one operation of des, model, regcache and
// switchfab on the host clock. Simulated values are exact; host_* and *_ns
// are noisy. It runs once per traced pass, the same on every workload.

// The paper's published figures (§4.2.1, §6): verbs and MPI latency in µs,
// verbs and MPI bandwidth in MB/s.
const (
	paperLatVerbs = 5.9
	paperLatMPI   = 7.6
	paperBwVerbs  = 870.0
	paperBwMPI    = 857.0
)

// anchorBand is how far a ladder anchor may sit from the paper's figure
// before the run counts a failed check. It is wide on purpose: the check is
// there to catch a ladder driver measuring the wrong thing, not to freeze
// the model's calibration against later changes, which the paper.err_*
// rows report.
const anchorBand = 0.10

const (
	ladderWindow  = 16 // 1 MB messages in flight
	ladderWindows = 2  // measured windows after the one-message warm-up
	mb            = 1 << 20

	// ladderMovedMB is what one window test moves, warm-up included, in MB
	// of 10^6 bytes: the divisor of the host_ns_per_mb rows.
	ladderMovedMB = float64(ladderWindow*ladderWindows+1) * mb / 1e6
)

// ladderDesign is one rung shared by the rdmachan and mpi levels.
type ladderDesign struct {
	name   string
	design rdmachan.Design
	tr     cluster.Transport
}

var chanDesigns = []ladderDesign{
	{"basic", rdmachan.DesignBasic, cluster.TransportBasic},
	{"piggyback", rdmachan.DesignPiggyback, cluster.TransportPiggyback},
	{"pipeline", rdmachan.DesignPipeline, cluster.TransportPipeline},
	{"zerocopy", rdmachan.DesignZeroCopy, cluster.TransportZeroCopy},
}

func ladder(res *result, ck *checks, rec *spanRec, parent int, quick bool) {
	rounds := 5000 // round trips behind each host_ns_per_msg row
	if quick {
		rounds = 500
	}
	runtime.GOMAXPROCS(1) // every step runs on a serial engine: see workload.procs
	set := func(name string, v float64) { res.set(name, v) }
	step := func(name string, fn func()) {
		setPhase("ladder %s", name)
		id := rec.begin(parent, "ladder "+name)
		fn()
		rec.end(id)
	}
	fail := func(err error, what string) bool { return !ck.ok(err == nil, "ladder %s: %v", what, err) }

	// Level 1: verbs.
	var ibLat, ibBw float64
	step("ib", func() {
		lat, ns := ibLatency(rounds)
		ibLat = lat
		set("ib.sim_lat_4B_us", lat)
		set("ib.host_ns_per_msg_4B", ns)
		bw, ns := ibBandwidth(ib.OpRDMAWrite)
		ibBw = bw
		set("ib.sim_bw_write_1MB_mbps", bw)
		set("ib.host_ns_per_mb", ns)
		bw, _ = ibBandwidth(ib.OpRDMARead)
		set("ib.sim_bw_read_1MB_mbps", bw)
	})

	// Level 2: the RDMA Channel, four designs.
	var chanLat float64
	step("rdmachan", func() {
		for _, d := range chanDesigns {
			lat, latNs, err := chanLatency(d.design, rounds)
			if fail(err, "rdmachan "+d.name+" latency") {
				continue
			}
			bw, bwNs, err := chanBandwidth(d.design)
			if fail(err, "rdmachan "+d.name+" bandwidth") {
				continue
			}
			set("rdmachan.sim_lat_4B_us."+d.name, lat)
			set("rdmachan.sim_bw_1MB_mbps."+d.name, bw)
			if d.design == rdmachan.DesignZeroCopy {
				chanLat = lat
				set("rdmachan.host_ns_per_msg_4B", latNs)
				set("rdmachan.host_ns_per_mb", bwNs)
			}
		}
	})

	// Level 3: MPI over a two-rank cluster, five transports and two rails.
	var mpiLat, mpiBw float64
	step("mpi", func() {
		transports := append(chanDesigns[:len(chanDesigns):len(chanDesigns)],
			ladderDesign{name: "ch3", tr: cluster.TransportCH3})
		for _, t := range transports {
			cfg := cluster.Config{NP: 2, Transport: t.tr}
			lat, latNs, err := mpiLatency(cfg, 0, 1, rounds)
			if fail(err, "mpi "+t.name+" latency") {
				continue
			}
			bw, bwNs, err := mpiBandwidth(cfg)
			if fail(err, "mpi "+t.name+" bandwidth") {
				continue
			}
			set("mpi.sim_lat_4B_us."+t.name, lat)
			set("mpi.sim_bw_1MB_mbps."+t.name, bw)
			if t.tr == cluster.TransportZeroCopy {
				mpiLat, mpiBw = lat, bw
				set("mpi.host_ns_per_msg_4B", latNs)
				set("mpi.host_ns_per_mb", bwNs)
			}
		}
		bw, _, err := mpiBandwidth(cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy, RailsPerNode: 2})
		if !fail(err, "mpi rails=2 bandwidth") {
			set("mpi.sim_bw_1MB_mbps.zerocopy-rails2", bw)
		}
	})
	set("rdmachan.sim_overhead_4B_us", chanLat-ibLat)
	set("mpi.sim_overhead_4B_us", mpiLat-chanLat)
	set("paper.err_lat_verbs", math.Abs(ibLat-paperLatVerbs)/paperLatVerbs)
	set("paper.err_lat_mpi", math.Abs(mpiLat-paperLatMPI)/paperLatMPI)
	set("paper.err_bw_verbs", math.Abs(ibBw-paperBwVerbs)/paperBwVerbs)
	set("paper.err_bw_mpi", math.Abs(mpiBw-paperBwMPI)/paperBwMPI)
	for _, a := range []struct {
		what       string
		got, paper float64
	}{
		{"verbs 4 B latency (µs)", ibLat, paperLatVerbs},
		{"MPI zero-copy 4 B latency (µs)", mpiLat, paperLatMPI},
		{"verbs 1 MB write bandwidth (MB/s)", ibBw, paperBwVerbs},
		{"MPI zero-copy 1 MB bandwidth (MB/s)", mpiBw, paperBwMPI},
	} {
		ck.ok(math.Abs(a.got-a.paper) <= anchorBand*a.paper,
			"ladder anchor: %s is %.3f, paper %.3f, band ±%.0f%%", a.what, a.got, a.paper, 100*anchorBand)
	}

	step("shmchan", func() {
		cfg := cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy, CoresPerNode: 2}
		lat, _, err := mpiLatency(cfg, 0, 1, 20)
		if fail(err, "shm latency") {
			return
		}
		bw, _, err := mpiBandwidth(cfg)
		if fail(err, "shm bandwidth") {
			return
		}
		set("shmchan.sim_lat_4B_us", lat)
		set("shmchan.sim_bw_1MB_mbps", bw)
		// Intra-node must beat the wire by a wide margin or the pair was
		// not routed over shared memory at all.
		ck.ok(lat < mpiLat/2, "ladder anchor: shm latency %.3f µs is not well under the wire's %.3f", lat, mpiLat)
	})

	step("switchfab", func() {
		cfg := cluster.Config{NP: 8, Transport: cluster.TransportZeroCopy,
			Switch: &switchfab.Config{LeafDown: 4, LeafUp: 1}}
		same, _, err := mpiLatency(cfg, 0, 1, 20)
		if fail(err, "same-leaf latency") {
			return
		}
		cross, _, err := mpiLatency(cfg, 0, 4, 20)
		if fail(err, "cross-leaf latency") {
			return
		}
		set("switchfab.sim_hop_penalty_4B_us", cross-same)
		ns, err := portNs()
		if !fail(err, "switch port micro-driver") {
			set("switchfab.port_ns_per_granule", ns)
		}
	})

	step("cluster", func() {
		us, err := firstMessageLazy()
		if !fail(err, "lazy first message") {
			set("cluster.sim_first_msg_us.lazy", us)
		}
	})

	step("overlap", func() {
		r, err := overlapRatio()
		if !fail(err, "overlap") {
			set("mpi.sim_overlap_ratio_1MB", r)
		}
	})

	step("micro-drivers", func() {
		n := 1_000_000
		if quick {
			n = 100_000
		}
		set("des.dispatch_ns_per_event", dispatchNs(n))
		set("des.handoff_ns", handoffNs(n/5))
		set("model.bus_transfer_ns", busTransferNs(n/10))
		hit, miss := regcacheNs(n / 50)
		set("regcache.hit_ns", hit)
		set("regcache.miss_ns", miss)
	})
}

// verbsPair is two nodes, one adapter and one connected queue pair each:
// the whole world of the ib and rdmachan levels.
type verbsPair struct {
	eng  *des.Engine
	node [2]*model.Node
	hca  [2]*ib.HCA
	pd   [2]*ib.PD
	scq  [2]*ib.CQ
	qp   [2]*ib.QP
}

func newVerbsPair() *verbsPair {
	prm := model.Testbed()
	v := &verbsPair{eng: des.NewEngine()}
	fab := ib.NewFabric(v.eng, prm)
	for i := range v.node {
		v.node[i] = model.NewNode(i, prm)
		v.hca[i] = fab.NewHCA(v.node[i])
		v.pd[i] = v.hca[i].AllocPD()
		v.scq[i] = v.hca[i].CreateCQ()
		v.qp[i] = v.hca[i].CreateQP(v.pd[i], v.scq[i], v.hca[i].CreateCQ())
	}
	if err := ib.Connect(v.qp[0], v.qp[1]); err != nil {
		panic(err) // two fresh queue pairs on one fabric always connect
	}
	return v
}

// region is one registered 4 B flag word on a node.
type region struct {
	va  uint64
	b   []byte
	mr  *ib.MR
	hca *ib.HCA
}

func (v *verbsPair) flag(p *des.Proc, i int) region {
	va, b := v.node[i].Mem.Alloc(4)
	mr, err := v.hca[i].RegisterMR(p, v.pd[i], va, 4, ib.AccessLocalWrite|ib.AccessRemoteWrite)
	if err != nil {
		panic(err) // a fresh allocation on the node's own adapter always registers
	}
	return region{va, b, mr, v.hca[i]}
}

// ibLatency is the verbs-level 4 B ping-pong: an RDMA write of a sequence
// word, the peer polling memory for it. It returns the one-way simulated
// latency in µs and the host ns per message.
func ibLatency(rounds int) (simUs, hostNs float64) {
	v := newVerbsPair()
	defer v.eng.Shutdown()
	v.eng.Spawn("r0", func(p *des.Proc) {
		src0, pad0 := v.flag(p, 0), v.flag(p, 0)
		src1, pad1 := v.flag(p, 1), v.flag(p, 1)
		write := func(p *des.Proc, qp *ib.QP, src, dst region, seq uint32) {
			binary.LittleEndian.PutUint32(src.b, seq)
			qp.PostSend(p, ib.SendWR{
				Op:         ib.OpRDMAWrite,
				SGL:        []ib.SGE{{Addr: src.va, Len: 4, LKey: src.mr.LKey()}},
				RemoteAddr: dst.va, RKey: dst.mr.RKey(),
			})
		}
		wait := func(p *des.Proc, pad region, seq uint32) {
			pad.hca.WaitMemory(p, func() bool { return binary.LittleEndian.Uint32(pad.b) == seq })
		}
		v.eng.Spawn("r1", func(q *des.Proc) {
			for seq := uint32(1); seq <= uint32(rounds)+1; seq++ {
				wait(q, pad1, seq)
				write(q, v.qp[1], src1, pad0, seq)
			}
		})
		write(p, v.qp[0], src0, pad1, 1) // warm-up round
		wait(p, pad0, 1)
		start := p.Now()
		for seq := uint32(2); seq <= uint32(rounds)+1; seq++ {
			write(p, v.qp[0], src0, pad1, seq)
			wait(p, pad0, seq)
		}
		simUs = (p.Now() - start).Micros() / float64(2*rounds)
	})
	t := time.Now()
	v.eng.Run()
	return simUs, float64(time.Since(t).Nanoseconds()) / float64(2*(rounds+1))
}

// ibBandwidth is the verbs-level 1 MB window test with op (RDMA write or
// read): ladderWindow signaled requests posted back to back, then their
// completions. It returns simulated MB/s and host ns per MB moved.
func ibBandwidth(op ib.Opcode) (mbps, hostNsPerMB float64) {
	v := newVerbsPair()
	defer v.eng.Shutdown()
	v.eng.Spawn("driver", func(p *des.Proc) {
		lva, _ := v.node[0].Mem.Alloc(mb)
		rva, _ := v.node[1].Mem.Alloc(mb)
		acc := ib.AccessLocalWrite | ib.AccessRemoteWrite | ib.AccessRemoteRead
		lmr, err := v.hca[0].RegisterMR(p, v.pd[0], lva, mb, acc)
		if err != nil {
			panic(err)
		}
		rmr, err := v.hca[1].RegisterMR(p, v.pd[1], rva, mb, acc)
		if err != nil {
			panic(err)
		}
		window := func(n int) {
			for i := 0; i < n; i++ {
				v.qp[0].PostSend(p, ib.SendWR{
					Op: op, Signaled: true,
					SGL:        []ib.SGE{{Addr: lva, Len: mb, LKey: lmr.LKey()}},
					RemoteAddr: rva, RKey: rmr.RKey(),
				})
			}
			for i := 0; i < n; i++ {
				v.scq[0].Poll(p)
			}
		}
		window(1) // warm-up
		start := p.Now()
		for k := 0; k < ladderWindows; k++ {
			window(ladderWindow)
		}
		mbps = float64(mb*ladderWindow*ladderWindows) / (p.Now() - start).Micros()
	})
	t := time.Now()
	v.eng.Run()
	return mbps, float64(time.Since(t).Nanoseconds()) / ladderMovedMB
}

// chanPair wires one RDMA Channel connection of the given design.
func chanPair(design rdmachan.Design) (*verbsPair, [2]rdmachan.Endpoint, error) {
	v := newVerbsPair()
	var eps [2]rdmachan.Endpoint
	var err error
	v.eng.Spawn("setup", func(p *des.Proc) {
		eps[0], eps[1], err = rdmachan.NewConnection(p, rdmachan.Config{Design: design}, v.hca[0], v.hca[1])
	})
	v.eng.Run()
	if err != nil {
		v.eng.Shutdown()
		return nil, eps, err
	}
	return v, eps, nil
}

func (v *verbsPair) buffer(i, n int) []rdmachan.Buffer {
	va, _ := v.node[i].Mem.Alloc(n)
	return []rdmachan.Buffer{{Addr: va, Len: n}}
}

// chanLatency is the 4 B ping-pong over PutAll/GetAll.
func chanLatency(design rdmachan.Design, rounds int) (simUs, hostNs float64, err error) {
	v, eps, err := chanPair(design)
	if err != nil {
		return 0, 0, err
	}
	defer v.eng.Shutdown()
	var errs [2]error
	for i := 0; i < 2; i++ {
		i := i
		out, in := v.buffer(i, 4), v.buffer(i, 4)
		first, second := rdmachan.PutAll, rdmachan.GetAll // rank 0 pings, rank 1 pongs
		if i == 1 {
			first, second, out, in = second, first, in, out
		}
		v.eng.Spawn(fmt.Sprintf("r%d", i), func(p *des.Proc) {
			var start des.Time
			for k := 0; k <= rounds && errs[i] == nil; k++ {
				if k == 1 {
					start = p.Now() // round 0 is the warm-up
				}
				if errs[i] = first(p, eps[i], out); errs[i] == nil {
					errs[i] = second(p, eps[i], in)
				}
			}
			if i == 0 {
				simUs = (p.Now() - start).Micros() / float64(2*rounds)
			}
		})
	}
	t := time.Now()
	v.eng.Run()
	hostNs = float64(time.Since(t).Nanoseconds()) / float64(2*(rounds+1))
	return simUs, hostNs, errors.Join(errs[0], errs[1])
}

// chanBandwidth is the 1 MB window test over PutAll/GetAll: ladderWindow
// messages back to back, then a 4 B acknowledgement.
func chanBandwidth(design rdmachan.Design) (mbps, hostNsPerMB float64, err error) {
	v, eps, err := chanPair(design)
	if err != nil {
		return 0, 0, err
	}
	defer v.eng.Shutdown()
	var errs [2]error
	for i := 0; i < 2; i++ {
		i := i
		data, ack := v.buffer(i, mb), v.buffer(i, 4)
		v.eng.Spawn(fmt.Sprintf("r%d", i), func(p *des.Proc) {
			window := func(n int) error {
				for k := 0; k < n; k++ {
					var err error
					if i == 0 {
						err = rdmachan.PutAll(p, eps[i], data)
					} else {
						err = rdmachan.GetAll(p, eps[i], data)
					}
					if err != nil {
						return err
					}
				}
				if i == 0 {
					return rdmachan.GetAll(p, eps[i], ack)
				}
				return rdmachan.PutAll(p, eps[i], ack)
			}
			if errs[i] = window(1); errs[i] != nil { // warm-up
				return
			}
			start := p.Now()
			for k := 0; k < ladderWindows && errs[i] == nil; k++ {
				errs[i] = window(ladderWindow)
			}
			if i == 0 {
				mbps = float64(mb*ladderWindow*ladderWindows) / (p.Now() - start).Micros()
			}
		})
	}
	t := time.Now()
	v.eng.Run()
	return mbps, float64(time.Since(t).Nanoseconds()) / ladderMovedMB, errors.Join(errs[0], errs[1])
}

// mpiLatency is the 4 B ping-pong between ranks a and b of a fresh cluster;
// every other rank returns at once.
func mpiLatency(cfg cluster.Config, a, b, rounds int) (simUs, hostNs float64, err error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	t := time.Now()
	c.Launch(func(comm *mpi.Comm) {
		sbuf, _ := comm.Alloc(4)
		rbuf, _ := comm.Alloc(4)
		switch comm.Rank() {
		case a:
			var start float64
			for k := 0; k <= rounds; k++ {
				if k == 1 {
					start = comm.Wtime() // round 0 is the warm-up
				}
				comm.Send(sbuf, b, 0)
				comm.Recv(rbuf, b, 0)
			}
			simUs = (comm.Wtime() - start) * 1e6 / float64(2*rounds)
		case b:
			for k := 0; k <= rounds; k++ {
				comm.Recv(rbuf, a, 0)
				comm.Send(sbuf, a, 0)
			}
		}
	})
	return simUs, float64(time.Since(t).Nanoseconds()) / float64(2*(rounds+1)), nil
}

// mpiBandwidth is the paper's window test at 1 MB between ranks 0 and 1.
func mpiBandwidth(cfg cluster.Config) (mbps, hostNsPerMB float64, err error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	t := time.Now()
	c.Launch(func(comm *mpi.Comm) {
		buf, _ := comm.Alloc(mb)
		ack, _ := comm.Alloc(4)
		window := func(n int) {
			reqs := make([]*mpi.Request, n)
			for i := range reqs {
				if comm.Rank() == 0 {
					reqs[i] = comm.Isend(buf, 1, 1)
				} else {
					reqs[i] = comm.Irecv(buf, 0, 1)
				}
			}
			comm.WaitAll(reqs...)
			if comm.Rank() == 0 {
				comm.Recv(ack, 1, 2)
			} else {
				comm.Send(ack, 0, 2)
			}
		}
		window(1) // warm-up
		start := comm.Wtime()
		for k := 0; k < ladderWindows; k++ {
			window(ladderWindow)
		}
		if comm.Rank() == 0 {
			mbps = float64(mb*ladderWindow*ladderWindows) / ((comm.Wtime() - start) * 1e6)
		}
	})
	return mbps, float64(time.Since(t).Nanoseconds()) / ladderMovedMB, nil
}

// firstMessageLazy returns how much longer the first 4 B round trip of a
// lazily connected pair takes than a steady-state one, in simulated µs:
// the on-demand connect cost a message pays once.
func firstMessageLazy() (float64, error) {
	c, err := cluster.New(cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy,
		ConnectMode: cluster.ConnectLazy})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var us float64
	c.Launch(func(comm *mpi.Comm) {
		const steady = 10
		sbuf, _ := comm.Alloc(4)
		rbuf, _ := comm.Alloc(4)
		if comm.Rank() == 1 {
			for k := 0; k <= steady; k++ {
				comm.Recv(rbuf, 0, 0)
				comm.Send(sbuf, 0, 0)
			}
			return
		}
		t0 := comm.Wtime()
		comm.Send(sbuf, 1, 0)
		comm.Recv(rbuf, 1, 0)
		t1 := comm.Wtime()
		for k := 0; k < steady; k++ {
			comm.Send(sbuf, 1, 0)
			comm.Recv(rbuf, 1, 0)
		}
		us = ((t1 - t0) - (comm.Wtime()-t1)/steady) * 1e6
	})
	return us, nil
}

// overlapRatio measures how much of a 1 MB send hides behind computation:
// the send alone, the computation alone, then Isend + Compute + Wait. 1
// means the shorter of the two vanished entirely, 0 means they ran back to
// back.
func overlapRatio() (float64, error) {
	c, err := cluster.New(cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var ratio float64
	c.Launch(func(comm *mpi.Comm) {
		const flops = 480_000 // 1.2 ms at the testbed's 400 MFLOP/s, about one 1 MB transfer
		buf, _ := comm.Alloc(mb)
		if comm.Rank() == 1 {
			for k := 0; k < 3; k++ { // warm-up, alone, overlapped
				comm.Recv(buf, 0, 0)
				comm.Barrier()
			}
			return
		}
		comm.Send(buf, 1, 0) // warm-up: registration cached from here on
		comm.Barrier()
		t0 := comm.Wtime()
		comm.Wait(comm.Isend(buf, 1, 0))
		tComm := comm.Wtime() - t0
		comm.Barrier()
		t0 = comm.Wtime()
		comm.Compute(flops)
		tComp := comm.Wtime() - t0
		t0 = comm.Wtime()
		req := comm.Isend(buf, 1, 0)
		comm.Compute(flops)
		comm.Wait(req)
		tBoth := comm.Wtime() - t0
		comm.Barrier()
		ratio = (tComm + tComp - tBoth) / math.Min(tComm, tComp)
	})
	return ratio, nil
}

// dispatchNs times the engine's schedule+dispatch loop at a standing
// population of 64 events: host ns per event.
func dispatchNs(n int) float64 {
	e := des.NewEngine()
	defer e.Shutdown()
	done := 0
	var fn func()
	fn = func() {
		if done < n {
			done++
			e.After(des.Time(done&7), fn)
		}
	}
	for i := 0; i < 64; i++ {
		e.Schedule(des.Time(i), fn)
	}
	t := time.Now()
	e.Run()
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// handoffNs times one simulated blocking point: a process yielding, each
// yield one wake event and one goroutine hand-off.
func handoffNs(n int) float64 {
	e := des.NewEngine()
	defer e.Shutdown()
	e.Spawn("spinner", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			p.Yield()
		}
	})
	t := time.Now()
	e.Run()
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// busTransferNs times one uncontended single-granule bus transfer.
func busTransferNs(n int) float64 {
	prm := model.Testbed()
	e := des.NewEngine()
	defer e.Shutdown()
	bus := model.NewBus("ladder", prm)
	e.Spawn("mover", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			bus.Transfer(p, prm.BusGranule, 0)
		}
	})
	t := time.Now()
	e.Run()
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// regcacheNs times a Register+Release pair on the hit path (the buffer is
// cached) and on the miss path (caching disabled, so every pair pins and
// unpins).
func regcacheNs(n int) (hit, miss float64) {
	for _, cached := range []bool{true, false} {
		v := newVerbsPair()
		limit := 0
		if cached {
			limit = 64 * mb
		}
		rc := regcache.New(v.hca[0], v.pd[0], limit)
		va, _ := v.node[0].Mem.Alloc(64 << 10)
		v.eng.Spawn("pinner", func(p *des.Proc) {
			for i := 0; i <= n; i++ {
				mr, _, err := rc.Register(p, va, 64<<10)
				if err != nil {
					panic(err) // the node's own memory always registers
				}
				if err := rc.Release(p, mr); err != nil {
					panic(err)
				}
			}
		})
		t := time.Now()
		v.eng.Run()
		ns := float64(time.Since(t).Nanoseconds()) / float64(n+1)
		v.eng.Shutdown()
		if cached {
			hit = ns
		} else {
			miss = ns
		}
	}
	return hit, miss
}

// portNs times one uplink booking on the coll_fattree tree shape.
func portNs() (float64, error) {
	const n = 1_000_000
	prm := model.Testbed()
	f, err := switchfab.New(switchfab.Config{LeafDown: 4, LeafUp: 1}, 32, 1, prm.NetBandwidth)
	if err != nil {
		return 0, err
	}
	plane := f.Plane(0)
	var sink des.Time
	t := time.Now()
	for i := 0; i < n; i++ {
		sink += plane.Up(i&7, 0, prm.BusGranule, des.Time(i)*des.Microsecond)
	}
	ns := float64(time.Since(t).Nanoseconds()) / n
	if sink < 0 {
		return 0, fmt.Errorf("negative queueing delay %v", sink)
	}
	return ns, nil
}
