package mpi_test

import (
	"fmt"
	"testing"

	"repro/internal/ch3"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// The exactness golden (DESIGN.md §16): the default build elides DES events
// — back-to-back charges and whole idle poll passes dispatch as one — and
// claims no simulated result moves. The desplain build keeps every elided
// Sleep as its own event, so it is the reference: it alone may write
// testdata/exact_golden.txt, and both builds must reproduce every row.

// sleepsElided reports which build this is by what it does: a two-hop step
// costs the plain build two events and the default build one.
func sleepsElided() bool {
	e := des.NewEngine()
	defer e.Shutdown()
	e.Spawn("probe", func(p *des.Proc) { p.SleepStep(des.Step{D: 1, Hops: 2}) })
	e.Run()
	return e.EventsExecuted() == 2 // the start event and one wake
}

// exactRun drives one cell — small and large ring shifts, then three
// collectives — and renders everything the elision must not move: per-rank
// finish times, the final clock, payload checksums, the channel call
// counters the skipped polls are booked into, and the bus and memory
// controller occupancy the fused granule charge accounts.
func exactRun(cfg cluster.Config) string {
	c := cluster.MustNew(cfg)
	defer c.Close()
	np := cfg.NP
	finish := make([]des.Time, np)
	sums := make([]uint64, np)
	c.Launch(func(comm *mpi.Comm) {
		me := comm.Rank()
		right, left := (me+1)%np, (me+np-1)%np
		for _, size := range []int{256, 64 << 10} {
			sbuf, sb := comm.Alloc(size)
			rbuf, rb := comm.Alloc(size)
			// The send buffer is rewritten between rounds: a send that has
			// returned has gathered its payload, on every transport.
			for iter := 0; iter < 3; iter++ {
				for i := range sb {
					sb[i] = byte(me + i*13 + iter)
				}
				comm.Sendrecv2(sbuf, right, rbuf, left, 42)
			}
			sums[me] = sums[me]*1099511628211 ^ fnv64(rb)
		}
		acc, ab := comm.Alloc(8)
		out, ob := comm.Alloc(8)
		mpi.PutInt64(ab, 0, int64(sums[me]&0x7FFFFFFF))
		comm.Allreduce(acc, out, mpi.Int64, mpi.Max)
		sums[me] ^= uint64(mpi.GetInt64(ob, 0))
		a2s, sb := comm.Alloc(1024 * np)
		a2r, rb := comm.Alloc(1024 * np)
		for i := range sb {
			sb[i] = byte(me*31 + i)
		}
		comm.Alltoall(a2s, a2r)
		sums[me] = sums[me]*1099511628211 ^ fnv64(rb)
		comm.Barrier()
		finish[me] = comm.Proc().Now()
	})

	var gets, puts []uint64
	for _, eng := range c.Ranks {
		var g, p uint64
		eng.ForEachEndpoint(func(_ int32, ep transport.Endpoint) {
			if conn, ok := ep.(*ch3.Conn); ok {
				st := conn.Endpoint().Stats()
				g += st.GetCalls
				p += st.PutCalls
			}
		})
		gets, puts = append(gets, g), append(puts, p)
	}
	var bus []string
	for n, node := range c.Nodes {
		var busy des.Time
		var granules uint64
		for _, h := range c.Rails[n] {
			busy += h.Bus().BusyTime()
			granules += h.Bus().Granules()
		}
		bus = append(bus, fmt.Sprintf("%d/%d/%d", int64(busy), granules, int64(node.MemCtlBusyTime())))
	}
	return fmt.Sprintf("clock=%d finish=%v sums=%x gets=%v puts=%v bus/granules/memctl=%v",
		int64(c.Now()), finish, sums, gets, puts, bus)
}

// TestChainsExactGolden renders every cell of scenario.Exact, each
// collective layout under each stack variant, against the golden.
func TestChainsExactGolden(t *testing.T) {
	if *updateGolden && sleepsElided() {
		t.Fatal("the golden is the plain build's output: rerun with -tags desplain")
	}
	var rows []string
	for _, s := range scenario.Exact {
		rows = append(rows, s.Name+": "+exactRun(s.Config))
	}
	golden{"testdata/exact_golden.txt", ""}.check(t, rows)
}
