package mpi_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/ch3"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// The exactness golden (DESIGN.md §16): the default build elides DES events
// — back-to-back charges and whole idle poll passes dispatch as one — and
// claims no simulated result moves. The desplain build keeps every elided
// Sleep as its own event, so it is the reference: it alone may write
// testdata/exact_golden.txt (go test -tags desplain -run
// TestChainsExactGolden -update ./internal/mpi/), and both builds must
// reproduce the file line for line.

var updateGolden = flag.Bool("update", false, "rewrite the golden of the test being run: testdata/exact_golden.txt (desplain build only) or this build's rows of testdata/replay_golden.txt")

const exactGoldenPath = "testdata/exact_golden.txt"

// sleepsElided reports which build this is by what it does: a two-hop step
// costs the plain build two events and the default build one.
func sleepsElided() bool {
	e := des.NewEngine()
	defer e.Shutdown()
	e.Spawn("probe", func(p *des.Proc) { p.SleepStep(des.Step{D: 1, Hops: 2}) })
	e.Run()
	return e.EventsExecuted() == 2 // the start event and one wake
}

// exactVariants are the stack configurations crossed with every collective
// topology: the chunk-ring designs whose polls are chained, the direct CH3
// design on the same rings, the SRQ mode whose polls are free (no chains
// form), two buses per node (the unfused bus path), a wider SMP layout, a
// contended fabric, recovery under a seeded fault plan, and the CH3 stripe
// mover: striped writes, write re-post, and SRQ re-dial under faults.
var exactVariants = []struct {
	name string
	mod  func(c *cluster.Config, tp topology)
}{
	{"zerocopy", func(c *cluster.Config, _ topology) {}},
	{"piggyback", func(c *cluster.Config, _ topology) { c.Transport = cluster.TransportPiggyback }},
	{"ch3", func(c *cluster.Config, _ topology) { c.Transport = cluster.TransportCH3 }},
	{"lazy-srq", func(c *cluster.Config, _ topology) {
		c.ConnectMode = cluster.ConnectLazy
		c.Chan.UseSRQ = true
	}},
	{"rails2", func(c *cluster.Config, _ topology) { c.RailsPerNode = 2 }},
	{"smp4", func(c *cluster.Config, _ topology) { c.CoresPerNode = 4 }},
	{"fattree-d4-u1", func(c *cluster.Config, _ topology) { withSwitch(4, 1)(c) }},
	{"faults", func(c *cluster.Config, tp topology) {
		c.RailsPerNode = 2
		c.Fault = replayPlan(int64(tp.np*100+2), (tp.np+tp.cpn-1)/tp.cpn, 2)
	}},
	{"ch3-rails2", func(c *cluster.Config, _ topology) {
		c.Transport = cluster.TransportCH3
		c.RailsPerNode = 2
	}},
	{"ch3-faults", func(c *cluster.Config, tp topology) {
		c.Transport = cluster.TransportCH3
		c.RailsPerNode = 2
		c.Fault = replayPlan(int64(tp.np*100+2), (tp.np+tp.cpn-1)/tp.cpn, 2)
	}},
	{"srq-faults", func(c *cluster.Config, tp topology) {
		c.ConnectMode = cluster.ConnectLazy
		c.Chan.UseSRQ = true
		c.RailsPerNode = 2
		c.Fault = replayPlan(int64(tp.np*100+2), (tp.np+tp.cpn-1)/tp.cpn, 2)
	}},
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

func TestChainsExactGolden(t *testing.T) {
	var lines []string
	for _, tp := range collectiveTopologies {
		for _, v := range exactVariants {
			cfg := cluster.Config{NP: tp.np, CoresPerNode: tp.cpn, Transport: cluster.TransportZeroCopy}
			v.mod(&cfg, tp)
			lines = append(lines, fmt.Sprintf("%s/%s: %s", tp.name, v.name, exactRun(cfg)))
		}
	}
	if *updateGolden {
		if sleepsElided() {
			t.Fatal("the golden is the plain build's output: rerun with -tags desplain")
		}
		if err := os.WriteFile(exactGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(exactGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d cells, this run %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("elided=%v build diverges from the plain build:\n got %s\nwant %s",
				sleepsElided(), lines[i], want[i])
		}
	}
}
