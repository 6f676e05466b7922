package nas

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
)

// TestShardedCGSmoke is the CI sharded smoke (DESIGN.md §13): NAS CG at
// np=64 on the scalable stack (zero-copy, lazy connections, SRQ), two
// shards against serial. The MPI-layer determinism suites prove schedule
// equality on small topologies; this runs a real kernel at CI scale and is
// executed under the race detector in the chaos job — the proof that the
// shard engines, mailboxes and cross-shard model state are data-race free
// under production load.
func TestShardedCGSmoke(t *testing.T) {
	type trace struct {
		fp       string
		verified bool
		mops     float64
	}
	run := func(shards int) trace {
		c := cluster.MustNew(cluster.Config{
			NP:          64,
			Transport:   cluster.TransportZeroCopy,
			ConnectMode: cluster.ConnectLazy,
			Chan:        rdmachan.Config{UseSRQ: true},
			Shards:      shards,
		})
		defer c.Close()
		c.Eng.EnableTrace()
		res := RunOn(c, "cg", ClassS)
		return trace{
			fp:       fmt.Sprintf("%016x", c.Eng.TraceFingerprint()),
			verified: res.Verified,
			mops:     res.Mops,
		}
	}
	want := run(1)
	if !want.verified {
		t.Fatal("serial cg.S np=64 failed verification")
	}
	got := run(2)
	if got != want {
		t.Errorf("shards=2 diverged from serial:\nserial  %+v\nsharded %+v", want, got)
	}
}

// TestSecondLaunchEventParity: a Launch leaves the engine in the same place
// on the serial and the sharded engine — same events dispatched, same
// fingerprint, same clock — so a second Launch on the same cluster starts,
// and ends, at parity too. (Group.run used to leave the last events of a run
// queued where Engine.Run dispatched them.)
func TestSecondLaunchEventParity(t *testing.T) {
	type mark struct {
		events uint64
		fp     uint64
		now    des.Time
	}
	run := func(shards int) (marks []mark) {
		c := cluster.MustNew(cluster.Config{
			NP:          64,
			Transport:   cluster.TransportZeroCopy,
			ConnectMode: cluster.ConnectLazy,
			Chan:        rdmachan.Config{UseSRQ: true},
			Shards:      shards,
		})
		defer c.Close()
		c.Eng.EnableTrace()
		mark1 := func() {
			marks = append(marks, mark{c.Eng.EventsExecuted(), c.Eng.TraceFingerprint(), c.Now()})
		}
		if !RunOn(c, "cg", ClassS).Verified {
			t.Fatalf("shards=%d: cg.S np=64 failed verification", shards)
		}
		mark1()
		c.Launch(func(comm *mpi.Comm) { // a ring exchange, as the benchmark's probe
			out, _ := comm.Alloc(256)
			in, _ := comm.Alloc(256)
			n := comm.Size()
			comm.Sendrecv(out, (comm.Rank()+1)%n, 7, in, (comm.Rank()+n-1)%n, 7)
			comm.Barrier()
		})
		mark1()
		return marks
	}
	want, got := run(1), run(2)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("after Launch %d: shards=2 %+v, serial %+v", i+1, got[i], want[i])
		}
	}
}
