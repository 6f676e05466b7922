package mpi_test

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/scenario"
)

// roundTrips runs n ping-pong round trips of buf between ranks 0 and 1.
func roundTrips(comm *mpi.Comm, buf mpi.Buffer, n int) {
	for i := 0; i < n; i++ {
		if comm.Rank() == 0 {
			comm.Send(buf, 1, 7)
			comm.Recv(buf, 1, 7)
		} else {
			comm.Recv(buf, 0, 7)
			comm.Send(buf, 0, 7)
		}
	}
}

// TestUserRequestOutlivesWait: a request Isend or Irecv hands to the caller
// is never recycled, so it still reports Done and its Status after Wait, and
// after 100 further blocking round trips have taken requests from, and put
// them back on, the engine's free list.
func TestUserRequestOutlivesWait(t *testing.T) {
	launch(t, scenario.Layout("flat-np2"), func(comm *mpi.Comm) {
		buf, _ := comm.Alloc(64)
		peer := 1 - comm.Rank()
		var sr, rr *mpi.Request
		if comm.Rank() == 0 {
			sr = comm.Isend(mpi.Slice(buf, 0, 24), peer, 3)
			rr = comm.Irecv(mpi.Slice(buf, 32, 32), peer, 4)
		} else {
			rr = comm.Irecv(mpi.Slice(buf, 32, 32), peer, 3)
			sr = comm.Isend(mpi.Slice(buf, 0, 16), peer, 4)
		}
		comm.Wait(sr)
		comm.Wait(rr)
		want := mpi.Status{Source: int32(peer), Tag: 4, Len: 16}
		if comm.Rank() == 1 {
			want = mpi.Status{Source: int32(peer), Tag: 3, Len: 24}
		}
		check := func(when string) {
			if !sr.Done() || !rr.Done() {
				t.Errorf("rank %d %s: send done %v, receive done %v", comm.Rank(), when, sr.Done(), rr.Done())
			}
			if got := rr.Status(); got != want {
				t.Errorf("rank %d %s: receive status %+v, want %+v", comm.Rank(), when, got, want)
			}
		}
		check("after Wait")
		roundTrips(comm, mpi.Slice(buf, 0, 8), 100)
		check("after 100 round trips")
	})
}
