package mpi_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/scenario"
)

func TestDatatypeSizes(t *testing.T) {
	want := map[mpi.Datatype]int{
		mpi.Byte: 1, mpi.Int32: 4, mpi.Float32: 4, mpi.Int64: 8, mpi.Float64: 8,
	}
	for dt, n := range want {
		if dt.Size() != n {
			t.Errorf("Size(%d) = %d, want %d", dt, dt.Size(), n)
		}
	}
}

// TestMixedPrecisionAllreduce drives the 4-byte datatypes through a real
// collective on a real cluster: Float32 sums and Int32 max/min must reduce
// elementwise with 4-byte stride.
func TestMixedPrecisionAllreduce(t *testing.T) {
	const np, elems = 4, 6
	var f32ok, i32ok [np]bool
	launch(t, scenario.Scenario{Config: cluster.Config{NP: np, Transport: cluster.TransportZeroCopy}}, func(comm *mpi.Comm) {
		rank := comm.Rank()
		s, sb := comm.Alloc(elems * 4)
		r, rb := comm.Alloc(elems * 4)
		for i := 0; i < elems; i++ {
			mpi.PutFloat32(sb, i, float32(rank+1)*0.5*float32(i+1))
		}
		comm.Allreduce(s, r, mpi.Float32, mpi.Sum)
		good := true
		for i := 0; i < elems; i++ {
			// sum over ranks of (rank+1)*0.5*(i+1) = 0.5*(i+1)*np(np+1)/2
			want := 0.5 * float32(i+1) * float32(np*(np+1)) / 2
			if mpi.GetFloat32(rb, i) != want {
				good = false
			}
		}
		f32ok[rank] = good

		for i := 0; i < elems; i++ {
			mpi.PutInt32(sb, i, int32((rank+1)*(i+1)))
		}
		comm.Allreduce(s, r, mpi.Int32, mpi.Max)
		good = true
		for i := 0; i < elems; i++ {
			if mpi.GetInt32(rb, i) != int32(np*(i+1)) {
				good = false
			}
		}
		i32ok[rank] = good
	})
	for rank := 0; rank < np; rank++ {
		if !f32ok[rank] {
			t.Errorf("rank %d: Float32 Sum allreduce wrong", rank)
		}
		if !i32ok[rank] {
			t.Errorf("rank %d: Int32 Max allreduce wrong", rank)
		}
	}
}
