package mpi

import (
	"encoding/binary"
	"math"
)

// Datatype is a basic MPI datatype.
type Datatype int

// Supported datatypes. Int32/Float32 open the mixed-precision workloads
// that pack twice the elements per message.
const (
	Byte Datatype = iota
	Int64
	Float64
	Int32
	Float32
)

// Size returns the element size in bytes.
func (d Datatype) Size() int {
	switch d {
	case Byte:
		return 1
	case Int32, Float32:
		return 4
	case Int64, Float64:
		return 8
	}
	panic("mpi: unknown datatype")
}

// Op is a reduction operator.
type Op int

// Supported reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

// reduce applies dst = dst ⊕ src elementwise over real bytes.
func reduce(dst, src []byte, dt Datatype, op Op) {
	switch dt {
	case Byte:
		for i := range dst {
			dst[i] = reduceOrdered(dst[i], src[i], op)
		}
	case Int64:
		for i := 0; i+8 <= len(dst); i += 8 {
			a := int64(binary.LittleEndian.Uint64(dst[i:]))
			b := int64(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], uint64(reduceOrdered(a, b, op)))
		}
	case Float64:
		for i := 0; i+8 <= len(dst); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(reduceFloat64(a, b, op)))
		}
	case Int32:
		for i := 0; i+4 <= len(dst); i += 4 {
			a := int32(binary.LittleEndian.Uint32(dst[i:]))
			b := int32(binary.LittleEndian.Uint32(src[i:]))
			binary.LittleEndian.PutUint32(dst[i:], uint32(reduceOrdered(int64(a), int64(b), op)))
		}
	case Float32:
		for i := 0; i+4 <= len(dst); i += 4 {
			a := math.Float32frombits(binary.LittleEndian.Uint32(dst[i:]))
			b := math.Float32frombits(binary.LittleEndian.Uint32(src[i:]))
			binary.LittleEndian.PutUint32(dst[i:], math.Float32bits(reduceOrdered(a, b, op)))
		}
	}
}

// reduceOrdered is a ⊕ b for the integer and float32 element types.
func reduceOrdered[T byte | int64 | float32](a, b T, op Op) T {
	switch op {
	case Sum:
		return a + b
	case Max:
		if a > b {
			return a
		}
		return b
	case Min:
		if a < b {
			return a
		}
		return b
	}
	panic("mpi: unknown op")
}

func reduceFloat64(a, b float64, op Op) float64 {
	switch op {
	case Sum:
		return a + b
	case Max:
		return math.Max(a, b)
	case Min:
		return math.Min(a, b)
	}
	panic("mpi: unknown op")
}

// PutFloat64 stores v at element index i of the buffer's backing bytes.
func PutFloat64(b []byte, i int, v float64) {
	binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
}

// GetFloat64 loads element index i.
func GetFloat64(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
}

// PutInt64 stores v at element index i.
func PutInt64(b []byte, i int, v int64) {
	binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
}

// GetInt64 loads element index i.
func GetInt64(b []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(b[i*8:]))
}

// PutFloat32 stores v at element index i of the buffer's backing bytes.
func PutFloat32(b []byte, i int, v float32) {
	binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(v))
}

// GetFloat32 loads element index i.
func GetFloat32(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
}

// PutInt32 stores v at element index i.
func PutInt32(b []byte, i int, v int32) {
	binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
}

// GetInt32 loads element index i.
func GetInt32(b []byte, i int) int32 {
	return int32(binary.LittleEndian.Uint32(b[i*4:]))
}
