module repro

// Stays at 1.21 although internal/des needs the Go 1.23 standard library
// (iter.Pull; internal/des/coro.go carries the constraint): with a newer
// line here the benchmark module, which requires this one through a replace
// and builds with GOTOOLCHAIN=local and GOPROXY=off, stops building ("go:
// updates to go.mod needed"). CI pins its toolchain to 1.24.x instead of
// reading it from this file.
go 1.21
