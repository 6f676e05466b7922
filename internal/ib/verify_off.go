//go:build !ibverify

package ib

// snapshot is the ownership checker's per-work-request state. The default
// build has none: see verify_on.go (-tags ibverify).
type snapshot struct{}

func (snapshot) take([][]byte)   {}
func (snapshot) check(*sendWork) {}
