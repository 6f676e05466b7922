//go:build !invariants

package model

// The lost-wake contract check's hook and the stale-slot poison; the
// invariants build (invariants_on.go) runs the checks a layer above installs
// and fills reused slot bytes with a pattern.
type notifyChecks struct{}

func (notifyChecks) after(*Watch) {}

func poison([]byte) {}
