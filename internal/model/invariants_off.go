//go:build !invariants

package model

// The lost-wake contract check's hook; the invariants build
// (invariants_on.go) runs the checks a layer above installs.
type notifyChecks struct{}

func (notifyChecks) after(*Watch) {}
