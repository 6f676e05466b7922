//go:build !invariants

package transport

// The progress pass's contract check; the invariants build
// (invariants_on.go) makes it panic on a broken promise.

const invariants = false

func (e *Engine) checkHeld(int) {}
