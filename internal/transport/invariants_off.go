//go:build !invariants

package transport

// The progress pass's contract checks; the invariants build
// (invariants_on.go) makes them panic on a broken promise.

const invariants = false

func (e *Engine) checkHeld(int)     {}
func (e *Engine) checkDisarmed(int) {}
