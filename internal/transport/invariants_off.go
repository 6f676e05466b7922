//go:build !invariants

package transport

// The progress pass's and the request lifecycle's contract checks; the
// invariants build (invariants_on.go) makes them panic on a broken promise.

const invariants = false

func (e *Engine) checkHeld(int)               {}
func (e *Engine) checkRequest(*Request, bool) {}

type parkCheck struct{}

func (e *Engine) armCheck()   {}
func (e *Engine) park(uint64) {}
func (e *Engine) unpark()     {}
func (e *Engine) noteTouch()  {}
